"""End-to-end acceptance gate for the package.

Each test class checks one deliverable-level behavior at its stated
tolerance and budget: channel calibration, signaling moments, the rate
closed form, greedy optimality, mirror symmetry of greedy orders, map
clustering, association optimality, refinement monotonicity, the
coverage-sweep shape and byte-identical CLI artifacts.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from vlcmap.assoc import (
    DirectSolver,
    GAConfig,
    _AssignmentProblem,
    exhaustive_association,
    iterative_rate_update,
    solve_association,
    sum_rate,
)
from vlcmap.channel import filter_gain_matrix, gain_vector
from vlcmap.cli import main
from vlcmap.cpgd import greedy_order
from vlcmap.decmap import _distance_matrix, _order_ids, build_map, reduce_map
from vlcmap.experiments import AssocExperimentConfig, run_assoc_experiment, user_grid
from vlcmap.rates import achievable_rate, model_at_position
from vlcmap.sceneio import DEFAULT_BANDS, DEFAULT_FILTERS, reference_scene
from vlcmap.signaling import build_layer_set, tg_moments

from oracles import (
    apply_layer_permutation,
    best_min_rate,
    covariance_rate,
    gaussian_surrogate,
    layer_permutation,
    tg_quadrature,
    wedge_relabeled_orders,
)
from test_channel import REFERENCE_FILTER_MATRIX
from test_rates import random_model


class TestFilterMatrixReproduction:
    """1. The four-band filter gain matrix matches the published values."""

    def test_matrix_within_rounding(self):
        t0 = time.monotonic()
        mat = filter_gain_matrix(DEFAULT_BANDS, DEFAULT_FILTERS)
        np.testing.assert_allclose(mat, REFERENCE_FILTER_MATRIX, atol=0.01)
        assert time.monotonic() - t0 < 1.0


class TestTGMomentOracle:
    """2. Closed-form TG moments match numerical quadrature."""

    def test_hundred_random_parameter_sets(self, rng):
        t0 = time.monotonic()
        checked = 0
        while checked < 100:
            peak = rng.uniform(0.1, 2.0)
            nu = peak * rng.uniform(0.05, 0.5)
            mu = peak * rng.uniform(-0.5, 1.5)
            # Keep a usable amount of probability mass on [0, peak].
            if -mu / nu > 6.0 or (peak - mu) / nu < -6.0:
                continue
            p = tg_moments(mu, nu, peak)
            _, mean, var, _ = tg_quadrature(mu, nu, peak)
            assert p.mean == pytest.approx(mean, rel=1e-8)
            assert p.var == pytest.approx(var, rel=1e-8)
            checked += 1
        assert time.monotonic() - t0 < 10.0


class TestRateClosedForm:
    """3. Suffix-sum rate evaluation equals explicit covariance algebra."""

    def test_five_hundred_random_instances(self, rng):
        t0 = time.monotonic()
        for _ in range(500):
            model = random_model(rng)
            size = int(rng.integers(1, 4))  # |signal| <= 3
            sig = sorted(rng.choice(6, size=size, replace=False).tolist())
            rest = [k for k in range(6) if k not in sig]
            noi = sorted(
                rng.choice(rest, size=int(rng.integers(0, 3)), replace=False).tolist()
            )
            fast = achievable_rate(model, sig, noi, clamp=False)
            slow = covariance_rate(model, sig, noi)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)
        assert time.monotonic() - t0 < 30.0


class TestGreedyOptimality:
    """4. Greedy min rate equals brute force over ordered partitions."""

    def test_two_hundred_random_trials(self, rng):
        t0 = time.monotonic()
        for trial in range(200):
            tau = 1 if trial % 2 == 0 else 2
            n = int(rng.integers(2, 6))  # up to 5 layers
            model = gaussian_surrogate(random_model(rng, n_layers=n))
            order = greedy_order(model, tau=tau)
            greedy_min = min(order.rates[k] for g in order.groups for k in g)
            brute = best_min_rate(model, range(n), tau)
            assert greedy_min == pytest.approx(brute, rel=1e-9, abs=1e-12)
        assert time.monotonic() - t0 < 120.0


class TestSymmetrySoundness:
    """5. The greedy order at a mirrored position is the relabeled order."""

    def test_fifty_random_mirrored_pairs(self, benchmark_scene, benchmark_table, rng):
        scene, table = benchmark_scene, benchmark_table
        perm = layer_permutation(scene, table, "vertical")
        z = scene.plane.height
        checked = 0
        while checked < 50:
            x = float(rng.uniform(0.0, 1.2))
            y = float(rng.uniform(-1.2, 1.2))
            a = greedy_order(model_at_position(scene, table, (x, y, z), 0))
            b = greedy_order(model_at_position(scene, table, (-x, y, z), 0))
            if a.outage:
                assert b.outage
                continue
            moved = apply_layer_permutation(a, perm)
            assert moved.groups == b.groups
            np.testing.assert_array_equal(moved.rates, b.rates)
            checked += 1

    def test_wedge_build_equals_full_recomputation(
        self, benchmark_scene, benchmark_table, benchmark_map
    ):
        relabeled = wedge_relabeled_orders(benchmark_scene, benchmark_table, benchmark_map)
        for sym_order, dir_cell in zip(relabeled, benchmark_map.cells):
            assert sym_order.outage == dir_cell.order.outage
            if sym_order.outage:
                continue
            assert sym_order.groups == dir_cell.order.groups
            # Diagonal relabeling swaps the x/y terms of the squared link
            # distance, so rates can differ in the last bit.
            np.testing.assert_allclose(
                sym_order.rates, dir_cell.order.rates, rtol=0, atol=1e-12
            )


class TestClusteringReproduction:
    """6. Map size reduction lands on the published cluster counts."""

    @staticmethod
    def _max_average_loss(scene, table, dmap, clusters):
        members = [c for c, cell in enumerate(dmap.cells) if not cell.order.outage]
        row = {c: r for r, c in enumerate(members)}
        orders = [dmap.cells[c].order for c in members]
        z = scene.plane.height
        positions = dmap.positions()
        gains = np.stack(
            [
                gain_vector(scene, (*positions[c][:2], z), dmap.filter_index)[table.tx]
                for c in members
            ]
        )
        order_id, sequences = _order_ids(orders)
        dist = _distance_matrix(sequences, orders, gains, table, scene.sigma**2)
        worst = 0.0
        for cl in clusters:
            rows = [row[c] for c in cl]
            sub = dist[np.ix_(order_id[rows], rows)]
            worst = max(worst, float(sub.mean(axis=1).max()))
        return worst

    @pytest.mark.parametrize(
        "shape, kwargs, expect_active, expect_clusters",
        [
            ((4, 4), {}, 681, 511),
            ((2, 2), {"spacing_x": 0.6, "spacing_y": 0.6}, 681, 28),
            ((1, 2), {"spacing_x": 0.6, "spacing_y": 0.6}, 519, 4),
        ],
    )
    def test_counts_and_loss(self, shape, kwargs, expect_active, expect_clusters):
        t0 = time.monotonic()
        scene = reference_scene(*shape, **kwargs)
        table = build_layer_set(scene, 2)
        dmap = build_map(scene, table, 0)
        clusters = reduce_map(dmap, scene, table)
        assert abs(dmap.n_active - expect_active) <= 0.1 * expect_active
        assert abs(dmap.cluster_count - expect_clusters) <= 0.1 * expect_clusters
        assert self._max_average_loss(scene, table, dmap, clusters) <= 0.1
        assert time.monotonic() - t0 < 600.0


class TestAssociationBruteForce:
    """7. The GA finds the exhaustive optimum on small instances."""

    def test_fifty_random_layouts(self, monkeypatch):
        t0 = time.monotonic()
        scene = reference_scene(
            2, 2, spacing_x=0.6, spacing_y=0.6, colors_per_position=(0,)
        )
        assert scene.n_tx == 4
        table = build_layer_set(scene, 2)
        solver = DirectSolver(scene, table, 0)
        z = scene.plane.height
        rng = np.random.default_rng(7)
        monkeypatch.setattr(GAConfig, "exhaustive_limit", 0)
        cfg = GAConfig(population=32, generations=60)
        for trial in range(50):
            users = [
                np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), z])
                for _ in range(4)
            ]
            problem = _AssignmentProblem(solver, table, users)
            best_obj, _ = exhaustive_association(problem)
            ga = solve_association(
                solver, users, table, GAConfig(**{**cfg.__dict__, "seed": trial})
            )
            assert ga.objective == pytest.approx(best_obj, rel=1e-12, abs=1e-12)
        assert time.monotonic() - t0 < 60.0


class TestRefinementMonotonicity:
    """8. Iterative rate redistribution never loses assigned sum rate."""

    @pytest.mark.parametrize(
        "anchor", [(0.0, 0.0), (0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.0, -0.1)]
    )
    def test_anchor(self, benchmark_scene, benchmark_table, anchor):
        scene, table = benchmark_scene, benchmark_table
        solver = DirectSolver(scene, table, 0)
        users = user_grid((anchor[0], anchor[1], scene.plane.height), n_x=4, n_y=4)
        assoc = solve_association(solver, users, table, GAConfig(seed=1))
        models = [
            model_at_position(scene, table, p, 0) if assoc.assignment[j] >= 0 else None
            for j, p in enumerate(users)
        ]
        result = iterative_rate_update(assoc, models, table)
        phase_one = sum_rate(assoc.rbar, table, assoc.assignment)
        assert result.sum_rate >= phase_one - 1e-9
        assert result.converged
        assert result.rounds <= 50
        # The sum rate after each round: the update stopped after that round.
        sums = [phase_one] + [
            iterative_rate_update(assoc, models, table, max_rounds=r).sum_rate
            for r in range(1, result.rounds + 1)
        ]
        assert sums[-1] == result.sum_rate
        increments = np.diff(sums)
        assert np.all(increments >= -1e-9)


class TestCoverageSweepShape:
    """9. Sum rate dips at the centered placement and decays at the edges."""

    def test_dip_and_decay(self, benchmark_scene):
        scene = benchmark_scene
        cfg = AssocExperimentConfig()
        anchors = [
            (0.0, 0.0),
            (0.1, 0.0), (-0.1, 0.0), (0.0, 0.1), (0.0, -0.1),
            (1.6, 0.0), (-1.6, 0.0), (0.0, 1.6), (0.0, -1.6),
        ]
        rate = {}
        for a in anchors:
            users = user_grid((a[0], a[1], scene.plane.height), n_x=4, n_y=4)
            rate[a] = run_assoc_experiment(scene, users, cfg)["sum_rate"]
        center = rate[(0.0, 0.0)]
        assert center < rate[(0.1, 0.0)] and center < rate[(-0.1, 0.0)]
        assert center < rate[(0.0, 0.1)] and center < rate[(0.0, -0.1)]
        peak = max(rate.values())
        for a in anchors[5:]:
            assert rate[a] < 0.5 * peak


def _tree(root):
    """Every file under ``root``, by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestDeterminism:
    """10. Identical inputs give byte-identical artifacts, every file of them."""

    runner = CliRunner()

    def _twice(self, tmp_path, args):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        for out in (out1, out2):
            res = self.runner.invoke(main, args + ["--out", str(out)])
            assert res.exit_code == 0, res.output
        one, two = _tree(out1), _tree(out2)
        assert one, "the run wrote no artifacts"
        assert one.keys() == two.keys()
        assert [name for name in one if one[name] != two[name]] == []
        return one

    def test_sweep_runs_byte_identical(self, tmp_path):
        files = self._twice(tmp_path, [
            "sweep", "run",
            "--a-range", "-0.1", "0.1", "--b-range", "0.0", "0.0",
            "--population", "16", "--generations", "30", "--seed", "11",
        ])
        assert set(files) == {"run.json", "sweep.csv"}

    def test_map_build_byte_identical(self, tmp_path):
        files = self._twice(tmp_path, ["map", "build"])
        assert set(files) == {"cells.csv", "layers.csv", "map.json", "run.json", "summary.json"}

    def test_assoc_solve_byte_identical(self, tmp_path):
        users = tmp_path / "users.csv"
        users.write_text("x,y,z\n0.1,0.0,2.0\n-0.1,0.2,2.0\n0.3,-0.2,2.0\n")
        files = self._twice(tmp_path, [
            "assoc", "solve", "--users", str(users),
            "--population", "16", "--generations", "30", "--seed", "11",
        ])
        assert set(files) == {"association.csv", "run.json", "summary.json"}
