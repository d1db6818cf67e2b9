import json
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from vlcmap.assoc import (
    Association,
    DirectSolver,
    GAConfig,
    MapLookupSolver,
    _AssignmentProblem,
    _margin_greedy_user,
    exhaustive_association,
    iterative_rate_update,
    local_rate_vector,
    solve_association,
    sum_rate,
    truncate_depth,
)
from vlcmap.cli import main
from vlcmap.cpgd import DecodingOrder
from vlcmap.decmap import build_map
from vlcmap.errors import ConfigError, InfeasibleError
from vlcmap.experiments import user_grid
from vlcmap.rates import model_at_position
from vlcmap.sceneio import reference_scene
from vlcmap.signaling import build_layer_set

from oracles import (
    assignment_evaluate,
    assignment_repair,
    exhaustive_assignments,
    ga_reference_solve,
    margin_increments,
)
from test_decmap import SMALL_SCENE_YAML
from test_rates import random_model


def toy_order(table, groups, rate=0.1):
    rates = np.full(table.n_layers, np.nan)
    for m, grp in enumerate(groups):
        for k in grp:
            # Distinct per-stage rates unless a scalar tie is forced.
            rates[k] = rate if np.isscalar(rate) else rate[m]
    return DecodingOrder(groups=[tuple(g) for g in groups], rates=rates)


class TestTruncateDepth:
    def test_last_own_stage(self, benchmark_table):
        # Layers 0,1 belong to tx 0; 2,3 to tx 1; 4,5 to tx 2.
        order = toy_order(
            benchmark_table, [(0,), (5,), (2,), (1,)], rate=[0.1, 0.2, 0.3, 0.4]
        )
        assert truncate_depth(order, benchmark_table, 0) == 3
        assert truncate_depth(order, benchmark_table, 2) == 1
        assert truncate_depth(order, benchmark_table, 1) == 2

    def test_tied_following_stages_extend_depth(self, benchmark_table):
        # Stages after the own stage that record the same rate also survive
        # truncation: which of an exactly tied run comes first is arbitrary.
        order = toy_order(
            benchmark_table, [(0,), (5,), (2,), (1,)], rate=[0.1, 0.2, 0.2, 0.4]
        )
        assert truncate_depth(order, benchmark_table, 2) == 2
        assert truncate_depth(order, benchmark_table, 1) == 2

    def test_undetectable_transmitter_raises(self, benchmark_table):
        order = toy_order(benchmark_table, [(0,), (2,)], rate=[0.1, 0.2])
        with pytest.raises(InfeasibleError):
            truncate_depth(order, benchmark_table, 5)


class TestLocalRateVector:
    def test_discarded_layers_are_infinite(self, benchmark_table):
        order = toy_order(benchmark_table, [(4,), (0,), (2,)], rate=[0.3, 0.4, 0.5])
        vec = local_rate_vector(order, benchmark_table, 2)
        # tx 2's layer 4 decodes at stage 0, so stages 1.. are discarded.
        assert vec[4] == 0.3
        assert np.all(np.isinf(vec[[0, 2]]))
        assert np.all(np.isinf(np.delete(vec, 4)))

    def test_kept_prefix(self, benchmark_table):
        order = toy_order(benchmark_table, [(4,), (0,), (2,)], rate=[0.3, 0.4, 0.5])
        vec = local_rate_vector(order, benchmark_table, 1)
        assert vec[4] == 0.3 and vec[0] == 0.4 and vec[2] == 0.5
        assert np.isinf(vec[1])


class TestGlobalFold:
    """The global rate vector is the elementwise minimum of the chosen local rows."""

    def test_elementwise_minimum(self, corner_problem):
        scene, table, solver, users = corner_problem
        problem = _AssignmentProblem(solver, table, users)
        _, choice = exhaustive_association(problem)
        assert len(choice) > 1
        _, rbar = problem.evaluate(choice)
        rows = [
            local_rate_vector(problem.orders[j], table, problem.candidates[j][c])
            for j, c in choice.items()
        ]
        np.testing.assert_array_equal(rbar, np.minimum.reduce(rows))

    def test_empty_rejected(self, corner_scene):
        # No user can be served: there is no local vector to fold.
        table = build_layer_set(corner_scene, 2)
        solver = DirectSolver(corner_scene, table, 0)
        far = [np.array([50.0, 50.0, corner_scene.plane.height])] * 2
        with pytest.raises(InfeasibleError):
            _AssignmentProblem(solver, table, far)


class TestAssignedSumRate:
    def test_sums_only_assigned_finite_layers(self, benchmark_table):
        rbar = np.full(benchmark_table.n_layers, np.inf)
        rbar[0], rbar[1] = 0.1, 0.2   # tx 0
        rbar[4] = 0.25                # tx 2, layer 5 stays unbound
        total = sum_rate(rbar, benchmark_table, [0, 2])
        assert total == pytest.approx(0.55)

    def test_is_the_association_objective(self, corner_scene):
        table = build_layer_set(corner_scene, 2)
        solver = DirectSolver(corner_scene, table, 0)
        users = user_grid((0.1, 0.0, corner_scene.plane.height))
        for seed in range(3):
            ga = GAConfig(population=16, generations=10, seed=seed)
            assoc = solve_association(solver, users, table, ga)
            assert assoc.objective == sum_rate(assoc.rbar, table, assoc.assignment)


@pytest.fixture(scope="module")
def corner_problem(corner_scene):
    table = build_layer_set(corner_scene, 2)
    solver = DirectSolver(corner_scene, table, 0)
    users = user_grid((0.05, -0.1, corner_scene.plane.height), n_x=2, n_y=2)
    return corner_scene, table, solver, users


class TestSolveAssociation:
    def test_ga_matches_exhaustive(self, corner_problem):
        scene, table, solver, users = corner_problem
        assoc = solve_association(solver, users, table, GAConfig(seed=3))
        problem = _AssignmentProblem(solver, table, users)
        best_obj, _ = exhaustive_association(problem)
        assert assoc.objective == pytest.approx(best_obj, rel=1e-12)

    def test_seeded_runs_identical(self, corner_problem, monkeypatch):
        scene, table, solver, users = corner_problem
        monkeypatch.setattr(GAConfig, "exhaustive_limit", 0)  # force pure GA result
        cfg = GAConfig(seed=7)
        a = solve_association(solver, users, table, cfg)
        b = solve_association(solver, users, table, cfg)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.objective == b.objective

    def test_assignment_is_injective(self, corner_problem):
        scene, table, solver, users = corner_problem
        assoc = solve_association(solver, users, table, GAConfig(seed=0))
        served = assoc.assignment[assoc.assignment >= 0]
        assert len(set(served.tolist())) == served.size

    def test_map_lookup_agrees_with_direct(
        self, benchmark_scene, benchmark_table, benchmark_map
    ):
        users = user_grid((0.1, 0.2, benchmark_scene.plane.height), n_x=2, n_y=2)
        direct = solve_association(
            DirectSolver(benchmark_scene, benchmark_table, 0),
            users,
            benchmark_table,
            GAConfig(seed=1),
        )
        mapped = solve_association(
            MapLookupSolver(benchmark_map), users, benchmark_table, GAConfig(seed=1)
        )
        np.testing.assert_array_equal(direct.assignment, mapped.assignment)
        assert direct.objective == pytest.approx(mapped.objective, rel=1e-12)

    def test_map_lookup_on_an_axis_of_one_sample(self):
        scene = reference_scene(1, 2, spacing_x=0.6, spacing_y=0.6, plane_margin=0.0)
        table = build_layer_set(scene, 2)
        dmap = build_map(scene, table, 0)
        assert dmap.xs.tolist() == [0.0]
        z = scene.plane.height
        solver = MapLookupSolver(dmap)
        order = solver.order_at((0.0, 0.1, z))
        assert order is dmap.cells[4].order
        assert order.groups == DirectSolver(scene, table, 0).order_at((0.0, 0.1, z)).groups
        for x in (0.05, -1e-6):
            with pytest.raises(ConfigError, match="outside the mapped plane"):
                solver.order_at((x, 0.1, z))

    def test_all_outage_raises(self, corner_scene):
        table = build_layer_set(corner_scene, 2)
        solver = DirectSolver(corner_scene, table, 0)
        far = [np.array([50.0, 50.0, corner_scene.plane.height])]
        with pytest.raises(InfeasibleError):
            solve_association(solver, far, table)


@pytest.fixture(scope="module")
def window_problem(benchmark_scene, benchmark_table, benchmark_map):
    """The 16-user grid at the sweep-window anchor (0.1, 0), orders from the map."""
    users = user_grid((0.1, 0.0, benchmark_scene.plane.height))
    return benchmark_scene, benchmark_table, MapLookupSolver(benchmark_map), users


class TestProblemMatchesOracles:
    """The array-based problem methods and GA driver equal their loop references."""

    @pytest.fixture(params=["corner_problem", "window_problem"])
    def case(self, request):
        _, table, solver, users = request.getfixturevalue(request.param)
        return table, solver, users, _AssignmentProblem(solver, table, users)

    @staticmethod
    def random_choice(problem, rng, serve_all: bool) -> dict[int, int]:
        """A per-user candidate choice; unless ``serve_all``, some users are skipped."""
        active = np.array(problem.active)
        keep = active if serve_all else active[rng.random(active.size) < 0.6]
        return {int(j): int(rng.integers(len(problem.candidates[j]))) for j in keep}

    def test_evaluate(self, case, rng):
        *_, problem = case
        for trial in range(60):
            # Every third choice serves all active users; the rest skip some.
            choice = self.random_choice(problem, rng, trial % 3 == 0)
            if not choice:
                continue
            got_obj, got_rbar = problem.evaluate(choice)
            want_obj, want_rbar = assignment_evaluate(problem, choice)
            assert got_obj == want_obj
            np.testing.assert_array_equal(got_rbar, want_rbar)

    def test_evaluate_batch(self, case, rng):
        *_, problem = case
        # Full choices, choices that skip users as repair's fallback does, and
        # empty ones, mixed in one batch.
        choices = [self.random_choice(problem, rng, trial % 3 == 0) for trial in range(64)]
        choices[5] = choices[40] = {}
        objectives, rbars = problem.evaluate_batch(choices)
        assert objectives.shape == (64,)
        assert rbars.shape == (64, problem.table.n_layers)
        for choice, got_obj, got_rbar in zip(choices, objectives, rbars):
            if not choice:
                assert got_obj == -np.inf
                assert np.all(got_rbar == np.inf)
                continue
            want_obj, want_rbar = assignment_evaluate(problem, choice)
            assert got_obj == want_obj
            assert got_rbar.tobytes() == want_rbar.tobytes()
        # Each choice scores as it does alone.
        for choice, obj in zip(choices[:8], objectives):
            assert problem.evaluate(choice)[0] == obj

    def test_repair(self, case, rng):
        *_, problem = case
        sizes = np.array([max(len(c), 1) for c in problem.candidates])
        fallbacks = 0
        for trial in range(60):
            # Half the genomes draw from only two genes, so most users name one
            # of a few transmitters and the fallback order decides.
            high = sizes if trial % 2 == 0 else np.minimum(sizes, 2)
            genome = rng.integers(0, high)
            got = problem.repair(genome)
            assert got == assignment_repair(problem, genome)
            fallbacks += sum(
                c != int(genome[j]) % len(problem.candidates[j]) for j, c in got.items()
            )
        assert fallbacks > 0

    def test_solve_association(self, case, monkeypatch):
        # The batched driver follows the per-genome loop's trajectory exactly;
        # without the brute-force cross-check the GA's answer is returned.
        table, solver, users, problem = case
        monkeypatch.setattr(GAConfig, "exhaustive_limit", 0)
        for population, generations in ((16, 5), (24, 9)):
            for seed in (0, 4, 11):
                cfg = GAConfig(population=population, generations=generations, seed=seed)
                got = solve_association(solver, users, table, cfg)
                val, choice = ga_reference_solve(problem, cfg)
                want_obj, want_rbar = assignment_evaluate(problem, choice)
                assert val == want_obj
                np.testing.assert_array_equal(got.assignment, problem.to_assignment(choice))
                assert got.objective == want_obj
                assert got.rbar.tobytes() == want_rbar.tobytes()


class TestExhaustiveAssociation:
    """Brute force equals the best injective assignment its oracle enumerates."""

    def test_random_instances(self, rng):
        scene = reference_scene(2, 2, spacing_x=0.6, spacing_y=0.6, colors_per_position=(0,))
        table = build_layer_set(scene, 2)
        solver = DirectSolver(scene, table, 0)
        z = scene.plane.height
        for _ in range(20):
            n_users = int(rng.integers(2, 6))
            users = [(float(x), float(y), z) for x, y in rng.uniform(-0.6, 0.6, (n_users, 2))]
            problem = _AssignmentProblem(solver, table, users)
            best, choice = exhaustive_association(problem)
            candidates = {j: problem.candidates[j] for j in problem.active}
            values = [
                assignment_evaluate(
                    problem, {j: problem.candidates[j].index(tx) for j, tx in txs.items()}
                )[0]
                for txs in exhaustive_assignments(candidates)
            ]
            assert best == max(values)
            assert assignment_evaluate(problem, choice)[0] == best


class TestIterativeRateUpdate:
    def _setup(self, corner_problem, seed=0):
        scene, table, solver, users = corner_problem
        assoc = solve_association(solver, users, table, GAConfig(seed=seed))
        models = [
            model_at_position(scene, table, p, 0) if assoc.assignment[j] >= 0 else None
            for j, p in enumerate(users)
        ]
        return table, assoc, models

    def test_monotone_refinement(self, corner_problem):
        table, assoc, models = self._setup(corner_problem)
        result = iterative_rate_update(assoc, models, table)
        finite = np.isfinite(assoc.rbar)
        assert np.all(result.rates[finite] >= assoc.rbar[finite] - 1e-9)
        assert result.converged
        assert result.rounds <= 50

    def test_sum_rate_not_worse_than_fold(self, corner_problem):
        table, assoc, models = self._setup(corner_problem)
        result = iterative_rate_update(assoc, models, table)
        served = [int(t) for t in assoc.assignment if t >= 0]
        assert result.sum_rate >= sum_rate(
            assoc.rbar, table, served
        ) - 1e-9

    def test_orders_cover_assigned_layers(self, corner_problem):
        # Each served user's own detectable layers get a finite refined rate.
        table, assoc, models = self._setup(corner_problem)
        result = iterative_rate_update(assoc, models, table)
        served = 0
        for j, tx in enumerate(assoc.assignment):
            if tx < 0:
                continue
            own = np.flatnonzero((table.tx == tx) & (models[j].gains != 0.0))
            assert own.size > 0
            assert np.all(np.isfinite(result.rates[own]))
            served += 1
        assert served > 1


class TestMarginGreedy:
    """The margin pass of the rate update equals its scalar oracle."""

    @pytest.mark.parametrize("tau", [1, 2, 3])
    def test_random_models(self, rng, tau):
        table = SimpleNamespace(n_layers=6, tx=np.array([0, 0, 1, 1, 2, 2]))
        for trial in range(10):
            model = random_model(rng)
            rhat = rng.uniform(0.0, 0.2, 6)
            if trial % 3 == 0:
                rhat[int(rng.integers(6))] = np.inf  # a layer nobody binds
            tx = int(rng.integers(3))
            increments = _margin_greedy_user(model, table, tx, tau)
            # One pass serves every round: the second call sees grown rates.
            for rates in (rhat, rhat + rng.uniform(0.0, 0.05, 6)):
                got = increments(rates)
                want = margin_increments(model, table, tx, rates, tau)
                np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
                np.testing.assert_array_equal(np.sign(got), np.sign(want))
                finite = np.isfinite(want)
                np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "colors, layers, at, tau",
        [((0, 1, 2, 3), 2, (0.0, 0.0), 1), ((0,), 1, (0.1, 0.1), 2), ((0,), 1, (0.0, 0.0), 2)],
        ids=["center-tau1", "diagonal-tau2", "center-tau2"],
    )
    def test_scene_user_with_exact_ties(self, colors, layers, at, tau):
        # On the array's mirror lines candidates tie exactly with their images.
        scene = reference_scene(4, 4, colors_per_position=colors)
        table = build_layer_set(scene, layers)
        model = model_at_position(scene, table, (*at, scene.plane.height), 0)
        rhat = np.zeros(table.n_layers)
        got = _margin_greedy_user(model, table, 0, tau)(rhat)
        want = margin_increments(model, table, 0, rhat, tau)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestGroupDecodingRefinement:
    """Association and refinement at group size bound 2, end to end."""

    def test_assoc_solve_tau2(self, tmp_path):
        scene_path = tmp_path / "scene.yaml"
        scene_path.write_text(SMALL_SCENE_YAML)
        res = CliRunner().invoke(main, [
            "assoc", "solve", "--scene", str(scene_path), "--tau", "2", "--anchor", "0.0", "0.2",
            "--population", "16", "--generations", "20", "--out", str(tmp_path / "out"),
        ])
        assert res.exit_code == 0, res.output
        record = json.loads(res.output)
        assert record["converged"] and record["n_served"] > 1
        assert record["sum_rate"] >= record["sum_rate_assoc"] - 1e-9

    def test_refinement_never_loses_sum_rate(self):
        scene = reference_scene(1, 2, spacing_x=0.6, spacing_y=0.6, sample_gap=0.4)
        table = build_layer_set(scene, 2)
        solver = DirectSolver(scene, table, 0, tau=2)
        users = user_grid((0.0, 0.2, scene.plane.height), n_x=2, n_y=2)
        assoc = solve_association(solver, users, table, GAConfig(seed=2))
        models = [model_at_position(scene, table, p, 0) for p in users]
        full = iterative_rate_update(assoc, models, table, tau=2)
        assert full.converged
        sums = [sum_rate(assoc.rbar, table, assoc.assignment)]
        for rounds in range(1, full.rounds + 1):
            upd = iterative_rate_update(assoc, models, table, tau=2, max_rounds=rounds)
            sums.append(upd.sum_rate)
        assert sums[-1] == full.sum_rate
        assert np.all(np.diff(sums) >= -1e-9)
