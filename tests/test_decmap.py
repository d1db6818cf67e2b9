import copy
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import vlcmap
from vlcmap.channel import gain_vector
from vlcmap.cli import main
from vlcmap.cpgd import greedy_order
from vlcmap.decmap import (
    MAP_VERSION,
    TAU_LOSS,
    _distance_matrix,
    _order_ids,
    _peel_categories,
    build_map,
    load_map,
    reduce_map,
    save_map,
    scene_fingerprint,
)
from vlcmap.errors import ConfigError, InvalidParameterError
from vlcmap.rates import RateModel, model_at_position
from vlcmap.sceneio import grid_scene, reference_scene
from vlcmap.signaling import build_layer_set

from oracles import (
    cell_distance_matrix,
    greedy_groups,
    grid_index,
    layer_permutation,
    max_average_loss,
    normalized_distance,
    peel_reference,
    wedge_relabeled_orders,
)
from test_rates import random_model

TRANSFORMS = ("diagonal", "horizontal", "vertical")


class TestIndexMatrix:
    """Worked example: the reflections of a one-color 2x2 array.

    The index matrix holds position labels by (x index, y index), so it is
    [[0, 1], [2, 3]], and one transmitter sits at each position.
    """

    @pytest.fixture(scope="class")
    def square(self):
        scene = grid_scene(2, 2, spacing_x=0.6, spacing_y=0.6, colors_per_position=(0,))
        return scene, build_layer_set(scene, 2)

    @staticmethod
    def tx_permutation(scene, table, transform):
        """Transmitter relabeling induced by ``layer_permutation``."""
        perm = layer_permutation(scene, table, transform)
        out = np.empty(scene.n_tx, dtype=int)
        out[table.tx] = table.tx[perm]
        return out

    def test_diagonal(self, square):
        # Anti-transpose: swaps the (-x, -y) and (+x, +y) corners.
        assert self.tx_permutation(*square, "diagonal").tolist() == [3, 1, 2, 0]

    def test_horizontal(self, square):
        # Reverses the y order within each x column.
        assert self.tx_permutation(*square, "horizontal").tolist() == [1, 0, 3, 2]

    def test_vertical(self, square):
        # Reverses the x order.
        assert self.tx_permutation(*square, "vertical").tolist() == [2, 3, 0, 1]

    def test_label_permutation_matches_matrices(self, square):
        scene, table = square
        idx, _ = grid_index(scene)
        flipped = {
            "diagonal": idx[::-1, ::-1].T,
            "horizontal": idx[:, ::-1],
            "vertical": idx[::-1, :],
        }
        reflect = {
            "diagonal": lambda x, y: (-y, -x),
            "horizontal": lambda x, y: (x, -y),
            "vertical": lambda x, y: (-x, y),
        }
        for t in TRANSFORMS:
            perm = self.tx_permutation(scene, table, t)
            np.testing.assert_array_equal(perm[idx], flipped[t])
            for tx in range(scene.n_tx):
                x, y, _ = scene.tx_positions[tx]
                np.testing.assert_allclose(
                    scene.tx_positions[perm[tx], :2], reflect[t](x, y), atol=1e-15
                )

    def test_reflections_are_involutions(self, square):
        scene, table = square
        for t in TRANSFORMS:
            perm = layer_permutation(scene, table, t)
            np.testing.assert_array_equal(perm[perm], np.arange(table.n_layers))


class TestAvailableTransforms:
    def test_square_array_has_all_three(self, benchmark_scene, benchmark_table):
        for t in TRANSFORMS:
            perm = layer_permutation(benchmark_scene, benchmark_table, t)
            assert sorted(perm.tolist()) == list(range(benchmark_table.n_layers))

    def test_rectangular_array_lacks_diagonal(self, pair_scene):
        table = build_layer_set(pair_scene, 2)
        with pytest.raises(InvalidParameterError):
            layer_permutation(pair_scene, table, "diagonal")
        for t in ("horizontal", "vertical"):
            layer_permutation(pair_scene, table, t)


class TestLayerPermutation:
    def test_involution(self, benchmark_scene, benchmark_table):
        for t in TRANSFORMS:
            perm = layer_permutation(benchmark_scene, benchmark_table, t)
            np.testing.assert_array_equal(
                perm[perm], np.arange(benchmark_table.n_layers)
            )

    def test_preserves_layer_number(self, benchmark_scene, benchmark_table):
        # A reflection moves transmitters, never layer numbers within one.
        perm = layer_permutation(benchmark_scene, benchmark_table, "vertical")
        np.testing.assert_array_equal(
            benchmark_table.layer_no[perm], benchmark_table.layer_no
        )


class TestBuildMap:
    def test_symmetry_matches_direct_solve(self, pair_scene):
        # Relabeling the wedge reproduces the directly solved cells exactly.
        table = build_layer_set(pair_scene, 2)
        dmap = build_map(pair_scene, table, 0)
        relabeled = wedge_relabeled_orders(pair_scene, table, dmap)
        assert len(relabeled) == len(dmap.cells)
        for order, cell in zip(relabeled, dmap.cells):
            assert order.groups == cell.order.groups
            np.testing.assert_array_equal(order.rates, cell.order.rates)

    def test_mirrored_cells_offer_identical_rates(self, benchmark_map):
        # Reflection leaves the achievable rate multiset unchanged (the
        # decoding sequence itself may relabel tied stages differently).
        dmap = benchmark_map
        nx, ny = dmap.shape
        for ix in range(nx):
            for iy in range(ny):
                cell = dmap.cells[ix * ny + iy]
                mirror = dmap.cells[(nx - 1 - ix) * ny + iy]
                if cell.order.outage:
                    assert mirror.order.outage
                    continue
                np.testing.assert_allclose(
                    np.sort(cell.order.rates),
                    np.sort(mirror.order.rates),
                    rtol=0,
                    atol=1e-12,
                )

    def test_cells_match_direct_recompute(
        self, benchmark_scene, benchmark_table, benchmark_map, pair_scene
    ):
        # Every cell is exactly the direct greedy solve at its position.
        pair_table = build_layer_set(pair_scene, 2)
        for scene, table, dmap in (
            (benchmark_scene, benchmark_table, benchmark_map),
            (pair_scene, pair_table, build_map(pair_scene, pair_table, 0)),
        ):
            for position, cell in zip(dmap.positions(), dmap.cells):
                direct = greedy_order(
                    model_at_position(scene, table, position, dmap.filter_index),
                    tau=dmap.tau,
                )
                assert cell.order.outage == direct.outage
                assert cell.order.groups == direct.groups
                np.testing.assert_array_equal(cell.order.rates, direct.rates)

    def test_cell_lookup(self, benchmark_map):
        i = benchmark_map.index_at(0.0, 0.0)
        assert benchmark_map.cell_at(0.0, 0.0) is benchmark_map.cells[i]
        assert benchmark_map.positions()[i][:2] == (pytest.approx(0.0), pytest.approx(0.0))
        with pytest.raises(ConfigError):
            benchmark_map.cell_at(1e3, 0.0)
        with pytest.raises(ConfigError, match="not finite"):
            benchmark_map.cell_at(np.nan, 0.0)

    def test_cell_lookup_never_snaps(self, benchmark_map):
        assert benchmark_map.positions()[benchmark_map.index_at(0.1 + 1e-10, -1e-10)][:2] == (
            pytest.approx(0.1), pytest.approx(0.0)
        )
        for x, y in [(0.05, 0.04), (0.1 + 1e-6, 0.0), (0.1, 1e-8)]:
            with pytest.raises(ConfigError, match="not a sample of the map"):
                benchmark_map.cell_at(x, y)

    def test_cell_lookup_checks_the_plane_height(self, benchmark_map):
        z = benchmark_map.z
        assert benchmark_map.cell_at(0.1, 0.0, z + 1e-10) is benchmark_map.cell_at(0.1, 0.0)
        for off in (1e-6, -0.5, np.nan, np.inf):
            with pytest.raises(ConfigError, match="the map's plane is at z"):
                benchmark_map.cell_at(0.1, 0.0, z + off)

    def test_edge_cells_are_outage(self, benchmark_map):
        corner = benchmark_map.cells[0]
        center = benchmark_map.cell_at(0.0, 0.0)
        assert corner.order.outage
        assert not center.order.outage


class TestSaveLoad:
    def test_round_trip(self, benchmark_map, tmp_path):
        path = tmp_path / "map.json"
        save_map(benchmark_map, path)
        loaded = load_map(path)
        assert loaded.scene_hash == benchmark_map.scene_hash
        assert loaded.filter_index == benchmark_map.filter_index
        assert loaded.tau == benchmark_map.tau
        assert loaded.cluster_count == benchmark_map.cluster_count
        np.testing.assert_array_equal(loaded.xs, benchmark_map.xs)
        np.testing.assert_array_equal(loaded.ys, benchmark_map.ys)
        assert len(loaded.cells) == len(benchmark_map.cells)
        assert loaded.z == benchmark_map.z
        for a, b in zip(loaded.cells, benchmark_map.cells):
            assert a.cluster == b.cluster
            assert a.order.groups == b.order.groups
            assert a.order.outage == b.order.outage
            if not a.order.outage:
                np.testing.assert_array_equal(a.order.rates, b.order.rates)

    @pytest.mark.parametrize("name", ["benchmark", "tau2"])
    def test_save_load_save_is_byte_identical(self, name, benchmark_scene, benchmark_table,
                                              benchmark_map, tmp_path):
        if name == "benchmark":
            scene, table, dmap = benchmark_scene, benchmark_table, copy.deepcopy(benchmark_map)
        else:
            scene = reference_scene(1, 2, spacing_x=0.6, spacing_y=0.6, sample_gap=0.4)
            table = build_layer_set(scene, 2)
            dmap = build_map(scene, table, 0, tau=2)
        assert reduce_map(dmap, scene, table)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_map(dmap, first)
        save_map(load_map(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.fixture()
    def saved(self, benchmark_map, tmp_path):
        path = tmp_path / "map.json"
        save_map(benchmark_map, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == MAP_VERSION
        return path, payload

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.update(version=MAP_VERSION - 1),
            lambda p: p.pop("n_layers"),
            lambda p: p["cells"][0].pop("cluster"),
            lambda p: p.update(tau="1"),
            lambda p: p.update(tau=0),
            lambda p: p.update(n_layers=0),
            lambda p: p.update(filter_index=-1),
            lambda p: p.update(xs=None),
            lambda p: p.pop("z"),
            lambda p: p.update(z="2.0"),
            lambda p: p.update(cells=p["cells"][:-1]),
            lambda p: next(c for c in p["cells"] if not c["outage"])["groups"].append([0]),
            lambda p: next(c for c in p["cells"] if not c["outage"]).update(groups=[], rates=[]),
        ],
        ids=["old-version", "no-n_layers", "no-cluster", "str-tau", "zero-tau", "zero-n_layers",
             "negative-filter", "null-xs", "no-z", "str-z", "missing-cell", "layer-id-0",
             "lit-no-groups"],
    )
    def test_rejects_malformed_fields(self, saved, edit):
        path, payload = saved
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_map(path)

    def test_cells_take_their_place_from_the_grid(self, saved):
        # Records hold no coordinates: record i is the cell at divmod(i, ys.size).
        path, payload = saved
        assert set(payload["cells"][0]) == {"cluster", "outage"}
        payload["z"] = 1.5
        path.write_text(json.dumps(payload))
        loaded = load_map(path)
        for i, position in enumerate(loaded.positions()):
            ix, iy = divmod(i, loaded.ys.size)
            assert position == (loaded.xs[ix], loaded.ys[iy], 1.5)
        assert len(loaded.positions()) == len(loaded.cells)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_map(path)


class TestFingerprint:
    def test_deterministic(self, benchmark_scene):
        assert scene_fingerprint(benchmark_scene) == scene_fingerprint(
            reference_scene()
        )

    def test_sensitive_to_geometry(self, benchmark_scene):
        other = grid_scene(4, 4, spacing_x=0.25)
        assert scene_fingerprint(benchmark_scene) != scene_fingerprint(other)


def distance_rows(scene, table, dmap, idx):
    """``_distance_matrix`` over the map cells ``idx``, one row per cell, and the cells' models."""
    positions = dmap.positions()
    models = [model_at_position(scene, table, positions[i], dmap.filter_index) for i in idx]
    gains = np.stack([m.gains for m in models])
    orders = [dmap.cells[i].order for i in idx]
    order_id, sequences = _order_ids(orders)
    return _distance_matrix(sequences, orders, gains, table, scene.sigma**2)[order_id], models


class TestNormalizedDistance:
    def test_self_distance_zero(self, benchmark_scene, benchmark_table, benchmark_map):
        i = benchmark_map.index_at(0.3, 0.1)
        cell = benchmark_map.cells[i]
        dist, (model,) = distance_rows(benchmark_scene, benchmark_table, benchmark_map, [i])
        assert dist[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert normalized_distance(cell.order, cell.order, model) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_symmetric_cells_have_tiny_cross_distance(
        self, benchmark_scene, benchmark_table, benchmark_map
    ):
        idx = [benchmark_map.index_at(0.3, 0.1), benchmark_map.index_at(-0.3, 0.1)]
        a, b = (benchmark_map.cells[i] for i in idx)
        dist, (_, model_b) = distance_rows(benchmark_scene, benchmark_table, benchmark_map, idx)
        d = dist[0, 1]
        assert 0.0 <= d  # well defined between non-outage cells
        assert d == pytest.approx(normalized_distance(a.order, b.order, model_b), rel=1e-12)


class TestReduceMap:
    def test_pair_scene_clusters(self, pair_scene):
        table = build_layer_set(pair_scene, 2)
        dmap = build_map(pair_scene, table, 0)
        clusters = reduce_map(dmap, pair_scene, table)
        # Partition of the non-outage cells.
        active = [i for i, c in enumerate(dmap.cells) if not c.order.outage]
        flat = sorted(i for cl in clusters for i in cl)
        assert flat == sorted(active)
        assert dmap.cluster_count == len(clusters)
        assert dmap.compression_ratio > 0.9
        # Cluster labels written back onto the cells.
        for label, members in enumerate(clusters):
            for i in members:
                assert dmap.cells[i].cluster == label

    def test_loss_bounded_by_threshold(self, pair_scene):
        table = build_layer_set(pair_scene, 2)
        dmap = build_map(pair_scene, table, 0)
        clusters = reduce_map(dmap, pair_scene, table)

        models = {}
        positions = dmap.positions()

        def dist(i, j):
            if j not in models:
                models[j] = model_at_position(
                    pair_scene, table, positions[j], dmap.filter_index
                )
            return normalized_distance(dmap.cells[i].order, dmap.cells[j].order, models[j])

        assert max_average_loss(clusters, dist) <= TAU_LOSS + 1e-12

    def test_peel_ends_when_no_head_is_within_tau_loss_of_itself(self):
        # Stored orders that disagree with the scene (a hand-edited map
        # file) can put every self-distance above TAU_LOSS; each head then
        # peels alone instead of an empty category repeating forever.
        dist = np.full((1, 3), 2 * TAU_LOSS)
        order_id = np.zeros(3, dtype=int)
        stalls = []
        assert peel_reference(dist, order_id, stalls) == [[0], [1], [2]]
        assert _peel_categories(dist, order_id) == [[0], [1], [2]]
        assert stalls == [3, 2]

    def test_peel_ends_on_infinite_averages(self):
        # Cell 2 has distance inf from every order: the heads' averages are
        # inf, and equal infinite averages tie.
        dist = np.array([[0.0, 0.5, np.inf], [0.5, 0.0, np.inf]])
        assert _peel_categories(dist, np.array([0, 1, 0])) == [[0], [1], [2]]

    def test_map_reduce_ends_on_a_cell_with_zero_rates(self, tmp_path):
        # A lit cell whose own rates are all zero, where another order gives
        # it a positive rate, is infinitely far from that order.  A hang
        # fails through the timeout rather than stalling the suite.
        scene = tmp_path / "scene.yaml"
        scene.write_text(SMALL_SCENE_YAML)
        res = CliRunner().invoke(main, [
            "map", "build", "--scene", str(scene), "--no-reduce", "--out", str(tmp_path / "m"),
        ])
        assert res.exit_code == 0, res.output
        path = tmp_path / "m" / "map.json"
        payload = json.loads(path.read_text())
        lit = [c for c in payload["cells"] if not c["outage"]]
        lit[0]["rates"] = [0.0] * len(lit[0]["rates"])
        path.write_text(json.dumps(payload))
        env = {**os.environ, "PYTHONPATH": str(Path(vlcmap.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "vlcmap.cli", "map", "reduce", "--scene", str(scene),
             "--map", str(path)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["cluster_count"] >= 1
        assert all(c["cluster"] >= 0 for c in json.loads(path.read_text())["cells"]
                   if not c["outage"])

    def test_gains_come_from_the_map_samples(self, pair_scene):
        # A scene that differs only in its plane height has the map's
        # fingerprint; the map's own sample positions still decide the gains.
        table = build_layer_set(pair_scene, 2)
        dmap = build_map(pair_scene, table, 0)
        reduce_map(dmap, pair_scene, table)
        labels = [c.cluster for c in dmap.cells]
        lowered = replace(
            reference_scene(1, 2, spacing_x=0.6, spacing_y=0.6, plane_height=1.5),
            sigma=pair_scene.sigma,
        )
        assert scene_fingerprint(lowered) == dmap.scene_hash
        reduce_map(dmap, lowered, table)
        assert [c.cluster for c in dmap.cells] == labels


SMALL_SCENE_YAML = """\
transmitters:
  grid: {rows: 1, cols: 2, spacing: 0.6}
  colors_per_position: [0, 1, 2, 3]
  layers_per_transmitter: 2
optics: {lambertian_order: 1.0, pd_area: 1.0e-4, refractive_index: 1.5, fov_deg: 30.0}
plane: {height: 2.0, margin: 1.0, sample_gap: 0.4}
"""


class TestGroupDecodingMap:
    """Map build and size reduction at group size bound 2 equal the scalar oracles."""

    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tau2")
        (out / "scene.yaml").write_text(SMALL_SCENE_YAML)
        res = CliRunner().invoke(main, [
            "map", "build", "--scene", str(out / "scene.yaml"), "--tau", "2",
            "--out", str(out / "map"),
        ])
        assert res.exit_code == 0, res.output
        scene = reference_scene(1, 2, spacing_x=0.6, spacing_y=0.6, sample_gap=0.4)
        dmap = load_map(out / "map" / "map.json")
        assert dmap.scene_hash == scene_fingerprint(scene) and dmap.tau == 2
        return scene, build_layer_set(scene, 2), dmap

    def test_cells_equal_the_scalar_greedy(self, built):
        scene, table, dmap = built
        grouped = 0
        for position, cell in zip(dmap.positions(), dmap.cells):
            model = model_at_position(scene, table, position, dmap.filter_index)
            groups, rates = greedy_groups(model, 2)
            assert cell.order.groups == groups
            if groups:
                np.testing.assert_allclose(cell.order.rates, rates, rtol=1e-12, atol=1e-15)
            grouped += any(len(g) == 2 for g in groups)
        assert grouped > 0

    def test_clusters_equal_those_of_the_oracle_distance(self, built):
        scene, table, dmap = built
        lit = [i for i, c in enumerate(dmap.cells) if not c.order.outage]
        active = [dmap.cells[i] for i in lit]
        dist, models = distance_rows(scene, table, dmap, lit)
        oracle = np.array([
            [normalized_distance(a.order, b.order, m) for b, m in zip(active, models)]
            for a in active
        ])
        # Distances are normalized; a self-distance is 0 or a few ulps.
        np.testing.assert_allclose(dist, oracle, rtol=1e-12, atol=1e-13)
        clusters = peel_reference(oracle, np.arange(len(active)))
        assert len(clusters) == dmap.cluster_count > 1
        labels = np.empty(len(active), dtype=int)
        for label, members in enumerate(clusters):
            labels[members] = label
        assert labels.tolist() == [c.cluster for c in active]

    def test_random_distance_rows(self, rng):
        # Destinations with random gains over one random layer set.
        base = random_model(rng, n_layers=6)
        table = SimpleNamespace(n_layers=6, nu=np.sqrt(base.nu2), var=base.var, phi=base.phi)
        gains = rng.uniform(0.0, 1e-4, (8, 6))
        gains[gains < 2e-5] = 0.0
        models = [RateModel(g, base.nu2, base.var, base.phi, base.noise_var) for g in gains]
        orders = [greedy_order(m, tau=2) for m in models]
        keep = [r for r, o in enumerate(orders) if not o.outage]
        assert sum(len(g) == 2 for r in keep for g in orders[r].groups) > 0
        kept = [orders[r] for r in keep]
        order_id, sequences = _order_ids(kept)
        dist = _distance_matrix(sequences, kept, gains[keep], table, base.noise_var)[order_id]
        for a, i in enumerate(keep):
            for b, j in enumerate(keep):
                want = normalized_distance(orders[i], orders[j], models[j])
                assert dist[a, b] == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestDistinctOrderDistance:
    """The size reduction's matrix of one row per distinct decoding order.

    Expanded by order id it must equal the per-cell reference matrix bit
    for bit, and the peel must give the same clusters on either.  The tau 2
    map is the ``SMALL_SCENE_YAML`` scene's, where some stages are grouped.
    """

    # (distinct orders, active cells) of each map.
    SHAPES = {"benchmark_scene": (501, 681), "corner_scene": (28, 681),
              "pair_scene": (4, 519), "tau2": (4, 38)}

    @pytest.fixture(scope="class", params=list(SHAPES))
    def reduced(self, request):
        if request.param == "tau2":
            scene = reference_scene(1, 2, spacing_x=0.6, spacing_y=0.6, sample_gap=0.4)
            tau = 2
        else:
            scene, tau = request.getfixturevalue(request.param), 1
        table = build_layer_set(scene, 2)
        dmap = build_map(scene, table, 0, tau=tau)
        members = [i for i, c in enumerate(dmap.cells) if not c.order.outage]
        orders = [dmap.cells[i].order for i in members]
        positions = dmap.positions()
        gains = np.stack([
            gain_vector(scene, positions[i], dmap.filter_index)[table.tx] for i in members
        ])
        clusters = reduce_map(dmap, scene, table)
        order_id, sequences = _order_ids(orders)
        dist = _distance_matrix(sequences, orders, gains, table, scene.sigma**2)
        oracle = cell_distance_matrix(orders, gains, table, scene.sigma**2)
        return SimpleNamespace(name=request.param, scene=scene, dmap=dmap, members=members,
                               orders=orders, gains=gains, table=table, clusters=clusters,
                               order_id=order_id, sequences=sequences, dist=dist,
                               oracle=oracle)

    def test_expanded_rows_equal_the_per_cell_matrix(self, reduced):
        r = reduced
        assert r.dist.shape == self.SHAPES[r.name]
        assert np.array_equal(r.dist[r.order_id], r.oracle)
        grouped = any(len(g) == 2 for groups in r.sequences for g in groups)
        assert grouped == (r.name == "tau2")

    def test_clusters_equal_the_peel_of_the_per_cell_matrix(self, reduced):
        r = reduced
        want = peel_reference(r.oracle, np.arange(len(r.orders)))
        assert r.clusters == [[r.members[i] for i in cat] for cat in want]
        assert r.dmap.cluster_count == len(want) > 1

    def test_peel_equals_the_reference(self, reduced):
        r = reduced
        assert _peel_categories(r.dist, r.order_id) == peel_reference(r.dist, r.order_id)


# Distances a few orders take at many cells: a coarse grid of values, with
# TAU_LOSS itself among them, so averages tie exactly and the stall fallback
# runs.
QUANTIZED = [0.0, TAU_LOSS / 2, TAU_LOSS, 2 * TAU_LOSS, 0.5, 1.0]


@st.composite
def few_orders_many_cells(draw):
    n_orders = draw(st.integers(1, 4))
    n_cells = draw(st.integers(1, 60))
    dist = draw(hnp.arrays(np.float64, (n_orders, n_cells), elements=st.sampled_from(QUANTIZED)))
    order_id = draw(hnp.arrays(np.intp, n_cells, elements=st.integers(0, n_orders - 1)))
    return dist, order_id


class TestPeel:
    """The peel of one row per distinct order equals the per-cell reference."""

    @settings(max_examples=300)
    @given(few_orders_many_cells())
    def test_equals_the_reference_on_quantized_distances(self, case):
        dist, order_id = case
        stalls = []
        want = peel_reference(dist, order_id, stalls)
        event("stall fallback runs" if stalls else "no stall fallback")
        assert _peel_categories(dist, order_id) == want

    def test_working_set_is_orders_by_cells(self):
        # 16 orders over 3000 cells: the per-cell gather alone is 72 MB, the
        # per-order one 384 kB.
        rng = np.random.default_rng(7)
        dist = rng.choice([0.0, TAU_LOSS / 2, 0.5], size=(16, 3000))
        order_id = rng.integers(0, 16, 3000)
        tracemalloc.start()
        try:
            cats = _peel_categories(dist, order_id)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(c for cat in cats for c in cat) == list(range(3000))
        assert peak < 8 * 2**20
