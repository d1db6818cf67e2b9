from dataclasses import replace

import numpy as np
import pytest

from vlcmap.cpgd import detectable_layers, greedy_order, outage_order
from vlcmap.decmap import _group_rates
from vlcmap.rates import RateModel, achievable_rate, model_at_position
from vlcmap.sceneio import reference_scene
from vlcmap.signaling import build_layer_set

from oracles import best_min_rate, greedy_groups, ordered_partitions, rates_for_order
from test_rates import random_model


def fixed_order_rates(model, groups):
    """Per-layer rates of an imposed order, by the size reduction's ``_group_rates``.

    NaN on layers the order leaves out.
    """
    seq = [k for g in groups for k in g]
    p = model.power[None, seq]
    later = np.append(np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:], 0.0)[None, :]
    vals = _group_rates(
        groups, model.power[None, :], later + model.noise_var,
        np.log(model.nu2), model.var, model.phi,
    )
    out = np.full(model.n_layers, np.nan)
    out[seq] = vals[0]
    return out


class TestDetectable:
    def test_zero_gains_excluded(self, rng):
        model = random_model(rng)
        model.gains[[1, 4]] = 0.0
        assert detectable_layers(model) == (0, 2, 3, 5)

    def test_all_zero_is_empty(self, rng):
        model = random_model(rng)
        model.gains[:] = 0.0
        assert detectable_layers(model) == ()


class TestOutage:
    def test_outage_order_shape(self):
        order = outage_order(5)
        assert order.outage
        assert order.groups == []
        assert np.all(np.isnan(order.rates))
        assert order.rates.size == 5


class TestGreedyOrder:
    def test_singleton_order_partitions_detectable(self, rng):
        model = random_model(rng)
        model.gains[2] = 0.0
        order = greedy_order(model, tau=1)
        flat = [k for g in order.groups for k in g]
        assert sorted(flat) == [0, 1, 3, 4, 5]
        assert all(len(g) == 1 for g in order.groups)

    def test_recorded_rates_match_fixed_order_recompute(self, rng):
        for tau in (1, 2):
            model = random_model(rng)
            order = greedy_order(model, tau=tau)
            recomputed = rates_for_order(model, order.groups)
            for k, rate in recomputed.items():
                assert order.rates[k] == pytest.approx(rate, rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(
                order.rates, fixed_order_rates(model, order.groups), rtol=1e-12, atol=1e-15
            )

    def test_matches_exhaustive_max_min(self, rng):
        for tau in (1, 2):
            for _ in range(25):
                model = random_model(rng, n_layers=4)
                order = greedy_order(model, tau=tau)
                greedy_min = min(
                    order.rates[k] for g in order.groups for k in g
                )
                brute = best_min_rate(model, range(4), tau)
                assert greedy_min == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_oracle_rates_agree(self, rng):
        model = random_model(rng, n_layers=5)
        order = greedy_order(model, tau=2)
        slow = rates_for_order(model, order.groups)
        for k, v in slow.items():
            assert order.rates[k] == pytest.approx(v, rel=1e-12, abs=1e-15)

    def test_permutation_equivariance(self, rng):
        # Relabeling the layers must relabel the order, not change it.
        for _ in range(10):
            model = random_model(rng, n_layers=5)
            perm = rng.permutation(5)
            permuted = RateModel(
                gains=model.gains[perm],
                nu2=model.nu2[perm],
                var=model.var[perm],
                phi=model.phi[perm],
                noise_var=model.noise_var,
            )
            a = greedy_order(model, tau=1)
            b = greedy_order(permuted, tau=1)
            # Permuted layer j carries original layer perm[j].
            relabeled = [tuple(sorted(int(perm[k]) for k in g)) for g in b.groups]
            assert relabeled == [tuple(g) for g in a.groups]
            np.testing.assert_allclose(b.rates, a.rates[perm], rtol=1e-12)

    def test_no_detectable_layer_gives_outage(self, rng):
        model = random_model(rng)
        model.gains[:] = 0.0
        order = greedy_order(model, tau=1)
        assert order.outage

    def test_later_stages_see_less_interference(self, rng):
        # The first extracted set's rate is computed with everything else as
        # noise; verify against a direct call.
        model = random_model(rng)
        order = greedy_order(model, tau=1)
        first = order.groups[0]
        rest = [k for g in order.groups[1:] for k in g]
        direct = achievable_rate(model, first, rest)
        assert order.rates[first[0]] == pytest.approx(direct, rel=1e-12)


class TestFixedOrderRates:
    def test_group_members_share_rate(self, rng):
        model = random_model(rng, n_layers=4)
        groups = [(0, 2), (1, 3)]
        rates = fixed_order_rates(model, groups)
        assert rates[0] == rates[2]
        assert rates[1] == rates[3]
        for k, rate in rates_for_order(model, groups).items():
            assert rates[k] == pytest.approx(rate, rel=1e-12, abs=1e-15)

    def test_unlisted_layers_get_zero(self, rng):
        model = random_model(rng, n_layers=5)
        rates = fixed_order_rates(model, [(0,), (3,)])
        assert np.all(np.isnan(rates[[1, 2, 4]]))
        assert np.all(np.isfinite(rates[[0, 3]]))


class TestGroupOrders:
    """Group decoding (tau >= 2) equals the scalar greedy oracle."""

    def test_random_models(self, rng):
        for tau in (2, 3):
            for _ in range(10):
                model = random_model(rng, n_layers=6)
                order = greedy_order(model, tau=tau)
                groups, rates = greedy_groups(model, tau)
                assert order.groups == groups
                np.testing.assert_allclose(order.rates, rates, rtol=1e-12, atol=1e-15)

    def test_scene_cells_with_exact_ties(self):
        # Positions on the array's mirror lines see exactly tied candidate
        # sets; both implementations resolve them by the same keys.
        scene = reference_scene(4, 4, colors_per_position=(0,))
        table = build_layer_set(scene, 1)
        z = scene.plane.height
        by_keys = 0
        for x, y in [(0.0, 0.0), (0.1, 0.1), (0.2, 0.2), (-0.1, -0.1), (0.1, -0.1), (0.2, 0.0)]:
            model = model_at_position(scene, table, (x, y, z), 0)
            order = greedy_order(model, tau=2)
            groups, rates = greedy_groups(model, 2)
            assert order.groups == groups
            np.testing.assert_allclose(order.rates, rates, rtol=1e-12, atol=1e-15)
            by_keys += order.groups != greedy_order(replace(model, tiebreak=None), tau=2).groups
        assert by_keys > 0


class TestPartitionOracle:
    """Self-checks of the brute-force enumerator the tests above rely on."""

    @pytest.mark.parametrize(
        "n,tau,count", [(3, 1, 6), (3, 2, 12), (4, 2, 66), (5, 2, 450)]
    )
    def test_counts(self, n, tau, count):
        parts = list(ordered_partitions(range(n), tau))
        assert len(parts) == count
        seen = {tuple(map(tuple, p)) for p in parts}
        assert len(seen) == count  # no duplicates
        for p in parts:
            assert sorted(k for g in p for k in g) == list(range(n))
            assert all(1 <= len(g) <= tau for g in p)
