import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcmap.errors import InvalidParameterError
from vlcmap.rates import (
    RateModel,
    _candidate_sets,
    _candidates,
    _set_margins,
    _set_rates,
    achievable_rate,
    model_at_position,
    models_at,
    subsets_in_bitmask_order,
)

from oracles import covariance_rate, gaussian_surrogate, naive_rate, set_margin


def random_model(rng, n_layers=6, noise_var=1e-10):
    """Random plausible position model from benchmark-scale quantities."""
    nu = rng.uniform(0.02, 0.15, n_layers)
    mu = 3.0 * nu
    peak = rng.uniform(2.0, 8.0, n_layers) * nu
    from vlcmap.signaling import tg_moments

    params = [tg_moments(m, s, a) for m, s, a in zip(mu, nu, peak)]
    return RateModel(
        gains=rng.uniform(0.0, 1e-4, n_layers),
        nu2=nu**2,
        var=np.array([p.var for p in params]),
        phi=np.array([p.phi for p in params]),
        noise_var=noise_var,
    )


class TestAchievableRate:
    def test_matches_covariance_oracle(self, rng):
        for _ in range(50):
            model = random_model(rng)
            sig = sorted(rng.choice(6, size=3, replace=False).tolist())
            noi = [k for k in range(6) if k not in sig][:2]
            fast = achievable_rate(model, sig, noi, clamp=False)
            slow = covariance_rate(model, sig, noi)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-12)

    def test_matches_naive_loops(self, rng):
        for _ in range(50):
            model = random_model(rng)
            sig = sorted(rng.choice(6, size=2, replace=False).tolist())
            noi = [k for k in range(6) if k not in sig]
            assert achievable_rate(model, sig, noi) == pytest.approx(
                naive_rate(model, sig, noi), rel=1e-9, abs=1e-12
            )

    def test_signal_order_is_canonical(self, rng):
        model = random_model(rng)
        assert achievable_rate(model, [3, 0, 5]) == achievable_rate(model, [0, 3, 5])

    def test_clamped_at_zero(self, rng):
        model = random_model(rng, noise_var=1.0)  # absurdly noisy
        sig = [0]
        assert achievable_rate(model, sig) == 0.0
        assert achievable_rate(model, sig, clamp=False) < 0.0

    def test_noise_monotone(self, rng):
        for _ in range(20):
            model = random_model(rng)
            less = achievable_rate(model, [0, 1], [2], clamp=False)
            more = achievable_rate(model, [0, 1], [2, 3], clamp=False)
            assert more <= less + 1e-12

    def test_rejects_bad_sets(self, rng):
        model = random_model(rng)
        with pytest.raises(InvalidParameterError):
            achievable_rate(model, [])
        with pytest.raises(InvalidParameterError):
            achievable_rate(model, [0, 1], [1, 2])

    def test_zero_gain_layer_contributes_nothing_as_noise(self, rng):
        model = random_model(rng)
        model.gains[4] = 0.0
        with_it = achievable_rate(model, [0, 1], [4], clamp=False)
        without = achievable_rate(model, [0, 1], [], clamp=False)
        assert with_it == pytest.approx(without, rel=1e-15)


def single_layer_rate(model, k, stage_noise):
    """Closed-form rate of layer k alone over AWGN of variance ``stage_noise``."""
    cond = model.var[k] - model.power[k] * model.var[k] / (model.power[k] + stage_noise)
    return (0.5 * (np.log(model.nu2[k]) - np.log(cond)) - model.phi[k]) / np.log(2.0)


class TestStageNoise:
    """A stage's noise is sigma^2 plus the power of the undecoded noise layers."""

    def test_empty_set_is_plain_awgn(self, rng):
        model = random_model(rng)
        expected = single_layer_rate(model, 0, model.noise_var)
        assert achievable_rate(model, [0], [], clamp=False) == pytest.approx(
            expected, rel=1e-12
        )

    def test_adds_received_power(self, rng):
        model = random_model(rng)
        stage_noise = model.noise_var + float(np.sum(model.power[[1, 3]]))
        expected = single_layer_rate(model, 0, stage_noise)
        assert achievable_rate(model, [0], [1, 3], clamp=False) == pytest.approx(
            expected, rel=1e-12
        )


class TestSubsetOrder:
    def test_bitmask_order(self):
        subs = subsets_in_bitmask_order([0, 1, 2], 2)
        assert subs == [(0,), (1,), (0, 1), (2,), (0, 2), (1, 2)]

    def test_order_stable_under_removed_members(self):
        # The relative order of surviving subsets must not change when a
        # member disappears from the universe.
        full = subsets_in_bitmask_order([0, 1, 2, 3], 2)
        reduced = subsets_in_bitmask_order([0, 2, 3], 2)
        survivors = [s for s in full if 1 not in s]
        assert survivors == reduced

    def test_max_size_limits(self):
        assert all(len(s) == 1 for s in subsets_in_bitmask_order([4, 7, 9], 1))


def margins_of(model, universe, tau, noise, rates):
    """Every candidate set of ``universe`` and its margin, by ``_set_margins``."""
    cands = _candidate_sets(model, universe, tau)
    alloc = np.append(rates, 0.0)[cands.sets].sum(axis=1)
    base = model.noise_var + float(model.power[list(noise)].sum())
    return cands.subs, _set_margins(cands, alloc, base)


def rate_margin(model, signal, noise, rates):
    """Margin of one signal set: its row among the candidates of itself."""
    subs, margins = margins_of(model, signal, len(signal), noise, rates)
    return float(margins[subs.index(tuple(sorted(signal)))])


class TestSetRates:
    """``_set_rates`` scores many candidate sets in one pass."""

    def test_matches_achievable_rate(self, rng):
        for tau in (1, 2, 3):
            model = random_model(rng)
            noise = [int(k) for k in rng.choice(6, size=2, replace=False)]
            universe = [k for k in range(6) if k not in noise]
            cands = _candidate_sets(model, universe, tau)
            base = model.noise_var + float(model.power[noise].sum())
            got = _set_rates(*cands.ops, base)
            for sub, rate in zip(cands.subs, got):
                assert rate == pytest.approx(
                    achievable_rate(model, sub, noise, clamp=False), rel=1e-12, abs=1e-15
                )
                assert rate == pytest.approx(
                    naive_rate(model, sub, noise, clamp=False), rel=1e-12, abs=1e-15
                )

    def test_singletons_are_the_stage_rate(self, rng):
        model = random_model(rng)
        cands = _candidate_sets(model, range(6), 1)
        assert cands.sets.shape == (6, 1) and cands.subsets is None
        stage = [achievable_rate(model, [k], [], clamp=False) for k in range(6)]
        np.testing.assert_allclose(_set_rates(*cands.ops, model.noise_var), stage, rtol=1e-12)

    def test_per_receiver_power_and_base(self, rng):
        # A leading receiver axis on the power and the base: one row each.
        model = random_model(rng)
        gains = rng.uniform(0.0, 1e-4, (3, 6))
        subs = subsets_in_bitmask_order(range(6), 2)
        cands = _candidates(subs, np.log(model.nu2), model.var, model.phi, gains**2 * model.var)
        base = model.noise_var + np.array([[0.0], [1e-10], [2e-10]])
        got = _set_rates(*cands.ops, np.broadcast_to(base, (3, len(subs))))
        for r in range(3):
            m = RateModel(gains[r], model.nu2, model.var, model.phi, float(base[r, 0]))
            want = [achievable_rate(m, sub, clamp=False) for sub in subs]
            np.testing.assert_allclose(got[r], want, rtol=1e-12)


class TestRateMargin:
    def test_zero_rates_give_per_layer_average(self, rng):
        model = random_model(rng)
        rates = np.zeros(6)
        margin = rate_margin(model, [0, 1], [2], rates)
        best = min(
            achievable_rate(model, s, [2]) / len(s)
            for s in [(0,), (1,), (0, 1)]
        )
        assert margin == pytest.approx(best)

    def test_margin_decreases_with_allocated_rates(self, rng):
        model = random_model(rng)
        zero = rate_margin(model, [0, 1], [], np.zeros(6))
        loaded = rate_margin(model, [0, 1], [], np.full(6, 0.1))
        assert loaded < zero

    def test_infinite_rate_makes_margin_infeasible(self, rng):
        model = random_model(rng)
        rates = np.zeros(6)
        rates[1] = np.inf
        assert rate_margin(model, [0, 1], [], rates) == -np.inf

    def test_every_candidate_matches_the_oracle(self, rng):
        for tau in (1, 2, 3):
            model = random_model(rng)
            rates = rng.uniform(0.0, 0.3, 6)
            noise = [int(rng.integers(6))]
            universe = [k for k in range(6) if k not in noise]
            subs, margins = margins_of(model, universe, tau, noise, rates)
            for sub, margin in zip(subs, margins):
                assert margin == pytest.approx(
                    set_margin(model, sub, noise, rates), rel=1e-12, abs=1e-15
                )


class TestModelBuilders:
    def test_models_at_equals_model_at_position(self, benchmark_scene, benchmark_table):
        z = benchmark_scene.plane.height
        positions = [(0.1, -0.2, z), (-0.45, 0.3, z), (0.0, 0.0, z + 0.1), (1.4, 1.4, z)]
        models = list(models_at(benchmark_scene, benchmark_table, positions, 0))
        assert len(models) == len(positions)
        for pos, model in zip(positions, models):
            one = model_at_position(benchmark_scene, benchmark_table, pos, 0)
            for name in ("gains", "nu2", "var", "phi", "tiebreak"):
                np.testing.assert_array_equal(getattr(model, name), getattr(one, name))
            assert model.noise_var == one.noise_var
            # Both layers of each transmitter carry its gain.
            tx_gains = model.gains.reshape(benchmark_scene.n_tx, 2)
            np.testing.assert_array_equal(tx_gains[:, 0], tx_gains[:, 1])
            assert model.n_layers == benchmark_table.n_layers == 2 * benchmark_scene.n_tx
        assert not np.array_equal(models[0].gains, models[1].gains)

    def test_models_share_the_tables_read_only_arrays(self, benchmark_scene, benchmark_table):
        z = benchmark_scene.plane.height
        a, b = models_at(benchmark_scene, benchmark_table, [(0.1, 0.0, z), (0.0, 0.1, z)], 0)
        assert a.var is b.var is benchmark_table.var
        assert a.phi is b.phi is benchmark_table.phi
        assert a.tiebreak is b.tiebreak is benchmark_table.tiebreak
        assert a.nu2 is b.nu2
        np.testing.assert_array_equal(a.nu2, benchmark_table.nu**2)
        for model in (a, b):
            for name in ("gains", "nu2", "var", "phi", "tiebreak"):
                assert not getattr(model, name).flags.writeable, name

    def test_model_at_position_consistent(self, benchmark_scene, benchmark_table):
        pos = np.array([0.1, -0.2, benchmark_scene.plane.height])
        model = model_at_position(benchmark_scene, benchmark_table, pos, 0)
        from vlcmap.channel import gain_vector

        expected = gain_vector(benchmark_scene, pos, 0)[benchmark_table.tx]
        np.testing.assert_array_equal(model.gains, expected)
        assert model.noise_var == pytest.approx(benchmark_scene.sigma**2)

    def test_gaussian_surrogate_upper_bounds_rate(self, rng):
        # Exact-Gaussian inputs with the same variances can only do better.
        for _ in range(20):
            model = random_model(rng)
            tg = achievable_rate(model, [0, 1, 2], [3], clamp=False)
            gauss = achievable_rate(
                gaussian_surrogate(model), [0, 1, 2], [3], clamp=False
            )
            assert tg <= gauss + 1e-12
