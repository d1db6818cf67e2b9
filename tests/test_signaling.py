from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from vlcmap.errors import CalibrationError, InvalidParameterError
from vlcmap.signaling import build_layer_set, calibrate_layer, tg_moments

from oracles import layer_id, layer_permutation, tg_quadrature


class TestTGMoments:
    @pytest.mark.parametrize(
        "mu,nu,peak",
        [
            (0.25, 1.0 / 12.0, 0.5),  # the benchmark operating point
            (0.1, 0.5, 1.0),          # heavy truncation on both sides
            (0.9, 0.05, 1.0),         # mass near the upper edge
            (-0.2, 0.3, 0.7),         # mean outside the support
        ],
    )
    def test_matches_quadrature(self, mu, nu, peak):
        p = tg_moments(mu, nu, peak)
        rho, mean, var, phi = tg_quadrature(mu, nu, peak)
        assert p.rho == pytest.approx(rho, rel=1e-9)
        assert p.mean == pytest.approx(mean, rel=1e-9)
        assert p.var == pytest.approx(var, rel=1e-9)
        assert p.phi == pytest.approx(phi, rel=1e-9, abs=1e-12)

    @given(
        mu=st.floats(-1.0, 2.0),
        nu=st.floats(0.01, 1.0),
        peak=st.floats(0.05, 2.0),
    )
    def test_moment_bounds(self, mu, nu, peak):
        # Skip parameter sets whose support carries no probability mass.
        assume(-mu / nu < 8.0 and (peak - mu) / nu > -8.0)
        p = tg_moments(mu, nu, peak)
        assert 0.0 < p.mean < peak
        assert 0.0 < p.var <= nu**2
        assert p.rho >= 1.0 - 1e-12
        # Truncation can only lose entropy relative to the full Gaussian.
        assert p.phi >= -1e-12

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            tg_moments(0.1, 0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            tg_moments(0.1, 0.2, 0.0)


class TestCalibration:
    def test_benchmark_point(self):
        p = calibrate_layer(1.0, 0.5, 2)
        # Per-layer peak is peak/L; the mean binds at min(avg/L, peak/2L).
        assert p.peak == pytest.approx(0.5)
        assert p.mean == pytest.approx(0.25, abs=1e-9)
        assert p.nu == pytest.approx(1.0 / 12.0, abs=1e-9)
        assert p.mu == pytest.approx(3.0 * p.nu, rel=1e-12)

    def test_average_constraint_binds_when_tighter(self):
        # avg/L = 0.1 is tighter than peak/(2L) = 0.25.
        p = calibrate_layer(1.0, 0.2, 2)
        assert p.mean == pytest.approx(0.1, abs=1e-9)

    @given(
        peak=st.floats(0.2, 4.0),
        avg_frac=st.floats(0.05, 0.5),
        n_layers=st.integers(1, 4),
    )
    def test_target_mean_always_met(self, peak, avg_frac, n_layers):
        avg = avg_frac * peak
        p = calibrate_layer(peak, avg, n_layers)
        cap = min(avg / n_layers, peak / (2.0 * n_layers))
        assert p.mean == pytest.approx(cap, abs=1e-8)
        assert p.peak == pytest.approx(peak / n_layers)

    def test_invalid_parameters(self):
        with pytest.raises((CalibrationError, InvalidParameterError)):
            calibrate_layer(0.0, 0.5, 2)
        with pytest.raises((CalibrationError, InvalidParameterError)):
            calibrate_layer(1.0, 0.5, 0)


class TestLayerTable:
    def test_shapes_and_indexing(self, benchmark_scene, benchmark_table):
        t = benchmark_table
        assert t.n_layers == 2 * benchmark_scene.n_tx
        assert layer_id(t, 0, 0) == 0
        assert layer_id(t, 0, 1) == 1
        assert layer_id(t, 3, 1) == 7
        assert t.pair(0) == (1, 1)
        assert t.pair(7) == (4, 2)

    def test_mixed_powers_calibrate_per_transmitter(self, corner_scene):
        # Two distinct (peak, avg) pairs, interleaved over the transmitters.
        first = np.arange(corner_scene.n_tx) % 3 == 0
        scene = replace(
            corner_scene,
            peak_power=np.where(first, 1.0, 2.0),
            avg_power=np.where(first, 0.5, 0.3),
        )
        table = build_layer_set(scene, 3)
        assert table.layers_per_tx == 3 and table.n_layers == 3 * scene.n_tx
        for tx in range(scene.n_tx):
            want = calibrate_layer(scene.peak_power[tx], scene.avg_power[tx], 3)
            rows = np.flatnonzero(table.tx == tx)
            np.testing.assert_array_equal(rows, [layer_id(table, tx, b) for b in range(3)])
            np.testing.assert_array_equal(table.layer_no[rows], [0, 1, 2])
            for name in ("peak", "mu", "nu", "mean", "var", "phi"):
                np.testing.assert_array_equal(getattr(table, name)[rows], getattr(want, name))
        assert np.unique(table.phi).size == 2

    def test_arrays_are_read_only(self, benchmark_table):
        for name in ("tx", "layer_no", "peak", "mu", "nu", "mean", "var", "phi", "tiebreak"):
            assert not getattr(benchmark_table, name).flags.writeable, name

    def test_uniform_layers_share_parameters(self, benchmark_table):
        t = benchmark_table
        for arr in (t.peak, t.mu, t.nu, t.mean, t.var, t.phi):
            assert np.ptp(arr) == 0.0

    def test_tiebreak_keys_survive_axis_reflections(self, benchmark_scene, benchmark_table):
        # Rate models share the keys, so the table must not let them change.
        keys = benchmark_table.tiebreak
        assert keys.shape == (benchmark_table.n_layers, 2) and not keys.flags.writeable
        for transform in ("horizontal", "vertical"):
            perm = layer_permutation(benchmark_scene, benchmark_table, transform)
            np.testing.assert_array_equal(keys[perm], keys)

    def test_csv_round_numbers(self, benchmark_table, tmp_path):
        path = tmp_path / "layers.csv"
        benchmark_table.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("lin,tx,layer")
        assert len(lines) == 1 + benchmark_table.n_layers
        first = lines[1].split(",")
        assert first[:3] == ["1", "1", "1"]
