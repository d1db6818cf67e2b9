import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vlcmap.channel import (
    ColorBand,
    filter_gain_matrix,
    gain_vector,
    gain_vectors,
    half_power_semiangle_to_order,
)
from vlcmap.errors import GeometryError, InvalidParameterError
from vlcmap.sceneio import DEFAULT_BANDS, DEFAULT_FILTERS, grid_scene

from oracles import link_gain

# The published filtering-gain values for the four default bands, rounded
# to three decimals.
REFERENCE_FILTER_MATRIX = np.array(
    [
        [0.900, 0.011, 0.000, 0.000],
        [0.011, 0.800, 0.036, 0.000],
        [0.000, 0.027, 0.800, 0.100],
        [0.000, 0.000, 0.050, 0.900],
    ]
)


class TestSpectrum:
    def test_mean_is_band_center(self):
        band = ColorBand(380.0, 480.0, 0.1)
        assert band.mean_nm == 430.0

    def test_tail_mass_equals_half_leakage(self):
        from scipy.special import ndtr

        band = ColorBand(500.0, 550.0, 0.2)
        upper_tail = 1.0 - ndtr((band.high_nm - band.mean_nm) / band.std_nm)
        assert upper_tail == pytest.approx(0.1, rel=1e-12)

    def test_invalid_leakage_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"leakage must be in \(0, 1\), got 0.0"):
            ColorBand(380.0, 480.0, 0.0)
        with pytest.raises(InvalidParameterError, match=r"out of order: \(480.0, 380.0\)"):
            ColorBand(480.0, 380.0, 0.1)
        with pytest.raises(InvalidParameterError, match="no finite quantile"):
            ColorBand(380.0, 480.0, 1e-300)

    def test_spectrum_is_not_settable(self):
        with pytest.raises(TypeError):
            ColorBand(380.0, 480.0, 0.1, mean_nm=430.0)


class TestFilterMatrix:
    def test_matches_reference_values(self):
        mat = filter_gain_matrix(DEFAULT_BANDS, DEFAULT_FILTERS)
        assert np.all(np.abs(mat - REFERENCE_FILTER_MATRIX) <= 0.01)

    def test_diagonal_is_one_minus_leakage(self):
        mat = filter_gain_matrix(DEFAULT_BANDS, DEFAULT_FILTERS)
        for p, band in enumerate(DEFAULT_BANDS):
            assert mat[p, p] == pytest.approx(1.0 - band.leakage, abs=1e-12)

    def test_negligible_cross_gains_are_exact_zeros(self):
        mat = filter_gain_matrix(DEFAULT_BANDS, DEFAULT_FILTERS)
        # Colors two bands away barely overlap the filter passband.
        assert mat[2, 0] == 0.0
        assert mat[3, 0] == 0.0
        assert mat[0, 3] == 0.0

    def test_entries_within_unit_interval(self):
        mat = filter_gain_matrix(DEFAULT_BANDS, DEFAULT_FILTERS)
        assert np.all(mat >= 0.0) and np.all(mat <= 1.0)


class TestLinkGain:
    def test_normal_incidence_closed_form(self):
        scene = grid_scene(1, 1)
        # Directly below the transmitter: cos = 1, distance = plane height.
        rx = np.array([0.0, 0.0, 2.0])
        expected = (
            scene.pd_area
            * (scene.lambertian_order + 1.0)
            / (2.0 * math.pi * 4.0)
            * scene.filter_matrix[0, 0]
            * scene.refractive_index**2
            / math.sin(scene.fov) ** 2
        )
        assert gain_vector(scene, rx, 0)[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_outside_fov(self):
        scene = grid_scene(1, 1)
        radius = 2.0 * math.tan(scene.fov)
        inside = np.array([radius - 1e-3, 0.0, 2.0])
        outside = np.array([radius + 1e-3, 0.0, 2.0])
        assert gain_vector(scene, inside, 0)[0] > 0.0
        assert gain_vector(scene, outside, 0)[0] == 0.0

    def test_mismatched_filter_gives_zero(self):
        scene = grid_scene(1, 1, colors_per_position=(3,))
        assert gain_vector(scene, np.array([0.0, 0.0, 2.0]), 0)[0] == 0.0

    def test_coincident_receiver_rejected(self):
        scene = grid_scene(1, 1)
        with pytest.raises(GeometryError):
            gain_vector(scene, scene.tx_positions[0], 0)

    @pytest.mark.parametrize("rx", [(np.nan, 0.0, 2.0), (0.0, 0.0, np.inf)], ids=["nan", "inf"])
    def test_non_finite_receiver_rejected(self, rx):
        with pytest.raises(GeometryError, match="not finite"):
            gain_vector(grid_scene(1, 1), rx, 0)

    def test_gain_vector_matches_scalar_calls(self):
        scene = grid_scene(2, 2)
        rx = np.array([0.35, -0.15, 2.0])
        vec = gain_vector(scene, rx, 1)
        ref = np.array([link_gain(scene, i, rx, 1) for i in range(scene.n_tx)])
        # The vector form additionally zeroes relatively negligible gains.
        mask = vec != 0.0
        np.testing.assert_allclose(vec[mask], ref[mask], rtol=1e-12)
        assert np.all(ref[~mask] <= 1e-12 * ref.max())

    @given(
        x=st.floats(-1.0, 1.0),
        y=st.floats(-1.0, 1.0),
    )
    def test_mirror_symmetry_of_gains(self, x, y):
        scene = grid_scene(2, 2)
        g = gain_vector(scene, np.array([x, y, 2.0]), 0)
        g_mirror = gain_vector(scene, np.array([-x, y, 2.0]), 0)
        # Reflecting x swaps the two position rows; colors stay aligned.
        perm = np.concatenate([np.arange(8, 16), np.arange(0, 8)])
        np.testing.assert_array_equal(g_mirror, g[perm])


# Two transmitters 2 m apart with a steep beam: below one of them, the other's
# gain falls under NEGLIGIBLE_GAIN_RATIO times the peak near z = 1.65 m.
STEEP_PAIR = grid_scene(2, 1, spacing_x=2.0, colors_per_position=(0,),
                        lambertian_order=60.0, fov=math.radians(89.0))
BATCH_SCENES = {"steep": STEEP_PAIR, "fov30": grid_scene(2, 2)}


class TestGainVectors:
    @given(
        name=st.sampled_from(sorted(BATCH_SCENES)),
        positions=st.lists(
            st.tuples(st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), st.floats(1.5, 1.9)),
            min_size=1, max_size=12,
        ),
    )
    def test_rows_equal_single_calls_bit_for_bit(self, name, positions):
        # The steep pair puts rows on either side of the negligible-gain
        # cutoff; the 30-degree scene puts rows outside the FOV cone.
        scene = BATCH_SCENES[name]
        batch = gain_vectors(scene, positions, 0)
        assert batch.shape == (len(positions), scene.n_tx)
        for row, p in zip(batch, positions):
            assert row.tobytes() == gain_vector(scene, p, 0).tobytes()

    def test_batches_reach_both_sides_of_the_cutoff(self):
        rows = gain_vectors(STEEP_PAIR, [(-1.0, 0.0, 1.6), (-1.0, 0.0, 1.7)], 0)
        assert rows[0, 1] == 0.0 < rows[1, 1]
        outside = gain_vectors(BATCH_SCENES["fov30"], [(3.0, 0.0, 1.5)], 0)
        assert not outside.any()

    @pytest.mark.parametrize("bad", [(np.nan, 0.0, 2.0), (0.0, 0.0, np.inf), "on-tx"])
    def test_one_bad_position_fails_the_batch(self, bad):
        scene = grid_scene(2, 2)
        if bad == "on-tx":
            bad, match = tuple(scene.tx_positions[3]), "coincides"
        else:
            match = "not finite"
        with pytest.raises(GeometryError, match=match) as info:
            gain_vectors(scene, [(0.1, 0.0, 2.0), bad, (0.3, 0.0, 2.0)], 0)
        assert str(list(map(float, bad))) in str(info.value)


class TestLambertianOrder:
    def test_half_power_at_sixty_degrees(self):
        assert half_power_semiangle_to_order(math.radians(60.0)) == pytest.approx(1.0)

    def test_rejects_degenerate_angles(self):
        with pytest.raises(InvalidParameterError):
            half_power_semiangle_to_order(0.0)
        with pytest.raises(InvalidParameterError):
            half_power_semiangle_to_order(math.pi)
