"""Lambertian optical links and multi-color filtering gains.

Geometry convention: transmitters sit in a horizontal plane and face +z,
receivers sit in a parallel plane below (larger z) and face -z, so the
radiance angle at the transmitter equals the incidence angle at the
receiver.  All lengths are meters, wavelengths nanometers, powers linear.
Rates elsewhere in the package are bits per channel use (log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import GeometryError, InvalidParameterError

# Filter-matrix entries below this are treated as exact zeros: a color whose
# spectrum barely overlaps a filter passband is undetectable through it.
NEGLIGIBLE_FILTER_GAIN = 1e-6

# Per-position link gains below this fraction of the strongest gain are
# zeroed so that far-side layers drop out of the detectable set.
NEGLIGIBLE_GAIN_RATIO = 1e-12


@dataclass(frozen=True)
class ColorBand:
    """One LED color: nominal band [low_nm, high_nm] with out-of-band leakage.

    The spectrum is a Gaussian centered on the band, ``mean_nm``; its
    ``std_nm`` solves ``P[N(mean, std^2) > high_nm] = leakage / 2``, so the
    two-sided tail mass outside the band equals ``leakage``.  Both are
    computed once, at construction, which also checks the band.
    """

    low_nm: float
    high_nm: float
    leakage: float
    mean_nm: float = field(init=False)
    std_nm: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.low_nm < self.high_nm:
            raise InvalidParameterError(
                f"band limits out of order: ({self.low_nm}, {self.high_nm})"
            )
        if not 0.0 < self.leakage < 1.0:
            raise InvalidParameterError(f"leakage must be in (0, 1), got {self.leakage}")
        mean = 0.5 * (self.low_nm + self.high_nm)
        quantile = ndtri(1.0 - self.leakage / 2.0)
        if not math.isfinite(quantile) or quantile <= 0.0:
            raise InvalidParameterError(f"leakage {self.leakage} gives no finite quantile")
        object.__setattr__(self, "mean_nm", mean)
        object.__setattr__(self, "std_nm", (self.high_nm - mean) / quantile)


def filter_gain_matrix(
    bands: list[ColorBand], filters: list[tuple[float, float]]
) -> np.ndarray:
    """Power ratio of each color's spectrum through each filter passband.

    Entry [p, q] integrates color p's Gaussian spectrum over filter q's
    passband (a CDF difference).  Entries below ``NEGLIGIBLE_FILTER_GAIN``
    are zeroed so that negligible cross-color leakage yields exactly
    undetectable layers.
    """
    out = np.empty((len(bands), len(filters)))
    for p, band in enumerate(bands):
        for q, (lo, hi) in enumerate(filters):
            if not lo < hi:
                raise InvalidParameterError(f"filter passband out of order: ({lo}, {hi})")
            out[p, q] = ndtr((hi - band.mean_nm) / band.std_nm) - ndtr(
                (lo - band.mean_nm) / band.std_nm
            )
    out[out < NEGLIGIBLE_FILTER_GAIN] = 0.0
    return out


@dataclass(frozen=True)
class ReceiverPlane:
    """Sampled receiver plane parallel to the transmitter plane."""

    center_x: float
    center_y: float
    height: float  # vertical distance below the transmitter plane
    width: float   # extent along x
    length: float  # extent along y
    sample_gap: float

    def axis_offsets(self, extent: float) -> np.ndarray:
        """Corner-inclusive sample offsets, exactly symmetric about 0."""
        n = int(round(extent / self.sample_gap)) + 1
        half = (n - 1) / 2.0
        return (np.arange(n) - half) * self.sample_gap

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) sample coordinates along each axis."""
        return (
            self.center_x + self.axis_offsets(self.width),
            self.center_y + self.axis_offsets(self.length),
        )


@dataclass
class Scene:
    """The physical world: transmitter array, optics, receiver plane, noise."""

    tx_positions: np.ndarray          # (N_t, 3)
    tx_color: np.ndarray              # (N_t,) indices into bands
    bands: list[ColorBand]
    filters: list[tuple[float, float]]
    lambertian_order: float
    pd_area: float
    refractive_index: float
    fov: float                        # semi-angle, radians
    sigma: float                      # AWGN standard deviation
    peak_power: np.ndarray            # (N_t,)
    avg_power: np.ndarray             # (N_t,)
    plane: ReceiverPlane
    filter_matrix: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.tx_positions = np.asarray(self.tx_positions, dtype=float)
        self.tx_color = np.asarray(self.tx_color, dtype=int)
        self.peak_power = np.broadcast_to(
            np.asarray(self.peak_power, dtype=float), (self.n_tx,)
        ).copy()
        self.avg_power = np.broadcast_to(
            np.asarray(self.avg_power, dtype=float), (self.n_tx,)
        ).copy()
        if self.lambertian_order <= 0:
            raise InvalidParameterError("Lambertian order must be positive")
        if self.pd_area <= 0:
            raise InvalidParameterError("PD area must be positive")
        if not 0.0 < self.fov <= math.pi / 2:
            raise InvalidParameterError("FOV semi-angle must be in (0, pi/2]")
        if self.sigma <= 0:
            raise InvalidParameterError("noise std must be positive")
        if np.any(self.avg_power <= 0) or np.any(self.avg_power > self.peak_power):
            raise InvalidParameterError("need 0 < avg_power <= peak_power per transmitter")
        if np.any(self.tx_color < 0) or np.any(self.tx_color >= len(self.bands)):
            raise InvalidParameterError("transmitter color index out of range")
        self.filter_matrix = filter_gain_matrix(self.bands, self.filters)

    @property
    def n_tx(self) -> int:
        return self.tx_positions.shape[0]


def half_power_semiangle_to_order(phi_half: float) -> float:
    """Lambertian order from the semi-angle at half power: -ln2 / ln cos(phi)."""
    c = math.cos(phi_half)
    if not 0.0 < c < 1.0:
        raise InvalidParameterError("half-power semi-angle must be in (0, pi/2)")
    return -math.log(2.0) / math.log(c)


def check_filter_index(scene: Scene, filter_index: int) -> None:
    """Raise :class:`InvalidParameterError` unless the scene has receiver filter ``filter_index``.

    Checked where a map build or an association takes its filter, not per
    gain vector: :func:`gain_vectors` indexes the filter matrix unchecked.
    """
    n_filters = scene.filter_matrix.shape[1]
    if not 0 <= filter_index < n_filters:
        raise InvalidParameterError(
            f"filter index {filter_index} is not one of the scene's {n_filters} filters "
            f"(0 to {n_filters - 1})"
        )


def gain_vectors(
    scene: Scene, rx_positions: np.ndarray, rx_filter_index: int
) -> np.ndarray:
    """Per-transmitter gains at each of n positions, (n, N_t), negligible gains zeroed.

    Zero outside the FOV cone; includes the color-through-filter gain and the
    idealized concentrator gain n^2 / sin^2(fov).  Each row is zeroed below
    ``NEGLIGIBLE_GAIN_RATIO`` times its own strongest gain.  A position that
    is not finite or coincides with a transmitter raises
    :class:`GeometryError` naming it.
    """
    rx = np.asarray(rx_positions, dtype=float)
    if not np.isfinite(rx).all():
        bad = rx[~np.isfinite(rx).all(axis=1)][0]
        raise GeometryError(f"receiver position {bad.tolist()} is not finite")
    delta = rx[:, None, :] - scene.tx_positions
    dist2 = np.einsum("nij,nij->ni", delta, delta)
    if (dist2 == 0.0).any():
        bad = rx[(dist2 == 0.0).any(axis=1)][0]
        raise GeometryError(f"receiver position {bad.tolist()} coincides with a transmitter")
    dist = np.sqrt(dist2)
    cos_ang = delta[..., 2] / dist
    t_s = scene.filter_matrix[scene.tx_color, rx_filter_index]
    m1 = scene.lambertian_order
    conc = scene.refractive_index**2 / math.sin(scene.fov) ** 2
    with np.errstate(invalid="ignore"):
        gains = (
            scene.pd_area * (m1 + 1.0) / (2.0 * math.pi * dist2)
            * np.power(np.clip(cos_ang, 0.0, None), m1) * t_s * conc * cos_ang
        )
    gains[cos_ang < math.cos(scene.fov)] = 0.0
    peak = gains.max(axis=1, initial=0.0, keepdims=True)
    gains[(peak > 0.0) & (gains < NEGLIGIBLE_GAIN_RATIO * peak)] = 0.0
    return gains


def gain_vector(
    scene: Scene, rx_position: np.ndarray, rx_filter_index: int
) -> np.ndarray:
    """Per-transmitter gains at one position: :func:`gain_vectors` on a batch of one."""
    return gain_vectors(scene, np.asarray(rx_position, dtype=float)[None], rx_filter_index)[0]
