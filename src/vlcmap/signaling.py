"""Truncated-Gaussian layer inputs and layered-encoding bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .channel import Scene
from .errors import CalibrationError, InvalidParameterError

# Ratio mu / nu used when calibrating layer inputs (near-capacity choice for
# high-SNR intensity channels).
DEFAULT_MU_NU_RATIO = 3.0


@dataclass(frozen=True)
class TGParams:
    """A Gaussian truncated to [0, peak] with derived moments.

    ``rho`` renormalizes the truncated density; ``mean``/``var`` are the
    truncated moments; ``phi`` (nats) is the entropy defect so that the
    differential entropy equals 0.5*ln(2*pi*e*nu**2) - phi.
    """

    mu: float
    nu: float
    peak: float
    rho: float
    mean: float
    var: float
    phi: float


def tg_moments(mu: float, nu: float, peak: float) -> TGParams:
    """Closed-form normalizer, mean, variance and entropy constant of a TG."""
    if peak <= 0.0 or nu <= 0.0:
        raise InvalidParameterError("need peak > 0 and nu > 0")
    z0 = (0.0 - mu) / nu
    z1 = (peak - mu) / nu
    # With both truncation points in the upper tail the direct CDF difference
    # cancels; the complementary form keeps full relative precision there.
    mass = ndtr(-z0) - ndtr(-z1) if z0 >= 0.0 else ndtr(z1) - ndtr(z0)
    if mass < 1e-300:
        raise InvalidParameterError(
            f"degenerate truncation: mass {mass:g} for (mu={mu}, nu={nu}, A={peak})"
        )
    rho = 1.0 / mass
    # Truncated density evaluated at the endpoints.
    dens0 = rho * math.exp(-0.5 * (mu / nu) ** 2) / (nu * math.sqrt(2.0 * math.pi))
    densA = rho * math.exp(-0.5 * ((peak - mu) / nu) ** 2) / (nu * math.sqrt(2.0 * math.pi))
    mean = nu**2 * (dens0 - densA) + mu
    var = nu**2 * (1.0 - peak * densA - mean * (dens0 - densA))
    phi = math.log(rho) + 0.5 * ((peak - mu) * densA + mu * dens0)
    return TGParams(mu=mu, nu=nu, peak=peak, rho=rho, mean=mean, var=var, phi=phi)


def calibrate_layer(peak_power: float, avg_power: float, n_layers: int) -> TGParams:
    """Pick the TG input of one layer of a transmitter.

    The per-layer peak is ``peak_power / n_layers`` and the admissible mean is
    capped at ``min(avg_power, peak_power / 2) / n_layers``.  With mu fixed at
    ``DEFAULT_MU_NU_RATIO * nu``, the truncated mean is increasing in nu, so
    we bind the cap with equality by bisection to 1e-12 of the peak (larger
    nu means larger truncated variance, hence larger rate).  If the cap is
    unreachable the largest nu with mu <= per-layer peak is used instead.
    """
    if n_layers < 1:
        raise CalibrationError("need at least one layer")
    peak = peak_power / n_layers
    cap = min(avg_power / n_layers, peak / 2.0)

    def mean_at(nu: float) -> float:
        return tg_moments(DEFAULT_MU_NU_RATIO * nu, nu, peak).mean

    lo, hi = 1e-12 * peak, peak
    if mean_at(lo) - cap >= 0.0:
        raise CalibrationError(f"no root bracketed: mean({lo:g}) already above cap {cap:g}")
    if mean_at(hi) - cap < 0.0:
        # Cap not binding anywhere: take the largest nu with mu <= peak.
        nu = peak / DEFAULT_MU_NU_RATIO
        return tg_moments(DEFAULT_MU_NU_RATIO * nu, nu, peak)
    while hi - lo > 1e-12 * peak:
        mid = 0.5 * (lo + hi)
        if mean_at(mid) < cap:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    return tg_moments(DEFAULT_MU_NU_RATIO * nu, nu, peak)


@dataclass
class LayerTable:
    """All layers of a scene with their linear indexing and TG inputs.

    Layer ids are 0-based and ordered transmitter-major (transmitters are
    already ordered position-major with colors ascending in wavelength), layer
    number ascending within a transmitter.  The 1-based linear index of layer
    ``k`` is ``k + 1``.

    Every transmitter carries ``layers_per_tx`` layers, so layer ``k`` is
    layer ``k % layers_per_tx`` of transmitter ``k // layers_per_tx``.

    ``tiebreak`` holds the reflection-invariant (L, 2) keys that resolve
    exactly tied greedy stages.  They depend only on |x| and |y| of each
    layer's transmitter relative to the room's vertical center axis, so
    ties resolve consistently across mirrored receiver positions; every
    scene-built rate model carries them.  Rate models share the table's
    arrays rather than copy them, so every array is read-only.
    """

    tx: np.ndarray        # (L,) transmitter index per layer
    layer_no: np.ndarray  # (L,) 0-based layer number within the transmitter
    peak: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    mean: np.ndarray      # truncated mean
    var: np.ndarray       # truncated variance
    phi: np.ndarray       # entropy constant, nats
    layers_per_tx: int
    tiebreak: np.ndarray  # (L, 2) geometric tie-break keys

    @property
    def n_layers(self) -> int:
        return self.tx.size

    def pair(self, layer_id: int) -> tuple[int, int]:
        """1-based (transmitter, layer) pair of a 0-based layer id."""
        return int(self.tx[layer_id]) + 1, int(self.layer_no[layer_id]) + 1

    def to_csv(self, path) -> None:
        rows = ["lin,tx,layer,mu,nu,peak,mean,var,phi"]
        for k in range(self.n_layers):
            i, b = self.pair(k)
            rows.append(
                f"{k + 1},{i},{b},{self.mu[k]!r},{self.nu[k]!r},{self.peak[k]!r},"
                f"{self.mean[k]!r},{self.var[k]!r},{self.phi[k]!r}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")


def build_layer_set(scene: Scene, layers_per_tx: int) -> LayerTable:
    """Calibrate ``layers_per_tx`` layers of every transmitter and index them linearly.

    A transmitter's layers share one calibration, made once per distinct
    (peak, average) power pair of the scene.
    """
    if layers_per_tx < 1:
        raise CalibrationError("every transmitter needs at least one layer")
    powers = list(zip(scene.peak_power.tolist(), scene.avg_power.tolist()))
    calibrated = {pair: calibrate_layer(*pair, layers_per_tx) for pair in dict.fromkeys(powers)}
    per_tx = [calibrated[pair] for pair in powers]
    tx = np.repeat(np.arange(scene.n_tx), layers_per_tx)
    ax = np.abs(scene.tx_positions[:, 0])
    ay = np.abs(scene.tx_positions[:, 1])
    arrays = {
        "tx": tx,
        "layer_no": np.tile(np.arange(layers_per_tx), scene.n_tx),
        **{
            name: np.repeat([getattr(p, name) for p in per_tx], layers_per_tx)
            for name in ("peak", "mu", "nu", "mean", "var", "phi")
        },
        "tiebreak": np.column_stack([ax + ay, ay - ax])[tx],
    }
    for arr in arrays.values():
        arr.setflags(write=False)
    return LayerTable(layers_per_tx=layers_per_tx, **arrays)
