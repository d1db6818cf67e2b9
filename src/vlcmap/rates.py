"""Closed-form achievable rates of the VLC multiple access channel.

A ``RateModel`` fixes a receiver position: per-layer link gains, input
variances and entropy constants plus the AWGN variance.  Rates are in bits
per channel use.  Signal sets are evaluated in canonical order (ascending
layer id); set enumeration is in ascending bitmask order over the sorted
detectable universe, which fixes every argmin tie deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .signaling import LayerTable

LN2 = math.log(2.0)


@dataclass(frozen=True)
class RateModel:
    """Per-layer quantities at one receiver position."""

    gains: np.ndarray      # (L,) link gain per layer
    nu2: np.ndarray        # (L,) untruncated input variance
    var: np.ndarray        # (L,) truncated input variance
    phi: np.ndarray        # (L,) entropy constant, nats
    noise_var: float
    # Optional per-layer key rows (L, K) resolving exact selection ties in
    # the greedy search, compared lexicographically.  Scene-built models use
    # reflection-invariant geometric keys so orders at mirrored positions
    # stay equivalent; without keys ties fall back to the lowest layer id.
    tiebreak: np.ndarray | None = None

    @property
    def n_layers(self) -> int:
        return self.gains.size

    @property
    def power(self) -> np.ndarray:
        """Received variance h^2 * var per layer."""
        return self.gains**2 * self.var


def model_at(
    table: LayerTable,
    tx_gains: np.ndarray,
    noise_var: float,
    tiebreak: np.ndarray | None = None,
) -> RateModel:
    """Build the position model from per-transmitter gains."""
    return RateModel(
        gains=np.asarray(tx_gains, dtype=float)[table.tx],
        nu2=table.nu**2,
        var=table.var.copy(),
        phi=table.phi.copy(),
        noise_var=float(noise_var),
        tiebreak=None if tiebreak is None else np.asarray(tiebreak, dtype=float),
    )


def geometric_tiebreak(scene, table: LayerTable) -> np.ndarray:
    """Reflection-invariant (L, 2) tie-break keys from transmitter geometry.

    Each layer's keys depend only on |x| and |y| of its transmitter relative
    to the room's vertical center axis, so exactly tied greedy stages resolve
    consistently across mirrored receiver positions.
    """
    ax = np.abs(scene.tx_positions[:, 0])
    ay = np.abs(scene.tx_positions[:, 1])
    return np.column_stack([ax + ay, ay - ax])[table.tx]


def model_at_position(
    scene, table: LayerTable, position, filter_index: int
) -> RateModel:
    """Rate model at a 3D receiver position through one optical filter."""
    from .channel import gain_vector

    return model_at(
        table,
        gain_vector(scene, position, filter_index),
        scene.sigma**2,
        geometric_tiebreak(scene, table),
    )


def achievable_rate(
    model: RateModel,
    signal: Sequence[int],
    noise: Sequence[int] = (),
    clamp: bool = True,
) -> float:
    """Achievable sum rate of the signal set with the noise set uncancelled.

    The signal chain is evaluated in ascending layer id; each stage sees the
    not-yet-chained signal layers, the noise set and the AWGN.  The result is
    clamped at 0 by default (the TG bound can go negative at low SNR).
    """
    sig = np.asarray(sorted(signal), dtype=int)
    if sig.size == 0:
        raise InvalidParameterError("signal set must be non-empty")
    if set(signal) & set(noise):
        raise InvalidParameterError("signal and noise sets must be disjoint")
    noi = np.asarray(sorted(noise), dtype=int)
    pw = model.power
    base = model.noise_var + (float(pw[noi].sum()) if noi.size else 0.0)
    # Suffix sums: stage m sees signal layers m..p plus base.
    denom = base + np.cumsum(pw[sig][::-1])[::-1]
    cond_var = model.var[sig] - pw[sig] * model.var[sig] / denom
    nats = 0.5 * float(np.sum(np.log(model.nu2[sig]) - np.log(cond_var))) - float(
        np.sum(model.phi[sig])
    )
    rate = nats / LN2
    if clamp and rate < 0.0:
        return 0.0
    return rate


def _stage_rates(log_nu2, var, phi, power, denom):
    """Per-layer rate of decoding each layer alone against ``denom``.

    ``denom`` is the AWGN variance plus the received power of the layer and
    of everything still undecoded; this is the group-size-one stage of
    :func:`achievable_rate`, unclamped, elementwise over arrays.
    """
    return (0.5 * (log_nu2 - np.log(var - power * var / denom)) - phi) / LN2


def subsets_in_bitmask_order(
    members: Sequence[int], max_size: int
) -> list[tuple[int, ...]]:
    """Non-empty subsets of ``members`` (layer ids), ascending bitmask order.

    The bitmask weights are the layer ids themselves, so the ordering is
    stable across calls regardless of which members remain.
    """
    subs: list[tuple[int, ...]] = []
    members = sorted(members)
    for size in range(1, min(max_size, len(members)) + 1):
        subs.extend(combinations(members, size))
    subs.sort(key=lambda s: sum(1 << k for k in s))
    return subs


def rate_margin(
    model: RateModel,
    signal: Sequence[int],
    noise: Sequence[int],
    rates: np.ndarray,
) -> float:
    """Largest uniform per-layer rate increase the signal set can absorb.

    Minimizes ``(R(D, noise) - sum(rates[D])) / |D|`` over all non-empty
    subsets D of the signal set.  ``rates`` is indexed by layer id; +inf
    entries make the margin -inf (such layers should never appear in a
    decodable signal set).
    """
    if len(signal) == 0:
        raise InvalidParameterError("signal set must be non-empty")
    best = math.inf
    for sub in subsets_in_bitmask_order(signal, len(signal)):
        allocated = float(np.sum(rates[list(sub)]))
        if math.isinf(allocated):
            return -math.inf
        val = (achievable_rate(model, sub, noise) - allocated) / len(sub)
        if val < best:
            best = val
    return best
