"""Greedy max-min decoding order at one receiver position.

The greedy pass repeatedly extracts the set with the smallest per-layer rate
(treating everything extracted so far as noise); the extraction sequence is
then reversed, so the first-extracted bottleneck group is decoded last, once
everything else has been cancelled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .rates import (
    RateModel,
    _stage_rates,
    achievable_rate,
    rate_margin,
    subsets_in_bitmask_order,
)

DEFAULT_GROUP_SIZE = 1
# Relative tolerance under which two selection values count as an exact tie.
TIE_RTOL = 1e-12


def _tie_argmin(tiebreak: np.ndarray, layers: np.ndarray) -> int:
    """Index into ``layers`` of the lexicographically smallest key row.

    Falls back to the lowest layer id among rows that tie on every key.
    """
    rows = tiebreak[layers]
    order = np.lexsort((layers,) + tuple(rows.T[::-1]))
    return int(order[0])


@dataclass
class DecodingOrder:
    """Ordered partition of the detectable layers with shared group rates.

    ``groups[m]`` is decoded at stage m (earlier groups first), all layers in
    a group share one rate.  ``rates`` is indexed by layer id, NaN outside the
    detectable set.  ``outage`` marks positions with no detectable layer.
    """

    groups: list[tuple[int, ...]]
    rates: np.ndarray
    detectable: tuple[int, ...]
    position: tuple[float, ...] | None = None
    outage: bool = False


def outage_order(n_layers: int, position=None) -> DecodingOrder:
    return DecodingOrder(
        groups=[],
        rates=np.full(n_layers, np.nan),
        detectable=(),
        position=position,
        outage=True,
    )


def detectable_layers(model: RateModel) -> tuple[int, ...]:
    """Layer ids with nonzero link gain at this position."""
    return tuple(int(k) for k in np.flatnonzero(model.gains != 0.0))


def greedy_order(
    model: RateModel,
    tau: int = DEFAULT_GROUP_SIZE,
    position=None,
) -> DecodingOrder:
    """Max-min greedy decoding order over the detectable layers.

    At each step the candidate set V minimizing R(V, extracted)/|V| over
    non-empty V of size at most tau is extracted and its layers get that
    per-layer rate; ties pick the lowest bitmask.  Positions with nothing
    detectable return an outage marker.
    """
    if tau < 1:
        raise InvalidParameterError("group size bound must be >= 1")
    universe = detectable_layers(model)
    if not universe:
        return outage_order(model.n_layers, position)
    if tau == 1:
        return _greedy_singletons(model, universe, position)
    remaining = list(universe)
    extracted: list[int] = []
    rates = np.full(model.n_layers, np.nan)
    taken: list[tuple[int, ...]] = []
    while remaining:
        # Selection uses the unclamped bound: clamping collapses all weak
        # layers to rate 0, and breaking those ties by layer id would make
        # orders at mirrored positions differ by more than a relabeling.
        subs = subsets_in_bitmask_order(remaining, tau)
        vals = [
            achievable_rate(model, sub, extracted, clamp=False) / len(sub)
            for sub in subs
        ]
        best_val = min(vals)
        if model.tiebreak is None:
            best_set = subs[vals.index(best_val)]
        else:
            tol = TIE_RTOL * max(abs(best_val), 1.0)
            tied = [s for s, v in zip(subs, vals) if v <= best_val + tol]
            best_set = min(
                tied, key=lambda s: tuple(model.tiebreak[list(s)].sum(axis=0))
            )
            best_val = vals[subs.index(best_set)]
        taken.append(best_set)
        stored = max(best_val, 0.0)
        for k in best_set:
            rates[k] = stored
            remaining.remove(k)
        extracted.extend(best_set)
    return DecodingOrder(
        groups=list(reversed(taken)),
        rates=rates,
        detectable=universe,
        position=position,
    )


def _greedy_singletons(
    model: RateModel, universe: tuple[int, ...], position
) -> DecodingOrder:
    """Vectorized greedy pass for group size one."""
    idx = np.asarray(universe, dtype=int)
    pw = model.power[idx]
    log_nu2 = np.log(model.nu2[idx])
    var = model.var[idx]
    phi = model.phi[idx]
    alive = np.ones(idx.size, dtype=bool)
    base = model.noise_var
    rates = np.full(model.n_layers, np.nan)
    taken: list[tuple[int, ...]] = []
    for _ in range(idx.size):
        denom = pw + base
        # Unclamped selection: see greedy_order on clamp-induced ties.
        vals = _stage_rates(log_nu2, var, phi, pw, denom)
        vals[~alive] = np.inf
        j = int(np.argmin(vals))  # first minimum = lowest layer id
        if model.tiebreak is not None:
            tol = TIE_RTOL * max(abs(float(vals[j])), 1.0)
            tied = np.flatnonzero(vals <= vals[j] + tol)
            if tied.size > 1:
                j = int(tied[_tie_argmin(model.tiebreak, idx[tied])])
        k = int(idx[j])
        taken.append((k,))
        rates[k] = max(float(vals[j]), 0.0)
        alive[j] = False
        base += float(pw[j])
    return DecodingOrder(
        groups=list(reversed(taken)),
        rates=rates,
        detectable=universe,
        position=position,
    )


def rates_under_fixed_order(
    model: RateModel,
    groups: list[tuple[int, ...]],
) -> np.ndarray:
    """Per-layer rates when the decoding order is imposed.

    Stage m gets the zero-allocation rate margin of its group against the
    later groups as noise, shared among the group's layers.
    """
    seen: set[int] = set()
    for grp in groups:
        if not grp or seen & set(grp):
            raise InvalidParameterError("groups must be disjoint and non-empty")
        seen.update(grp)
    rates = np.full(model.n_layers, np.nan)
    zero = np.zeros(model.n_layers)
    for m, grp in enumerate(groups):
        later = [k for g in groups[m + 1 :] for k in g]
        delta = rate_margin(model, grp, later, zero)
        for k in grp:
            rates[k] = delta
    return rates
