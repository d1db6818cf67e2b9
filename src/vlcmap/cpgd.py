"""Greedy max-min decoding order at one receiver position.

The greedy pass repeatedly extracts the set with the smallest per-layer rate
(treating everything extracted so far as noise); the extraction sequence is
then reversed, so the first-extracted bottleneck group is decoded last, once
everything else has been cancelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .rates import RateModel, _Candidates, _candidate_sets, _set_rates, _stage_rates

# Relative tolerance under which two selection values count as an exact tie.
TIE_RTOL = 1e-12


def _tie_argmin(vals: np.ndarray, keys: np.ndarray | None) -> int:
    """Index of the least of ``vals``, the one tie rule of every greedy pass.

    Values within ``TIE_RTOL`` of the least tie; the tied candidate with the
    lexicographically smallest ``keys`` row wins, then the lowest index
    (bitmask order of the candidate sets).  Without keys, or when the least
    value is -inf, the first least value wins.
    """
    j = int(vals.argmin())
    least = float(vals[j])
    if keys is None or not math.isfinite(least):
        return j
    tied = (vals <= least + TIE_RTOL * max(abs(least), 1.0)).nonzero()[0]
    if tied.size == 1:
        return j
    return int(tied[np.lexsort((tied,) + tuple(keys[tied].T[::-1]))[0]])


@dataclass
class DecodingOrder:
    """Ordered partition of the detectable layers with shared group rates.

    ``groups[m]`` is decoded at stage m (earlier groups first), all layers in
    a group share one rate.  ``rates`` is indexed by layer id, NaN outside the
    detectable set.  A position with no detectable layer has no groups.
    """

    groups: list[tuple[int, ...]]
    rates: np.ndarray

    @property
    def detectable(self) -> tuple[int, ...]:
        """The layers the groups partition, ascending."""
        return tuple(sorted(k for grp in self.groups for k in grp))

    @property
    def outage(self) -> bool:
        return not self.groups


def outage_order(n_layers: int) -> DecodingOrder:
    return DecodingOrder(groups=[], rates=np.full(n_layers, np.nan))


def detectable_layers(model: RateModel) -> tuple[int, ...]:
    """Layer ids with nonzero link gain at this position."""
    return tuple(int(k) for k in np.flatnonzero(model.gains != 0.0))


def greedy_order(model: RateModel, tau: int = 1) -> DecodingOrder:
    """Max-min greedy decoding order over the detectable layers.

    At each step the candidate set V minimizing R(V, extracted)/|V| over
    non-empty V of size at most tau is extracted and its layers get that
    per-layer rate; exact ties go by :func:`_tie_argmin`.  Selection uses
    the unclamped bound: clamping collapses all weak layers to rate 0, and
    breaking those ties by layer id would make orders at mirrored positions
    differ by more than a relabeling.  Positions with nothing detectable
    return an outage marker.
    """
    if tau < 1:
        raise InvalidParameterError("group size bound must be >= 1")
    universe = detectable_layers(model)
    if not universe:
        return outage_order(model.n_layers)
    if tau == 1:
        return _greedy_singletons(model, universe)
    # Every stage scores all candidate sets in one array pass.
    cands = _candidate_sets(model, universe, tau)
    rates = np.full(model.n_layers, np.nan)
    taken: list[tuple[int, ...]] = []
    stages = _extract(model, cands, lambda base: _set_rates(*cands.ops, base) / cands.size)
    for best, val in stages:
        taken.append(best)
        rates[list(best)] = max(val, 0.0)
    return DecodingOrder(list(reversed(taken)), rates)


def _greedy_singletons(model: RateModel, universe: tuple[int, ...]) -> DecodingOrder:
    """Vectorized greedy pass for group size one."""
    idx = np.asarray(universe, dtype=int)
    pw = model.power[idx]
    log_nu2 = np.log(model.nu2[idx])
    var = model.var[idx]
    phi = model.phi[idx]
    keys = None if model.tiebreak is None else model.tiebreak[idx]
    alive = np.ones(idx.size, dtype=bool)
    base = model.noise_var
    rates = np.full(model.n_layers, np.nan)
    taken: list[tuple[int, ...]] = []
    for _ in range(idx.size):
        denom = pw + base
        vals = _stage_rates(log_nu2, var, phi, pw, denom)
        vals[~alive] = np.inf
        j = _tie_argmin(vals, keys)
        k = int(idx[j])
        taken.append((k,))
        rates[k] = max(float(vals[j]), 0.0)
        alive[j] = False
        base += float(pw[j])
    return DecodingOrder(list(reversed(taken)), rates)


def _extract(model: RateModel, cands: _Candidates, score):
    """Greedy extraction over candidate sets, one (set, value) per stage.

    ``score(base)`` values every candidate against ``base``, the AWGN plus
    the power of the layers extracted so far; among the sets free of
    extracted layers the least value goes by :func:`_tie_argmin`.
    """
    dead = np.zeros(len(cands.subs), dtype=bool)
    left = len(cands.holding)
    pw = model.power.tolist()
    base = model.noise_var
    while left:
        vals = score(base)
        vals[dead] = np.inf
        j = _tie_argmin(vals, cands.keys)
        best = cands.subs[j]
        left -= len(best)
        for k in best:
            dead[cands.holding[k]] = True
            base += pw[k]
        yield best, float(vals[j])
