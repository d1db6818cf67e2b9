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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channel import gain_vectors
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


def models_at(scene, table: LayerTable, positions, filter_index: int) -> Iterator[RateModel]:
    """Rate model at each 3D receiver position through one optical filter, in order.

    All positions' gains come from one :func:`gain_vectors` call; each
    transmitter's gain goes to each of its layers.  The models share the
    table's read-only input arrays and its geometric tie-break keys, so the
    table must be built from ``scene``; their own gains are read-only too.
    """
    nu2 = table.nu**2
    nu2.setflags(write=False)
    noise_var = float(scene.sigma**2)
    for tx_gains in gain_vectors(scene, positions, filter_index):
        gains = tx_gains[table.tx]
        gains.setflags(write=False)
        yield RateModel(gains=gains, nu2=nu2, var=table.var, phi=table.phi,
                        noise_var=noise_var, tiebreak=table.tiebreak)


def model_at_position(scene, table: LayerTable, position, filter_index: int) -> RateModel:
    """Rate model at one 3D receiver position: :func:`models_at` on a batch of one."""
    return next(models_at(scene, table, [position], filter_index))


def achievable_rate(
    model: RateModel,
    signal: Sequence[int],
    noise: Sequence[int] = (),
    clamp: bool = True,
) -> float:
    """Achievable sum rate of the signal set with the noise set uncancelled.

    The signal chain is evaluated in ascending layer id; each stage sees the
    not-yet-chained signal layers, the noise set and the AWGN (one
    :func:`_set_rates` call).  The result is clamped at 0 by default (the TG
    bound can go negative at low SNR).
    """
    sig = sorted(signal)
    if not sig:
        raise InvalidParameterError("signal set must be non-empty")
    if set(signal) & set(noise):
        raise InvalidParameterError("signal and noise sets must be disjoint")
    pw = model.power
    base = model.noise_var + float(pw[sorted(noise)].sum())
    rate = float(
        _set_rates(np.log(model.nu2[sig]), model.var[sig], model.phi[sig], pw[sig], base)
    )
    if clamp and rate < 0.0:
        return 0.0
    return rate


def _stage_rates(log_nu2, var, phi, power, denom):
    """Per-layer rate of decoding each layer alone against ``denom``.

    ``denom`` is the AWGN variance plus the received power of the layer and
    of everything still undecoded; unclamped, elementwise over arrays.  This
    is the package's one copy of the closed-form rate under truncated
    Gaussian input: every set rate is a sum of these stages.
    """
    return (0.5 * (log_nu2 - np.log(var - power * var / denom)) - phi) / LN2


def _set_rates(log_nu2, var, phi, power, base):
    """Unclamped chain sum rate of many candidate decoding sets at once.

    The last axis runs over one set's layers in ascending id, as
    :func:`_candidates` gathers them; ``base`` is the variance every stage
    of a set sees besides the set's own undecoded layers (AWGN plus noise
    layers): one value for all sets, or one per set (and receiver).  Stage
    m of a set sees its layers m.. plus ``base``.  Sets of one layer are one
    :func:`_stage_rates` call, the group-size-one stage.
    """
    if power.shape[-1] == 1:
        p = power[..., 0]
        return _stage_rates(log_nu2[..., 0], var[..., 0], phi[..., 0], p, p + base)
    chain = np.cumsum(power[..., ::-1], axis=-1)[..., ::-1]
    denom = chain + np.expand_dims(base, -1)
    return _stage_rates(log_nu2, var, phi, power, denom).sum(axis=-1)


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
    # Ascending bitmask order is lexicographic order of the reversed tuples.
    subs.sort(key=lambda s: s[::-1])
    return subs


class _Candidates(NamedTuple):
    """Candidate decoding sets as arrays, built by :func:`_candidates`.

    ``subs`` lists the sets; ``sets`` holds their ids padded with the layer
    count, ``size`` their sizes and ``ops`` their :func:`_set_rates`
    operands; ``keys`` their summed tie-break key rows (None without keys);
    ``holding[k]`` the sets holding layer k; ``subsets[c]`` the indices of
    set c's non-empty subsets, padded with c (None if all are singletons).
    """

    subs: list[tuple[int, ...]]
    sets: np.ndarray
    size: np.ndarray
    ops: tuple[np.ndarray, ...]
    keys: np.ndarray | None
    holding: dict[int, list[int]]
    subsets: np.ndarray | None


def _candidates(subs, log_nu2, var, phi, power, tiebreak=None) -> _Candidates:
    """The candidate sets ``subs``, each ascending and each subset of one listed too.

    The per-layer arrays have L entries on their last axis (``power`` may
    lead with one axis of receivers).  Padding entries get log_nu2 0,
    var 1, phi 0 and power 0, whose stage rate is exactly 0.
    """
    width = max(len(s) for s in subs)
    pad = (log_nu2.shape[-1],)
    sets = np.array([s + pad * (width - len(s)) for s in subs])
    ops = tuple(
        np.concatenate([x, np.full(x.shape[:-1] + (1,), fill)], axis=-1)[..., sets]
        for x, fill in zip((log_nu2, var, phi, power), (0.0, 1.0, 0.0, 0.0))
    )
    keys = None
    if tiebreak is not None:
        keys = np.vstack([tiebreak, np.zeros(tiebreak.shape[1])])[sets].sum(axis=1)
    holding: dict[int, list[int]] = {}
    for c, sub in enumerate(subs):
        for k in sub:
            holding.setdefault(k, []).append(c)
    subsets = None
    if width > 1:
        pos = {sub: c for c, sub in enumerate(subs)}
        rows = [[pos[d] for r in range(len(s)) for d in combinations(s, r + 1)] for s in subs]
        subsets = np.array([row + [c] * (2**width - 1 - len(row)) for c, row in enumerate(rows)])
    size = np.array([len(s) for s in subs])
    return _Candidates(subs, sets, size, ops, keys, holding, subsets)


def _candidate_sets(model: RateModel, universe: Sequence[int], tau: int) -> _Candidates:
    """Every decoding set of at most ``tau`` layers of ``universe``, bitmask order."""
    subs = subsets_in_bitmask_order(universe, tau)
    return _candidates(
        subs, np.log(model.nu2), model.var, model.phi, model.power, model.tiebreak
    )


def _set_margins(cands: _Candidates, alloc: np.ndarray, base: float) -> np.ndarray:
    """Largest uniform per-layer rate increase each candidate set can absorb.

    A set's margin is the least ``(max(R(D), 0) - alloc(D)) / |D|`` over its
    non-empty subsets D, each stage seeing ``base`` besides the set's own
    undecoded layers; ``alloc`` holds each candidate's allocated rate sum
    (or 0 for all).  An infinite allocation makes the margin -inf.
    """
    vals = _set_rates(*cands.ops, base)
    np.maximum(vals, 0.0, out=vals)
    vals -= alloc
    if cands.subsets is None:
        return vals
    return (vals / cands.size)[..., cands.subsets].min(axis=-1)
