"""Position-indexed decoding maps: construction, clustering, serialization.

A map samples the receiver plane on a corner-inclusive grid and stores, per
cell, the greedy decoding order and local rate allocation (or an outage
marker); every cell is one direct greedy solve at its position.
Clustering (the size-reduction pass) groups cells whose decoding orders are
interchangeable up to a small normalized rate loss.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import Scene, check_filter_index, gain_vectors
from .cpgd import DecodingOrder, greedy_order, outage_order
from .errors import ConfigError
from .rates import _candidates, _set_margins, _stage_rates, models_at, subsets_in_bitmask_order
from .signaling import LayerTable

# ---------------------------------------------------------------------------
# Map construction


@dataclass
class MapCell:
    order: DecodingOrder
    cluster: int = -1


# Largest distance, in meters, at which a position counts as a map sample.
SAMPLE_TOL = 1e-9


def _nearest_sample(axis: np.ndarray, v: float) -> int:
    """Index of the sample of an evenly spaced axis nearest ``v``.

    Out of range when ``v`` lies beyond the axis; an axis of one sample
    extends ``SAMPLE_TOL`` either side of it.
    """
    if axis.size == 1:
        return 0 if abs(v - axis[0]) <= SAMPLE_TOL else -1
    return int(round((v - axis[0]) / (axis[1] - axis[0])))


@dataclass
class DecodingMap:
    scene_hash: str
    filter_index: int
    tau: int
    xs: np.ndarray
    ys: np.ndarray
    z: float
    n_layers: int
    cells: list[MapCell]

    @property
    def shape(self) -> tuple[int, int]:
        return self.xs.size, self.ys.size

    def positions(self) -> list[tuple[float, float, float]]:
        """Every cell's sample: cell i at ``divmod(i, ys.size)`` on the grid, at height ``z``."""
        return [(float(x), float(y), self.z) for x in self.xs for y in self.ys]

    def index_at(self, x: float, y: float, z: float | None = None) -> int:
        """Index of the cell sampled at (x, y), to within ``SAMPLE_TOL`` on each axis.

        A position that is not finite, outside the mapped plane, between
        samples or, where ``z`` is given, off the map's plane raises
        :class:`ConfigError`; it is never snapped to the nearest sample.
        """
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ConfigError(f"position ({x}, {y}) is not finite")
        ix, iy = _nearest_sample(self.xs, x), _nearest_sample(self.ys, y)
        if not (0 <= ix < self.xs.size and 0 <= iy < self.ys.size):
            raise ConfigError(f"position ({x}, {y}) outside the mapped plane")
        if max(abs(x - self.xs[ix]), abs(y - self.ys[iy])) > SAMPLE_TOL:
            raise ConfigError(f"position ({x}, {y}) is not a sample of the map")
        if z is not None and not abs(z - self.z) <= SAMPLE_TOL:
            raise ConfigError(f"position {(float(x), float(y), float(z))} is not a sample of "
                              f"the map: the map's plane is at z = {self.z}")
        return ix * self.ys.size + iy

    def cell_at(self, x: float, y: float, z: float | None = None) -> MapCell:
        """The cell sampled at (x, y), and at height ``z`` where given (:meth:`index_at`)."""
        return self.cells[self.index_at(x, y, z)]

    def check_run(self, scene: Scene, n_layers: int | None = None,
                  filter_index: int | None = None, tau: int | None = None) -> None:
        """Raise :class:`ConfigError` unless a run on ``scene`` can use the map.

        The map must be built from ``scene``, at one of its filters (the run
        refines at it; :func:`check_filter_index`), and the run's layer count,
        filter index and tau, where given, must equal the map's.
        """
        if self.scene_hash != scene_fingerprint(scene):
            raise ConfigError("map was built from a different scene")
        check_filter_index(scene, self.filter_index)
        for name, run, own in (
            ("layer count", n_layers, self.n_layers),
            ("filter index", filter_index, self.filter_index),
            ("tau", tau, self.tau),
        ):
            if run is not None and run != own:
                raise ConfigError(f"the run's {name} {run} differs from the map's {own}")

    @property
    def n_active(self) -> int:
        return sum(not c.order.outage for c in self.cells)

    @property
    def cluster_count(self) -> int:
        """Distinct cluster labels on the cells; 0 before size reduction."""
        return len({c.cluster for c in self.cells if c.cluster >= 0})

    @property
    def compression_ratio(self) -> float:
        if self.cluster_count == 0 or self.n_active == 0:
            return 0.0
        return (self.n_active - self.cluster_count) / self.n_active


def scene_fingerprint(scene: Scene) -> str:
    payload = repr(
        (
            scene.tx_positions.tolist(),
            scene.tx_color.tolist(),
            [(b.low_nm, b.high_nm, b.leakage) for b in scene.bands],
            scene.filters,
            scene.lambertian_order,
            scene.pd_area,
            scene.refractive_index,
            scene.fov,
            scene.sigma,
            scene.peak_power.tolist(),
            scene.avg_power.tolist(),
        )
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def build_map(
    scene: Scene,
    table: LayerTable,
    filter_index: int,
    tau: int = 1,
) -> DecodingMap:
    """Solve the greedy order at every sample position of the receiver plane.

    The cells' models come from one :func:`models_at` batch, of which a
    direct solve's :func:`model_at_position` is a batch of one, so map cells
    equal direct solves at their positions.
    """
    check_filter_index(scene, filter_index)
    xs, ys = scene.plane.grid()
    dmap = DecodingMap(
        scene_hash=scene_fingerprint(scene),
        filter_index=filter_index,
        tau=tau,
        xs=xs,
        ys=ys,
        z=scene.plane.height,
        n_layers=table.n_layers,
        cells=[],
    )
    for model in models_at(scene, table, dmap.positions(), filter_index):
        dmap.cells.append(MapCell(greedy_order(model, tau=tau)))
    return dmap


# ---------------------------------------------------------------------------
# Normalized distance and size reduction

# Size-reduction thresholds: average distances within TAU_DIFF of each other
# tie, and a category whose largest average distance is at most TAU_LOSS is
# final.
TAU_DIFF = 1e-5
TAU_LOSS = 0.1


def _order_ids(orders: list[DecodingOrder]) -> tuple[np.ndarray, list[tuple]]:
    """Each order's id among the distinct group sequences, and the sequences.

    Sequences are numbered in order of first appearance.
    """
    ids: dict[tuple, int] = {}
    order_id = np.array([ids.setdefault(tuple(o.groups), len(ids)) for o in orders])
    return order_id, list(ids)


def _distance_matrix(
    sequences: list[tuple],
    orders: list[DecodingOrder],
    layer_gains: np.ndarray,
    table: LayerTable,
    noise_var: float,
) -> np.ndarray:
    """d[s, j] = normalized rate loss of decoding cell j with group sequence s.

    The loss of using cell i's order at cell j depends on cell i only
    through its decoding groups, so cells that share a sequence share a
    row: cell i's row is ``d[order_id[i]]`` (:func:`_order_ids`).
    Vectorized over destinations: one pass per sequence evaluates its
    stages against every cell's gains at once.  Each stage's group gets its
    rate margin at the destination, the least clamped per-layer rate over
    the group's non-empty subsets with the later groups as noise.  Both
    rate vectors span all layers: layers undetectable at the destination
    get zero rate, and destination layers the sequence never decodes stay
    zero in the mimicking vector, so the distance is finite even when the
    two cells detect different layer sets.

    The pass runs layer-major, on ``(L, n)`` arrays, so a sequence's layers
    are contiguous rows and one buffer of ``ref - mimic`` serves every
    sequence.  The stage chains are a cumsum down the rows, the same
    sequential sums a cell-major cumsum takes.  Each cell's squared
    differences are summed from a cell-major copy, the pairwise sum
    :func:`numpy.linalg.norm` takes over a row, so every distance equals
    the cell-major norm's bit for bit.
    """
    n = len(orders)
    L = table.n_layers
    pw_t = np.ascontiguousarray((layer_gains**2 * table.var).T)  # (L, n)
    ref = np.zeros((n, L))
    for r, o in enumerate(orders):
        idx = list(o.detectable)
        ref[r, idx] = o.rates[idx]
    ref_norm = np.linalg.norm(ref, axis=1)
    ref_t = np.ascontiguousarray(ref.T)
    diff_t = np.empty((L, n))
    log_nu2 = np.log(table.nu**2)
    var = table.var
    phi = table.phi
    out = np.empty((len(sequences), n))
    for s, groups in enumerate(sequences):
        seq = [k for g in groups for k in g]  # decode order, stage 0 first
        p = pw_t[seq]
        # chain[m]: the power of stages m.. at every destination.
        chain = np.cumsum(p[::-1], axis=0)[::-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            if len(seq) == len(groups):  # one layer per stage
                vals = _stage_rates(
                    log_nu2[seq, None], var[seq, None], phi[seq, None], p, chain + noise_var
                )
            else:
                rest = np.concatenate([chain[1:], np.zeros((1, n))]) + noise_var
                vals = _group_rates(groups, pw_t.T, rest.T, log_nu2, var, phi).T
        np.maximum(vals, 0.0, out=vals)
        vals[p == 0.0] = 0.0
        np.copyto(diff_t, ref_t)
        diff_t[seq] -= vals
        np.square(diff_t, out=diff_t)
        diff = np.sqrt(np.add.reduce(np.ascontiguousarray(diff_t.T), axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            out[s] = np.where(
                ref_norm > 0.0, diff / ref_norm, np.where(diff == 0.0, 0.0, np.inf)
            )
    return out


def _group_rates(groups, pw, rest, log_nu2, var, phi) -> np.ndarray:
    """Each layer's rate, in decode order, under a fixed group order.

    A group's layers share its rate margin with nothing allocated
    (:func:`_set_margins`), the AWGN plus the later groups' power (``rest``
    at the group's last layer) as noise.
    """
    per_group = [subsets_in_bitmask_order(g, len(g)) for g in groups]
    cands = _candidates([d for ds in per_group for d in ds], log_nu2, var, phi, pw)
    counts = [len(ds) for ds in per_group]
    last = np.cumsum([len(g) for g in groups]) - 1
    margins = _set_margins(cands, 0.0, rest[:, np.repeat(last, counts)])
    # A group is the last of its own subsets in bitmask order.
    return np.repeat(margins[:, np.cumsum(counts) - 1], [len(g) for g in groups], axis=1)


def reduce_map(dmap: DecodingMap, scene: Scene, table: LayerTable) -> list[list[int]]:
    """Cluster map cells that can share one representative decoding order.

    All non-outage cells start as one category and are refined with the
    peel-by-average-distance pass: while a category's maximum average
    distance exceeds ``TAU_LOSS``, members whose average distance is within
    ``TAU_DIFF`` of the current head's are split off together, iterating
    until the category count stabilizes.  Each cell's gains are taken at its
    own sample position; a ``scene`` the map was not built from, or a
    ``table`` of another layer count, raises :class:`ConfigError`.
    Returns the clusters as lists of cell indices (row-major) and stores
    labels on the map.

    Distances are held as one row per distinct decoding order
    (:func:`_distance_matrix`) and the peel averages one row per distinct
    order (:func:`_peel_categories`), so peak memory is O(distinct orders x
    active cells), never O(active cells²).
    """
    dmap.check_run(scene, table.n_layers)
    members = [c for c, cell in enumerate(dmap.cells) if not cell.order.outage]
    if not members:
        return []
    orders = [dmap.cells[c].order for c in members]
    positions = dmap.positions()
    layer_gains = gain_vectors(scene, [positions[c] for c in members], dmap.filter_index)[
        :, table.tx
    ]
    order_id, sequences = _order_ids(orders)
    dist = _distance_matrix(sequences, orders, layer_gains, table, scene.sigma**2)
    clusters = [[members[r] for r in cat] for cat in _peel_categories(dist, order_id)]
    for label, cluster in enumerate(clusters):
        for c in cluster:
            dmap.cells[c].cluster = label
    return clusters


def _order_averages(
    dist: np.ndarray, order_id: np.ndarray, cells
) -> tuple[np.ndarray, np.ndarray]:
    """Average distance to ``cells`` of each distinct order among them.

    Returns the averages, one per distinct order, and each cell's index into
    them.  Cells that share an order share a row of ``dist``, so one row mean
    per order serves them all and the gather is (orders x cells), not
    (cells x cells).
    """
    uniq, inv = np.unique(order_id[cells], return_inverse=True)
    return dist[np.ix_(uniq, cells)].mean(axis=1), inv


def _peel_categories(dist: np.ndarray, order_id: np.ndarray) -> list[list[int]]:
    """The iterative split pass of the size reduction.

    Cell r's distances to the other cells are ``dist[order_id[r]]`` (see
    :func:`_distance_matrix`).  While a category's maximum average distance
    exceeds ``TAU_LOSS``, the remaining members whose average distances tie
    with the current head's within ``TAU_DIFF`` peel off as a new category;
    the outer loop repeats until the category count stops changing.  A
    category that passes the ``TAU_LOSS`` test is final and is not averaged
    again.

    Averages are taken once per distinct order (:func:`_order_averages`),
    each the same row mean over the same values as a per-cell average, so
    the working set is O(distinct orders x cells) rather than O(cells²).
    """
    # Each category with whether it has passed the TAU_LOSS test.
    cats: list[tuple[list[int], bool]] = [(list(range(order_id.size)), False)]
    while True:
        new: list[tuple[list[int], bool]] = []
        for cat, final in cats:
            if final:
                new.append((cat, True))
                continue
            means, inv = _order_averages(dist, order_id, cat)
            if means.max() <= TAU_LOSS:
                new.append((cat, True))
                continue
            # The remaining members (cell ids) and their averages, in step.
            rem = np.array(cat)
            avg = means[inv]
            while rem.size:
                # Equal averages tie, infinite ones too: the head always peels.
                with np.errstate(invalid="ignore"):
                    grp = (avg == avg[0]) | (np.abs(avg[0] - avg) < TAU_DIFF)
                if (grp.all() and rem.size > 1
                        and _order_averages(dist, order_id, rem)[0].max() > TAU_LOSS):
                    # Mirror-image cells have exactly equal average distances
                    # and stall the tie peel; fall back to keeping the head's
                    # TAU_LOSS-ball together.  The head always peels, so
                    # every pass shrinks ``rem``.
                    grp = dist[order_id[rem[0]], rem] <= TAU_LOSS
                    grp[0] = True
                new.append((rem[grp].tolist(), False))
                rem, avg = rem[~grp], avg[~grp]
        if len(new) == len(cats):
            return [cat for cat, _ in new]
        cats = new


# ---------------------------------------------------------------------------
# Serialization

MAP_FORMAT = "vlcmap-decoding-map"
MAP_VERSION = 3


def _order_payload(order: DecodingOrder) -> dict:
    if order.outage:
        return {"outage": True}
    flat = [k for grp in order.groups for k in grp]
    return {
        "outage": False,
        "groups": [[k + 1 for k in grp] for grp in order.groups],
        "rates": [float(order.rates[k]) for k in flat],
    }


def save_map(dmap: DecodingMap, path) -> None:
    """Write the map: the sample grid once, then one record per cell in row-major order."""
    payload = {
        "format": MAP_FORMAT,
        "version": MAP_VERSION,
        "scene_hash": dmap.scene_hash,
        "filter_index": dmap.filter_index,
        "tau": dmap.tau,
        "xs": dmap.xs.tolist(),
        "ys": dmap.ys.tolist(),
        "z": dmap.z,
        "n_layers": dmap.n_layers,
        "cells": [{"cluster": c.cluster, **_order_payload(c.order)} for c in dmap.cells],
    }
    with open(path, "w") as fh:
        # One json.dumps call runs the C encoder; json.dump streams through
        # the pure-Python one.  The bytes are the same.
        fh.write(json.dumps(payload))


def _field(record: dict, key: str, *types, least: int | None = None):
    """``record[key]``, checked to have one of the JSON ``types``, and to be at least ``least``."""
    value = record[key]
    if type(value) not in types:
        raise TypeError(f"field {key!r} has type {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"field {key!r} is {value}, below {least}")
    return value


def _numbers(record: dict, key: str, size: int | None = None) -> list:
    """``record[key]`` as a list of numbers, of length ``size`` if given."""
    values = _field(record, key, list)
    if not set(map(type, values)) <= {int, float}:
        raise TypeError(f"field {key!r} must hold numbers only")
    if size is not None and len(values) != size:
        raise ValueError(f"field {key!r} must hold {size} numbers")
    return values


def _cell_record(rec, n_layers: int) -> tuple[DecodingOrder, int]:
    """Decoding order and cluster label of one cell record, every field checked."""
    if type(rec) is not dict:
        raise TypeError("cell record is not an object")
    if _field(rec, "outage", bool):
        order = outage_order(n_layers)
    else:
        raw = _field(rec, "groups", list)
        if not raw:
            raise ValueError("a cell out of outage needs decoding groups")
        if not all(type(grp) is list and grp for grp in raw):
            raise TypeError("decoding groups must be non-empty lists")
        ids = [k for grp in raw for k in grp]
        if not set(map(type, ids)) <= {int} or not 1 <= min(ids) <= max(ids) <= n_layers:
            raise ValueError(f"layer ids must be integers in 1..{n_layers}")
        if len(set(ids)) != len(ids):
            raise ValueError("a layer appears in two decoding groups")
        groups = [tuple(k - 1 for k in grp) for grp in raw]
        flat = [k - 1 for k in ids]
        values = _numbers(rec, "rates", len(flat))
        rates = np.full(n_layers, np.nan)
        rates[flat] = values
        order = DecodingOrder(groups, rates)
    return order, _field(rec, "cluster", int)


def load_map(path) -> DecodingMap:
    """Read a map written by :func:`save_map`.

    Record i is the cell at ``divmod(i, ys.size)`` on the ``xs``/``ys`` grid,
    at height ``z``.  Another format or version, malformed JSON, a missing
    or wrongly typed field, a sample grid that is not finite, a tau or layer
    count below 1, a negative filter index, or a cell count other than the
    grid's raises :class:`ConfigError`.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if type(payload) is not dict or payload.get("format") != MAP_FORMAT:
            raise ConfigError(f"not a decoding map file: {path}")
        if payload.get("version") != MAP_VERSION:
            raise ConfigError(
                f"map file {path} has version {payload.get('version')!r}; "
                f"this version of vlcmap reads version {MAP_VERSION}"
            )
        n_layers = _field(payload, "n_layers", int, least=1)
        xs = np.array(_numbers(payload, "xs"), dtype=float)
        ys = np.array(_numbers(payload, "ys"), dtype=float)
        z = float(_field(payload, "z", int, float))
        if not (np.isfinite(xs).all() and np.isfinite(ys).all() and math.isfinite(z)):
            raise ValueError("the sample grid (xs, ys, z) must be finite")
        records = _field(payload, "cells", list)
        if not records or len(records) != xs.size * ys.size:
            raise ValueError(f"{len(records)} cells for a {xs.size}x{ys.size} grid")
        return DecodingMap(
            scene_hash=_field(payload, "scene_hash", str),
            filter_index=_field(payload, "filter_index", int, least=0),
            tau=_field(payload, "tau", int, least=1),
            xs=xs,
            ys=ys,
            z=z,
            n_layers=n_layers,
            cells=[MapCell(*_cell_record(rec, n_layers)) for rec in records],
        )
    except KeyError as exc:
        raise ConfigError(f"bad map file {path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad map file {path}: {exc}") from exc


def export_cluster_csv(dmap: DecodingMap, path) -> None:
    rows = ["ix,iy,x,y,outage,cluster,min_rate,sum_rate"]
    for i, (c, (x, y, _)) in enumerate(zip(dmap.cells, dmap.positions())):
        ix, iy = divmod(i, dmap.ys.size)
        if c.order.outage:
            rows.append(f"{ix},{iy},{x!r},{y!r},1,-1,,")
        else:
            idx = list(c.order.detectable)
            rows.append(
                f"{ix},{iy},{x!r},{y!r},0,{c.cluster},"
                f"{float(np.min(c.order.rates[idx]))!r},{float(np.sum(c.order.rates[idx]))!r}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
