"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (per-link
gains, quadrature, explicit covariance algebra, brute-force enumeration)
so that agreement with the fast closed forms in the package is meaningful.
The GA's per-genome fitness and conflict repair are kept here as the loops
the array-based ``_AssignmentProblem`` methods must equal bit for bit, and
so is the GA driver that repairs and scores one genome at a time as it
breeds them: ``solve_association`` must follow its trajectory exactly.
The reflection relabeling of the transmitter array is the symmetry
reference: greedy orders at mirrored positions must be its relabelings,
and a map rebuilt from its 1/8 wedge must equal the directly solved map.
Group decoding (group size bound tau >= 2) has scalar references that
enumerate the candidate sets one at a time: the greedy order, the set
margin and the margin-greedy pass of the rate update, and the normalized
distance of the map's size reduction.  The size reduction's distance matrix
has a per-cell reference too, one row per source cell, which the matrix of
one row per distinct decoding order must equal once expanded; its peel has
a reference that averages one row per cell, over a cells x cells gather.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from vlcmap.assoc import local_rate_vector
from vlcmap.channel import Scene, gain_vector
from vlcmap.cpgd import TIE_RTOL, DecodingOrder, outage_order
from vlcmap.decmap import TAU_DIFF, TAU_LOSS, _group_rates
from vlcmap.errors import GeometryError, InvalidParameterError
from vlcmap.rates import RateModel, _stage_rates
from vlcmap.signaling import LayerTable

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Scalar link gain


def link_gain(
    scene: Scene, tx_index: int, rx_position: np.ndarray, rx_filter_index: int
) -> float:
    """Lambertian gain of one transmitter at one receiver position.

    Zero outside the FOV cone; includes the color-through-filter gain and the
    idealized concentrator gain n^2 / sin^2(fov).
    """
    delta = np.asarray(rx_position, dtype=float) - scene.tx_positions[tx_index]
    dist2 = float(delta @ delta)
    if dist2 == 0.0:
        raise GeometryError("receiver coincides with transmitter")
    dist = math.sqrt(dist2)
    cos_ang = delta[2] / dist
    if cos_ang < math.cos(scene.fov):
        return 0.0
    t_s = scene.filter_matrix[scene.tx_color[tx_index], rx_filter_index]
    if t_s == 0.0:
        return 0.0
    m1 = scene.lambertian_order
    conc = scene.refractive_index**2 / math.sin(scene.fov) ** 2
    return (
        scene.pd_area * (m1 + 1.0) / (2.0 * math.pi * dist2)
        * cos_ang**m1 * t_s * conc * cos_ang
    )


# ---------------------------------------------------------------------------
# Relabeling under the array's reflections


def grid_index(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    """The array's index matrix and each transmitter's position label.

    ``index[i, j]`` is the 0-based label of the position at the i-th x and
    j-th y coordinate (both ascending), numbered row-major as ``grid_scene``
    places them; both are read off ``scene.tx_positions``.
    """
    xs = np.unique(scene.tx_positions[:, 0])
    ys = np.unique(scene.tx_positions[:, 1])
    index = np.arange(xs.size * ys.size).reshape(xs.size, ys.size)
    ix = np.searchsorted(xs, scene.tx_positions[:, 0])
    iy = np.searchsorted(ys, scene.tx_positions[:, 1])
    return index, index[ix, iy]


def layer_id(table: LayerTable, tx: int, layer_no: int) -> int:
    """0-based layer id of (transmitter, layer number)."""
    return tx * table.layers_per_tx + layer_no


def _position_permutation(scene: Scene, transform: str) -> np.ndarray | None:
    """Permutation of position labels under a reflection, or None if unusable."""
    xs = np.unique(scene.tx_positions[:, 0])
    ys = np.unique(scene.tx_positions[:, 1])
    if transform == "diagonal" and not np.array_equal(xs, ys):
        return None
    idx, _ = grid_index(scene)
    if transform == "vertical":
        image = idx[::-1, :]
    elif transform == "horizontal":
        image = idx[:, ::-1]
    elif transform == "diagonal":
        image = idx[::-1, ::-1].T
    else:
        return None
    perm = np.empty(idx.size, dtype=int)
    perm[idx.ravel()] = image.ravel()
    return perm


def layer_permutation(scene: Scene, table: LayerTable, transform: str) -> np.ndarray:
    """Permutation of 0-based layer ids under one reflection of the array.

    ``vertical`` reverses the x order of the array positions, ``horizontal``
    the y order, ``diagonal`` is the anti-transpose (square arrays only).
    """
    pos_perm = _position_permutation(scene, transform)
    if pos_perm is None:
        raise InvalidParameterError(f"transform {transform!r} unavailable for this scene")
    # Transmitter at (position p, color slot c) maps to the same slot at the
    # image position; transmitters are ordered position-major by construction.
    by_pos: dict[int, list[int]] = {}
    for t, p in enumerate(grid_index(scene)[1]):
        by_pos.setdefault(int(p), []).append(t)
    tx_perm = np.empty(scene.n_tx, dtype=int)
    for p, txs in by_pos.items():
        for slot, t in enumerate(txs):
            tx_perm[t] = by_pos[int(pos_perm[p])][slot]
    out = np.empty(table.n_layers, dtype=int)
    for k in range(table.n_layers):
        out[k] = layer_id(table, int(tx_perm[table.tx[k]]), int(table.layer_no[k]))
    return out


def apply_layer_permutation(order: DecodingOrder, perm: np.ndarray) -> DecodingOrder:
    """Relabel an order's layers, carrying rates along as permuted copies."""
    rates = np.full_like(order.rates, np.nan)
    rates[perm] = order.rates
    return DecodingOrder(
        groups=[tuple(sorted(int(perm[k]) for k in grp)) for grp in order.groups],
        rates=rates,
    )


def _has_near_tied_gains(gains: np.ndarray, rtol: float = 1e-9) -> bool:
    """Near-equal gains from (almost) equidistant transmitters.

    At such positions the greedy tie-break may pick either mirror image,
    so the order there is not a relabeling of its wedge source.
    """
    nz = np.sort(gains[gains != 0.0])
    return nz.size > 1 and bool(np.any(np.diff(nz) <= rtol * nz[-1]))


def wedge_relabeled_orders(scene: Scene, table: LayerTable, dmap) -> list[DecodingOrder]:
    """The orders a symmetry-wedge build of ``dmap`` would give, cell by cell.

    Every cell outside the fundamental wedge of the array's reflections and
    free of near-tied transmitter gains takes the relabeled order of its
    wedge source; every other cell keeps its own order.
    """
    nx, ny = dmap.shape
    z = scene.plane.height
    perms = {}
    for t in ("vertical", "horizontal", "diagonal"):
        try:
            perms[t] = layer_permutation(scene, table, t)
        except InvalidParameterError:
            pass
    out = []
    for i, cell in enumerate(dmap.cells):
        ix, iy = divmod(i, ny)
        u, v = 2 * ix - (nx - 1), 2 * iy - (ny - 1)
        seq: list[str] = []
        if u < 0 and "vertical" in perms:
            u, seq = -u, seq + ["vertical"]
        if v < 0 and "horizontal" in perms:
            v, seq = -v, seq + ["horizontal"]
        if u > v and "diagonal" in perms:
            u, v = v, u
            seq += ["diagonal", "vertical", "horizontal"]
        gains = gain_vector(scene, (dmap.xs[ix], dmap.ys[iy], z), dmap.filter_index)
        if not seq or _has_near_tied_gains(gains):
            out.append(cell.order)
            continue
        order = dmap.cells[(u + nx - 1) // 2 * ny + (v + ny - 1) // 2].order
        if order.outage:
            out.append(outage_order(table.n_layers))
            continue
        for t in reversed(seq):
            order = apply_layer_permutation(order, perms[t])
        out.append(order)
    return out


# ---------------------------------------------------------------------------
# Truncated-Gaussian moments by quadrature


def tg_quadrature(mu: float, nu: float, peak: float):
    """(rho, mean, var, phi) of a Gaussian truncated to [0, peak]."""

    def density(x):
        return math.exp(-0.5 * ((x - mu) / nu) ** 2) / (nu * math.sqrt(2 * math.pi))

    mass, _ = quad(density, 0.0, peak, limit=200)
    rho = 1.0 / mass

    def f(x):
        return rho * density(x)

    mean, _ = quad(lambda x: x * f(x), 0.0, peak, limit=200)
    var, _ = quad(lambda x: (x - mean) ** 2 * f(x), 0.0, peak, limit=200)
    entropy, _ = quad(lambda x: -f(x) * math.log(f(x)), 0.0, peak, limit=200)
    phi = 0.5 * math.log(2 * math.pi * math.e * nu**2) - entropy
    return rho, mean, var, phi


# ---------------------------------------------------------------------------
# Achievable rate through explicit covariance algebra


def covariance_rate(model: RateModel, signal, noise) -> float:
    """Stage-by-stage mutual information from assembled joint covariances.

    For each signal layer (ascending) the observation is formed from the
    full joint covariance of all layer inputs plus the channel noise; the
    conditional variance comes from a Schur complement computed with
    generic matrix algebra rather than the package's suffix-sum shortcut.
    """
    sig = sorted(signal)
    noi = sorted(noise)
    L = model.n_layers
    C = np.diag(model.var)  # independent layer inputs
    total = 0.0
    for m_idx, m in enumerate(sig):
        # Layers still treated as noise at this stage.
        active = sig[m_idx:] + noi
        w = np.zeros(L)
        w[active] = model.gains[active]
        var_y = float(w @ C @ w) + model.noise_var
        cov_xy = float(C[m] @ w)
        joint = np.array([[C[m, m], cov_xy], [cov_xy, var_y]])
        cond = joint[0, 0] - joint[0, 1] * float(
            np.linalg.solve(joint[1:, 1:], joint[1:, 0])[0]
        )
        h_x = 0.5 * math.log(2 * math.pi * math.e * model.nu2[m]) - model.phi[m]
        h_x_given_y = 0.5 * math.log(2 * math.pi * math.e * float(cond))
        total += h_x - h_x_given_y
    return total / LN2


# ---------------------------------------------------------------------------
# Brute force over group-ordered partitions


def ordered_partitions(items, tau):
    """All ordered partitions of ``items`` into blocks of size <= tau."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    rest = items[1:]
    for size in range(0, min(tau, len(items))):
        for extra in itertools.combinations(rest, size):
            block = tuple(sorted((first,) + extra))
            remaining = [x for x in rest if x not in extra]
            for tail in ordered_partitions(remaining, tau):
                yield [block] + tail
                # The block can also appear later in the order: generate by
                # inserting it at every position of the tail.
                for pos in range(len(tail)):
                    yield tail[: pos + 1] + [block] + tail[pos + 1 :]


def gaussian_surrogate(model: RateModel) -> RateModel:
    """Same second-order statistics with exact-Gaussian inputs."""
    return replace(model, nu2=model.var.copy(), phi=np.zeros_like(model.phi))


def naive_rate(model: RateModel, signal, noise, clamp=True) -> float:
    """Plain-loop version of the closed-form sum rate (bits)."""
    sig = sorted(signal)
    nats = 0.0
    for i, m in enumerate(sig):
        denom = model.noise_var
        for j in sig[i:]:
            denom += model.gains[j] ** 2 * model.var[j]
        for g in noise:
            denom += model.gains[g] ** 2 * model.var[g]
        cond = model.var[m] - (model.gains[m] ** 2 * model.var[m] ** 2) / denom
        nats += 0.5 * (math.log(model.nu2[m]) - math.log(cond)) - model.phi[m]
    rate = nats / LN2
    if clamp and rate < 0.0:
        return 0.0
    return rate


def rates_for_order(model: RateModel, groups, clamp=True) -> dict[int, float]:
    """Per-layer rates of a fixed decoding order, the slow way.

    Stage m's group gets the worst per-layer naive rate over its non-empty
    subsets with all later groups as noise.
    """
    out: dict[int, float] = {}
    for m, grp in enumerate(groups):
        later = [k for g in groups[m + 1 :] for k in g]
        best = math.inf
        for size in range(1, len(grp) + 1):
            for sub in itertools.combinations(grp, size):
                val = naive_rate(model, sub, later, clamp=clamp) / len(sub)
                best = min(best, val)
        for k in grp:
            out[k] = best
    return out


def bitmask_subsets(members, max_size):
    """Non-empty subsets of at most ``max_size`` members, ascending bitmask."""
    subs = [
        sub
        for size in range(1, min(max_size, len(members)) + 1)
        for sub in itertools.combinations(sorted(members), size)
    ]
    return sorted(subs, key=lambda sub: sum(1 << k for k in sub))


def tie_pick(vals, subs, tiebreak) -> int:
    """The package's tie rule, one candidate at a time.

    Values within ``TIE_RTOL`` of the least tie; the tied set with the
    smallest summed key row wins, then the earliest.  Without keys, or at a
    -inf least value, the first least value wins.
    """
    best = min(vals)
    if tiebreak is None or not math.isfinite(best):
        return vals.index(best)
    tol = TIE_RTOL * max(abs(best), 1.0)
    tied = [c for c, v in enumerate(vals) if v <= best + tol]
    return min(tied, key=lambda c: (tuple(tiebreak[list(subs[c])].sum(axis=0)), c))


def greedy_groups(model: RateModel, tau):
    """Scalar greedy max-min order: groups in decode order and their rates.

    Each step scores every candidate set of the remaining layers with
    ``naive_rate`` against the extracted layers as noise.
    """
    remaining = [k for k in range(model.n_layers) if model.gains[k] != 0.0]
    extracted: list[int] = []
    taken = []
    rates = np.full(model.n_layers, np.nan)
    while remaining:
        subs = bitmask_subsets(remaining, tau)
        vals = [naive_rate(model, sub, extracted, clamp=False) / len(sub) for sub in subs]
        c = tie_pick(vals, subs, model.tiebreak)
        taken.append(subs[c])
        rates[list(subs[c])] = max(vals[c], 0.0)
        remaining = [k for k in remaining if k not in subs[c]]
        extracted.extend(subs[c])
    return list(reversed(taken)), rates


def set_margin(model: RateModel, signal, noise, rates) -> float:
    """Least ``(R(D, noise) - sum(rates[D])) / |D|`` over non-empty D of ``signal``.

    R is the clamped ``naive_rate``; an infinite allocation gives -inf.
    """
    return min(
        (naive_rate(model, sub, noise) - sum(float(rates[k]) for k in sub)) / len(sub)
        for sub in bitmask_subsets(signal, len(signal))
    )


def margin_increments(model: RateModel, table: LayerTable, tx, rhat, tau) -> np.ndarray:
    """Scalar margin-greedy pass of the rate update for one served user.

    Extracts the set of least ``set_margin`` at each step and records the
    margin on its layers from the first set holding an own layer on.
    """
    remaining = [k for k in range(model.n_layers) if model.gains[k] != 0.0]
    own = set(np.flatnonzero(table.tx == tx).tolist())
    extracted: list[int] = []
    out = np.full(model.n_layers, np.inf)
    seen_own = False
    while remaining:
        subs = bitmask_subsets(remaining, tau)
        vals = [set_margin(model, sub, extracted, rhat) for sub in subs]
        c = tie_pick(vals, subs, model.tiebreak)
        seen_own = seen_own or bool(own & set(subs[c]))
        if seen_own:
            out[list(subs[c])] = vals[c]
        remaining = [k for k in remaining if k not in subs[c]]
        extracted.extend(subs[c])
    return out


def normalized_distance(order_src, order_dst, model_dst: RateModel) -> float:
    """Normalized rate loss of reusing one cell's order at another cell.

    The source order's ``rates_for_order`` at the destination, zero on
    layers the destination cannot detect or the order leaves out, against
    the destination's own rates.
    """
    ref = np.zeros(model_dst.n_layers)
    ref[list(order_dst.detectable)] = order_dst.rates[list(order_dst.detectable)]
    mimic = np.zeros(model_dst.n_layers)
    for k, rate in rates_for_order(model_dst, order_src.groups).items():
        mimic[k] = rate
    mimic[model_dst.gains == 0.0] = 0.0
    norm = float(np.linalg.norm(ref))
    diff = float(np.linalg.norm(ref - mimic))
    if norm == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / norm


def best_min_rate(model: RateModel, layers, tau, clamp=True) -> float:
    """Max over group-ordered partitions of the minimum per-layer rate."""
    best = -math.inf
    for groups in ordered_partitions(sorted(layers), tau):
        rates = rates_for_order(model, groups, clamp=clamp)
        best = max(best, min(rates.values()))
    return best


def exhaustive_assignments(candidates: dict[int, list[int]]):
    """All injective user->transmitter choices (users may stay unassigned
    only when every candidate is taken)."""
    users = sorted(candidates)

    def rec(idx, used, cur):
        if idx == len(users):
            yield dict(cur)
            return
        j = users[idx]
        free = [tx for tx in candidates[j] if tx not in used]
        if not free:
            yield from rec(idx + 1, used, cur)
            return
        for tx in free:
            used.add(tx)
            cur[j] = tx
            yield from rec(idx + 1, used, cur)
            del cur[j]
            used.remove(tx)

    yield from rec(0, set(), {})


# ---------------------------------------------------------------------------
# GA association: per-genome fitness and conflict repair


# Each problem's candidate rows, rebuilt once from its decoding orders.
_ROWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _candidate_row(problem, j: int, c: int) -> np.ndarray:
    rows = _ROWS.setdefault(problem, {})
    if (j, c) not in rows:
        rows[j, c] = local_rate_vector(problem.orders[j], problem.table, problem.candidates[j][c])
    return rows[j, c]


def assignment_evaluate(problem, choice: dict[int, int]) -> tuple[float, np.ndarray]:
    """Loop reference for ``_AssignmentProblem.evaluate``.

    Folds the chosen users' local rows, rebuilt from their decoding orders,
    and sums each user's finite own-layer rates one user at a time.
    """
    table = problem.table
    rbar = np.min(np.stack([_candidate_row(problem, j, c) for j, c in choice.items()]), axis=0)
    total = 0.0
    for j, c in choice.items():
        own = np.flatnonzero(table.tx == problem.candidates[j][c])
        vals = rbar[own]
        total += float(vals[np.isfinite(vals)].sum())
    return total, rbar


def assignment_repair(problem, genome: np.ndarray) -> dict[int, int]:
    """Loop reference for ``_AssignmentProblem.repair``.

    The first user naming a transmitter keeps it; a later one falls back on
    its unused candidate with the largest own-layer rate sum, ties toward the
    lower transmitter, and stays unserved when every candidate is taken.
    """
    used: set[int] = set()
    choice: dict[int, int] = {}
    for j in problem.active:
        cands = problem.candidates[j]
        c = int(genome[j]) % len(cands)
        if cands[c] in used:
            sums = np.empty(len(cands))
            for alt, tx in enumerate(cands):
                row = _candidate_row(problem, j, alt)
                own = row[np.flatnonzero(problem.table.tx == tx)]
                sums[alt] = own[np.isfinite(own)].sum()
            best = None
            for alt in np.argsort(-sums, kind="stable"):
                if cands[int(alt)] not in used:
                    best = int(alt)
                    break
            if best is None:
                continue
            c = best
        used.add(cands[c])
        choice[j] = c
    return choice


def ga_reference_solve(problem, ga) -> tuple[float, dict[int, int]]:
    """Per-genome GA loop: the trajectory reference for ``solve_association``.

    Each genome is repaired by :func:`assignment_repair` and scored by
    :func:`assignment_evaluate` (``-inf`` when nothing is served) as soon as
    it is bred; each tournament draws both contestants in one call and the
    first of two equal fitnesses wins.  Returns the best restart's
    objective and choice, before any brute-force cross-check.
    """
    n_users = len(problem.candidates)
    sizes = np.array([max(len(c), 1) for c in problem.candidates])

    def one_run(rng: np.random.Generator) -> tuple[float, dict[int, int]]:
        pop = np.stack([rng.integers(0, sizes) for _ in range(ga.population)])
        fitness = np.empty(ga.population)
        choices: list[dict[int, int]] = [{}] * ga.population

        def score(i: int) -> None:
            choices[i] = assignment_repair(problem, pop[i])
            fitness[i] = assignment_evaluate(problem, choices[i])[0] if choices[i] else -math.inf

        for i in range(ga.population):
            score(i)
        for _ in range(ga.generations):
            elite = np.argsort(-fitness, kind="stable")[: ga.elitism]
            new = [pop[e].copy() for e in elite]
            new.extend(rng.integers(0, sizes) for _ in range(ga.immigrants))
            while len(new) < ga.population:
                a = rng.integers(0, ga.population, 2)
                b = rng.integers(0, ga.population, 2)
                p1 = pop[a[np.argmax(fitness[a])]]
                p2 = pop[b[np.argmax(fitness[b])]]
                child = p1.copy()
                if rng.random() < ga.crossover_rate:
                    mask = rng.random(n_users) < 0.5
                    child[mask] = p2[mask]
                mut = rng.random(n_users) < ga.mutation_rate
                if mut.any():
                    child[mut] = rng.integers(0, sizes)[mut]
                new.append(child)
            pop = np.stack(new)
            for i in range(ga.population):
                score(i)
        best = int(np.argmax(fitness))
        return float(fitness[best]), choices[best]

    val, choice = -math.inf, None
    for r in range(ga.restarts):
        run_val, run_choice = one_run(np.random.default_rng((ga.seed, r)))
        if run_val > val:
            val, choice = run_val, run_choice
    return val, choice


# ---------------------------------------------------------------------------
# Map size reduction


def cell_distance_matrix(
    orders: list[DecodingOrder],
    layer_gains: np.ndarray,
    table: LayerTable,
    noise_var: float,
) -> np.ndarray:
    """d[i, j] = normalized rate loss of using cell i's order at cell j.

    Per-cell reference for ``decmap._distance_matrix``: one pass per source
    cell, so cells sharing a decoding order recompute the same row.
    """
    n = len(orders)
    L = table.n_layers
    pw = layer_gains**2 * table.var          # (n, L)
    ref = np.zeros((n, L))
    for r, o in enumerate(orders):
        idx = list(o.detectable)
        ref[r, idx] = o.rates[idx]
    ref_norm = np.linalg.norm(ref, axis=1)
    log_nu2 = np.log(table.nu**2)
    var = table.var
    phi = table.phi
    out = np.empty((n, n))
    for i in range(n):
        groups = orders[i].groups
        seq = [k for g in groups for k in g]  # decode order, stage 0 first
        p = pw[:, seq]
        suffix = np.concatenate(
            [np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:], np.zeros((n, 1))], axis=1
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            if len(seq) == len(groups):  # one layer per stage
                vals = _stage_rates(log_nu2[seq], var[seq], phi[seq], p, p + suffix + noise_var)
            else:
                vals = _group_rates(groups, pw, suffix + noise_var, log_nu2, var, phi)
        np.maximum(vals, 0.0, out=vals)
        vals[p == 0.0] = 0.0
        mimic = np.zeros((n, L))
        mimic[:, seq] = vals
        diff = np.linalg.norm(ref - mimic, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[i] = np.where(
                ref_norm > 0.0, diff / ref_norm, np.where(diff == 0.0, 0.0, np.inf)
            )
    return out


def peel_reference(dist: np.ndarray, order_id: np.ndarray, stalls: list | None = None):
    """Per-cell reference for ``decmap._peel_categories``.

    Every pass averages every category again, one row per member cell over
    a (cells x cells) gather.  Each time the stall fallback runs, ``stalls``
    (if given) gets the size of the remaining set it splits.
    """
    cats: list[list[int]] = [list(range(order_id.size))]
    while True:
        new: list[list[int]] = []
        for cat in cats:
            avg = dist[np.ix_(order_id[cat], cat)].mean(axis=1)
            if avg.max() <= TAU_LOSS:
                new.append(cat)
                continue
            # The remaining members (cell ids) and their averages, in step.
            rem = np.array(cat)
            while rem.size:
                grp = np.abs(avg[0] - avg) < TAU_DIFF
                if grp.all() and rem.size > 1:
                    sub = dist[np.ix_(order_id[rem], rem)]
                    if sub.mean(axis=1).max() > TAU_LOSS:
                        # Mirror-image cells have exactly equal average
                        # distances and stall the tie peel; fall back to
                        # keeping the head's TAU_LOSS-ball together.  The
                        # head always peels, so every pass shrinks ``rem``.
                        grp = dist[order_id[rem[0]], rem] <= TAU_LOSS
                        grp[0] = True
                        if stalls is not None:
                            stalls.append(rem.size)
                new.append(rem[grp].tolist())
                rem, avg = rem[~grp], avg[~grp]
        if len(new) == len(cats):
            return new
        cats = new


def max_average_loss(clusters, dist_fn) -> float:
    """Largest within-cluster average distance, one pair at a time."""
    worst = 0.0
    for members in clusters:
        if len(members) < 2:
            continue
        for i in members:
            avg = sum(dist_fn(i, j) for j in members) / len(members)
            worst = max(worst, avg)
    return worst
