"""Transmitter-user association and iterative rate refinement.

Each user is matched to exactly one transmitter (a transmitter serves at
most one user); the global per-layer rate vector is the elementwise minimum
of the users' local vectors, with layers a user discards (decoded after its
own signal completes, or undetectable) set to +inf so they do not bind.  The
0-1 assignment maximizing the sum rate is searched with a genetic algorithm;
a second phase redistributes margins with the iterative update pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channel import check_filter_index
from .cpgd import DecodingOrder, _extract, detectable_layers, greedy_order
from .decmap import DecodingMap
from .errors import InfeasibleError, InvalidParameterError
from .rates import RateModel, _candidate_sets, _set_margins, model_at_position
from .signaling import LayerTable


# ---------------------------------------------------------------------------
# Decoding-order providers


class MapLookupSolver:
    """Order lookup on a prebuilt decoding map (positions at its samples)."""

    def __init__(self, dmap: DecodingMap):
        self.dmap = dmap

    def order_at(self, position) -> DecodingOrder:
        """The order of the map cell at ``position`` (:meth:`DecodingMap.cell_at`)."""
        return self.dmap.cell_at(position[0], position[1], position[2]).order


class DirectSolver:
    """Greedy solve at arbitrary 3D positions, with caching."""

    def __init__(self, scene, table: LayerTable, filter_index: int, tau: int = 1):
        check_filter_index(scene, filter_index)
        self.scene = scene
        self.table = table
        self.filter_index = filter_index
        self.tau = tau
        self._cache: dict[tuple[float, ...], DecodingOrder] = {}

    def order_at(self, position) -> DecodingOrder:
        key = tuple(float(p) for p in position)
        if key not in self._cache:
            model = model_at_position(self.scene, self.table, position, self.filter_index)
            self._cache[key] = greedy_order(model, tau=self.tau)
        return self._cache[key]


# ---------------------------------------------------------------------------
# Truncation and the global rate fold

# Relative tolerance under which a following stage's rate ties the user's own.
_DEPTH_RTOL = 1e-9


def truncate_depth(order: DecodingOrder, table: LayerTable, tx: int) -> int:
    """Last decoding stage (0-based) the user decodes for the given transmitter.

    The base depth is the last stage containing one of the transmitter's
    layers; raises if the transmitter is undetectable at the order's position.
    Tied stages have no canonical sequence (the greedy breaks exact ties by
    the model's geometric keys, or by layer id without keys), so the depth
    extends through any following stages whose stored rate ties the base
    stage's within ``_DEPTH_RTOL``.  The stored rates are clamped at 0, so
    an own stage of rate 0 keeps the following stages of rate 0, up to the
    first one with a positive rate.
    """
    depth = -1
    for m, grp in enumerate(order.groups):
        if any(table.tx[k] == tx for k in grp):
            depth = m
    if depth < 0:
        raise InfeasibleError(f"transmitter {tx} undetectable in this order")
    own_rate = float(order.rates[order.groups[depth][0]])
    tol = _DEPTH_RTOL * max(abs(own_rate), 1.0)
    while depth + 1 < len(order.groups):
        nxt = float(order.rates[order.groups[depth + 1][0]])
        if abs(nxt - own_rate) > tol:
            break
        depth += 1
    return depth


def local_rate_vector(order: DecodingOrder, table: LayerTable, tx: int) -> np.ndarray:
    """User's local per-layer rates with discarded layers at +inf.

    Layers in stages after the truncation depth and layers undetectable at
    the position never bind the global fold.
    """
    out = np.full(table.n_layers, np.inf)
    depth = truncate_depth(order, table, tx)
    for grp in order.groups[: depth + 1]:
        for k in grp:
            out[k] = order.rates[k]
    return out


def user_rates(assignment, rates: np.ndarray, table: LayerTable) -> list[float]:
    """Each user's rate: its transmitter's finite layer rates summed (NaN unserved)."""
    out = []
    for tx in assignment:
        if tx < 0:
            out.append(float("nan"))
            continue
        vals = rates[np.flatnonzero(table.tx == tx)]
        out.append(float(vals[np.isfinite(vals)].sum()))
    return out


def sum_rate(rates: np.ndarray, table: LayerTable, assignment) -> float:
    """Sum-rate objective: the served users' :func:`user_rates`, added in user order.

    This is the accumulation of :meth:`_AssignmentProblem.evaluate_batch`, so an
    association's objective is exactly the sum rate of its global rates.
    """
    total = 0.0
    for rate in user_rates(assignment, rates, table):
        if not math.isnan(rate):
            total += rate
    return total


# ---------------------------------------------------------------------------
# Association search


@dataclass
class GAConfig:
    """The GA's sizes and seed; its operators are fixed class constants."""

    population: int = 64
    generations: int = 200
    seed: int = 0
    crossover_rate: ClassVar[float] = 0.8
    mutation_rate: ClassVar[float] = 0.05
    elitism: ClassVar[int] = 2
    # Fresh random genomes injected per generation; keeps the population from
    # fixating on a local optimum of the fold-coupled objective.
    immigrants: ClassVar[int] = 4
    # Independent GA runs; the best final answer wins.  Restarts tame the
    # run-to-run variance of the search on large candidate spaces.
    restarts: ClassVar[int] = 3
    # When the number of candidate choice combinations is at most this, the
    # GA answer is cross-checked against brute force and the better one wins.
    exhaustive_limit: ClassVar[int] = 5000

    def validate(self) -> None:
        least = self.elitism + self.immigrants
        if self.population < least:
            raise InvalidParameterError(
                f"GA population {self.population} is below {least}, the elite and "
                "immigrant genomes of each generation"
            )
        if self.generations < 1:
            raise InvalidParameterError("need at least one GA generation")
        if self.seed < 0:
            raise InvalidParameterError(f"GA seed {self.seed} is negative")


@dataclass
class Association:
    """Result of the assignment search."""

    assignment: np.ndarray          # (N_r,) transmitter per user, -1 = unserved
    rbar: np.ndarray                # (L,) global rates, +inf where unbound
    objective: float
    depths: np.ndarray              # (N_r,) truncation stage per user, -1 unserved


class _AssignmentProblem:
    """Per-user candidate transmitters and their discarded-rate rows.

    ``__init__`` precomputes, once per problem:

    - ``candidates``: each user's candidate transmitters, ascending (empty
      for a user in outage);
    - ``rows``: the candidate local rate vectors of all users as one
      ``(n_users, max_cands + 1, L + 1)`` array, padded with ``+inf``; the
      extra last candidate slot, all ``+inf``, stands for a user left
      unserved, and the extra last column is ``+inf`` for every candidate;
    - ``own``: per user and candidate, the candidate transmitter's layer ids
      (``table.layers_per_tx`` of them); a slot of no candidate holds ``L``,
      the index of that extra ``+inf`` column;
    - ``preference``: each user's candidate indices by descending own-layer
      rate sum, ties toward the lower transmitter (a stable sort).

    The GA calls ``repair`` once per genome, a walk over Python lists, and
    scores a whole generation's choices in one ``evaluate_batch`` pass of
    array gathers; ``evaluate`` is a batch of one.
    """

    def __init__(self, solver, table: LayerTable, user_positions):
        self.table = table
        self.orders = [solver.order_at(p) for p in user_positions]
        n_layers = table.n_layers
        # Row tx: transmitter tx's layer ids.
        own_layers = np.arange(n_layers).reshape(-1, table.layers_per_tx)
        self.candidates: list[list[int]] = []
        local: list[list[np.ndarray]] = []
        for order in self.orders:
            txs = sorted({int(table.tx[k]) for k in order.detectable})
            self.candidates.append(txs)
            local.append([local_rate_vector(order, table, tx) for tx in txs])
        self.active = [j for j, c in enumerate(self.candidates) if c]
        if not self.active:
            raise InfeasibleError("all users are in outage")

        n_users = len(self.candidates)
        max_cands = max(len(c) for c in self.candidates)
        self.rows = np.full((n_users, max_cands + 1, n_layers + 1), np.inf)
        self.own = np.full((n_users, max_cands + 1, table.layers_per_tx), n_layers)
        self.preference: list[list[int]] = []
        for j, txs in enumerate(self.candidates):
            sums = np.empty(len(txs))
            for c, tx in enumerate(txs):
                row, own = local[j][c], own_layers[tx]
                self.rows[j, c, :n_layers] = row
                self.own[j, c] = own
                sums[c] = row[own][np.isfinite(row[own])].sum()
            self.preference.append(np.argsort(-sums, kind="stable").tolist())

    def evaluate_batch(self, choices: list[dict[int, int]]) -> tuple[np.ndarray, np.ndarray]:
        """Objectives ``(P,)`` and global rate vectors ``(P, L)`` of P choices.

        A user a choice leaves out takes the all-``+inf`` candidate slot, which
        neither binds the fold nor adds to the objective; a choice serving
        nobody scores ``-inf``.  Each user's own-layer sum adds its finite
        entries in layer order with the others as zeros, which numpy sums
        sequentially for fewer than 8 layers per transmitter; the users' sums
        accumulate column by column in user order: the array form of
        :func:`sum_rate`.
        """
        unserved = self.rows.shape[1] - 1
        picks = np.array([[choice.get(j, unserved) for j in self.active] for choice in choices])
        users = np.array(self.active)
        folded = np.minimum.reduce(self.rows[users, picks], axis=1)
        own = folded[np.arange(len(choices))[:, None, None], self.own[users, picks]]
        sums = np.where(np.isfinite(own), own, 0.0).sum(axis=2)
        total = np.zeros(len(choices))
        for col in sums.T:
            total += col
        total[(picks == unserved).all(axis=1)] = -np.inf
        return total, folded[:, :-1]

    def evaluate(self, choice: dict[int, int]) -> tuple[float, np.ndarray]:
        """Objective and global rate vector of one per-user candidate choice."""
        total, rbar = self.evaluate_batch([choice])
        return float(total[0]), rbar[0]

    def repair(self, genome: np.ndarray) -> dict[int, int]:
        """Resolve transmitter conflicts deterministically (first keeps it)."""
        genes = genome.tolist()
        used: set[int] = set()
        choice: dict[int, int] = {}
        for j in self.active:
            cands = self.candidates[j]
            c = genes[j] % len(cands)
            if cands[c] in used:
                # Best own-rate unused candidate; ties toward lower tx index.
                for c in self.preference[j]:
                    if cands[c] not in used:
                        break
                else:
                    continue
            used.add(cands[c])
            choice[j] = c
        return choice

    def to_assignment(self, choice: dict[int, int]) -> np.ndarray:
        out = np.full(len(self.candidates), -1, dtype=int)
        for j, c in choice.items():
            out[j] = self.candidates[j][c]
        return out


def exhaustive_association(problem: _AssignmentProblem) -> tuple[float, dict[int, int]]:
    """Brute force over all injective candidate choices (small instances)."""
    best_val, best_choice = -math.inf, None
    users = problem.active

    def rec(idx: int, used: set[int], choice: dict[int, int]):
        nonlocal best_val, best_choice
        if idx == len(users):
            if choice:
                val, _ = problem.evaluate(choice)
                if val > best_val:
                    best_val, best_choice = val, dict(choice)
            return
        j = users[idx]
        assigned_any = False
        for c, tx in enumerate(problem.candidates[j]):
            if tx in used:
                continue
            assigned_any = True
            used.add(tx)
            choice[j] = c
            rec(idx + 1, used, choice)
            del choice[j]
            used.remove(tx)
        if not assigned_any:
            rec(idx + 1, used, choice)

    rec(0, set(), {})
    if best_choice is None:
        raise InfeasibleError("no feasible assignment")
    return best_val, best_choice


def solve_association(
    solver,
    user_positions,
    table: LayerTable,
    ga: GAConfig | None = None,
) -> Association:
    """GA search for the sum-rate-maximizing transmitter-user assignment.

    ``solver`` provides decoding orders per position (map lookup or direct).
    Users in outage are left unserved.  The search is reproducible for a
    fixed seed.
    """
    ga = ga or GAConfig()
    ga.validate()
    problem = _AssignmentProblem(solver, table, user_positions)
    n_users = len(problem.candidates)
    sizes = np.array([max(len(c), 1) for c in problem.candidates])

    def one_run(rng: np.random.Generator) -> tuple[float, dict[int, int]]:
        P = ga.population
        pop = np.empty((P, n_users), dtype=np.int64)
        for i in range(P):
            pop[i] = rng.integers(0, sizes)
        choices = [problem.repair(genome) for genome in pop]
        fitness = problem.evaluate_batch(choices)[0]
        new = np.empty_like(pop)

        for _ in range(ga.generations):
            f = fitness.tolist()
            new[: ga.elitism] = pop[np.argsort(-fitness, kind="stable")[: ga.elitism]]
            for i in range(ga.elitism, ga.elitism + ga.immigrants):
                new[i] = rng.integers(0, sizes)
            for i in range(ga.elitism + ga.immigrants, P):
                # Binary tournaments; the first drawn wins a tie.
                a0, a1 = rng.integers(0, P), rng.integers(0, P)
                b0, b1 = rng.integers(0, P), rng.integers(0, P)
                p2 = pop[b0 if f[b0] >= f[b1] else b1]
                child = new[i]
                child[:] = pop[a0 if f[a0] >= f[a1] else a1]
                if rng.random() < ga.crossover_rate:
                    np.copyto(child, p2, where=rng.random(n_users) < 0.5)
                mut = rng.random(n_users) < ga.mutation_rate
                if np.count_nonzero(mut):
                    np.copyto(child, rng.integers(0, sizes), where=mut)
            pop, new = new, pop
            choices = [problem.repair(genome) for genome in pop]
            fitness = problem.evaluate_batch(choices)[0]

        best = int(np.argmax(fitness))
        return float(fitness[best]), choices[best]

    val, choice = -math.inf, None
    for r in range(ga.restarts):
        run_val, run_choice = one_run(np.random.default_rng((ga.seed, r)))
        if run_val > val:
            val, choice = run_val, run_choice
    val, rbar = problem.evaluate(choice)

    combos = 1
    for j in problem.active:
        combos *= len(problem.candidates[j])
        if combos > ga.exhaustive_limit:
            break
    if combos <= ga.exhaustive_limit:
        opt_val, opt_choice = exhaustive_association(problem)
        if opt_val > val:
            choice = opt_choice
            val, rbar = problem.evaluate(choice)
    assignment = problem.to_assignment(choice)
    depths = np.full(n_users, -1, dtype=int)
    for j, c in choice.items():
        depths[j] = truncate_depth(problem.orders[j], table, problem.candidates[j][c])
    return Association(
        assignment=assignment,
        rbar=rbar,
        objective=val,
        depths=depths,
    )


# ---------------------------------------------------------------------------
# Iterative rate update (phase two)


@dataclass
class RateUpdateResult:
    rates: np.ndarray               # (L,) refined global rates, +inf where unbound
    rounds: int
    converged: bool
    sum_rate: float


def _margin_greedy_user(model: RateModel, table: LayerTable, tx: int, tau: int):
    """One user's extraction pass of the iterative update, as a function of ``rhat``.

    The returned function maps the accumulated rates to the per-layer
    recorded increments (+inf where not recorded).  Each stage extracts the
    candidate set of smallest margin (:func:`_set_margins`) against the
    accumulated rates, with everything extracted before it as noise;
    increments are recorded once a layer of the user's own transmitter has
    been extracted.  The candidate sets do not depend on the rates, so they
    are built once here and each call only gathers their allocations.
    """
    detectable = detectable_layers(model)
    own = set(int(k) for k in np.flatnonzero(table.tx == tx))
    if own.isdisjoint(detectable):
        raise InfeasibleError(f"assigned transmitter {tx} undetectable")
    cands = _candidate_sets(model, detectable, tau)

    def increments(rhat: np.ndarray) -> np.ndarray:
        alloc = np.append(rhat, 0.0)[cands.sets].sum(axis=1)
        out = np.full(table.n_layers, np.inf)
        seen_own = False
        for best, margin in _extract(model, cands, lambda base: _set_margins(cands, alloc, base)):
            seen_own = seen_own or not own.isdisjoint(best)
            if seen_own:
                out[list(best)] = margin
        return out

    return increments


def iterative_rate_update(
    association: Association,
    user_models: list[RateModel | None],
    table: LayerTable,
    tau: int = 1,
    max_rounds: int = 50,
) -> RateUpdateResult:
    """Refine the global rates by repeated per-user margin redistribution.

    Per round every served user rebuilds its order greedily on the
    accumulated rates; the elementwise minimum of the recorded increments is
    added to the global vector until the largest increment falls below
    1e-6 (or ``max_rounds`` is hit, flagged as non-converged).
    """
    rhat = association.rbar.copy()
    passes = [
        _margin_greedy_user(user_models[j], table, int(tx), tau)
        for j, tx in enumerate(association.assignment)
        if tx >= 0
    ]
    rounds = 0
    converged = False
    while rounds < max_rounds:
        rounds += 1
        fold = np.min(np.stack([increments(rhat) for increments in passes]), axis=0)
        finite = np.isfinite(fold)
        rhat[finite] = rhat[finite] + fold[finite]
        if not finite.any() or np.max(np.abs(fold[finite])) < 1e-6:
            converged = True
            break
    return RateUpdateResult(
        rates=rhat,
        rounds=rounds,
        converged=converged,
        sum_rate=sum_rate(rhat, table, association.assignment),
    )
