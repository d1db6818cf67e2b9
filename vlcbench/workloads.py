"""The benchmark workloads: inputs, the timed operation and its output checks.

Every workload calls the package through its modules (``experiments.run_map_experiment``
rather than a name imported into this file), so that the tracer's wrappers
see each call.  ``setup`` builds what the CLI builds before its first call;
``run(i)`` is one timed operation on input ``i``; ``check`` returns the
reasons an output is wrong, empty when it is right.
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from pathlib import Path

import numpy as np

from vlcmap import assoc, channel, decmap, experiments, sceneio, signaling
from vlcmap.errors import InfeasibleError

LAYERS_PER_TX = 2
MAP_CFG = experiments.MapExperimentConfig(filter_index=0, tau=1, layers_per_tx=LAYERS_PER_TX)
GA = assoc.GAConfig()
# GA fitness evaluations per solve: every genome of every generation, plus
# the initial population, in every restart.
GA_EVALS_PER_SOLVE = GA.restarts * (GA.generations + 1) * GA.population

LAYOUTS = {
    "4x4": dict(n_x=4, n_y=4),
    "2x2": dict(n_x=2, n_y=2, spacing_x=0.6, spacing_y=0.6),
    "1x2": dict(n_x=1, n_y=2, spacing_x=0.6, spacing_y=0.6),
}
# (active cells, clusters) the seed commit gives for each map.
MAP_COUNTS = {
    ("4x4", 0.1): (681, 500),
    ("2x2", 0.1): (681, 28),
    ("1x2", 0.1): (519, 4),
    ("4x4", 0.05): (2657, 1070),
}
# The published counts at 0.1 m; the acceptance suite allows 10% either way.
PUBLISHED_COUNTS = {"4x4": (681, 511), "2x2": (681, 28), "1x2": (519, 4)}


def _build_scene(layout: str, sample_gap: float):
    scene = sceneio.reference_scene(sample_gap=sample_gap, **LAYOUTS[layout])
    return scene, signaling.build_layer_set(scene, LAYERS_PER_TX)


def _reuse_share(positions) -> float:
    """Share of user positions already seen earlier in the same operation.

    Positions are compared at 1e-9 m, so an offset reached from two anchors
    counts as one position although its floats differ in the last bits.
    """
    distinct = {tuple(round(c, 9) for c in p) for p in positions}
    return 1.0 - len(distinct) / len(positions)


def _computed(summary: dict) -> int:
    """Directly solved cells of a map; every cell when the map reports no split."""
    return summary.get("n_computed", summary["n_cells"])


def _cell_sum_rates(path: Path) -> list[float]:
    """Sum rate of every active cell in a cells.csv: a lone user at that cell."""
    with open(path, newline="") as fh:
        return [float(row["sum_rate"]) for row in csv.DictReader(fh) if row["outage"] == "0"]


class Workload:
    """One set of inputs; a subclass fills in set-up, the operation and checks."""

    # True when every operation gets the same input.
    same_input = True
    # Inputs per round: a run measures whole rounds, so every run has the
    # same mix of inputs.
    cycle = 1

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir

    def setup(self) -> None:
        raise NotImplementedError

    def verify_setup(self) -> list[str]:
        return []

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def facts(self, out) -> dict:
        """Per-operation counts taken from inputs and outputs, untimed.

        ``sum_rates``/``min_rates`` feed the quality metrics; the other keys
        feed the traced per-layer table.
        """
        raise NotImplementedError


class MapWorkload(Workload):
    """Build, reduce and save decoding maps with ``run_map_experiment``."""

    def __init__(self, seed, outdir, layouts, sample_gap, reload):
        super().__init__(seed, outdir)
        self.layouts = layouts
        self.sample_gap = sample_gap
        self.reload = reload

    def setup(self) -> None:
        self.scenes = {name: _build_scene(name, self.sample_gap) for name in self.layouts}

    def run(self, i: int):
        out = []
        for name in self.layouts:
            scene, _ = self.scenes[name]
            summary = experiments.run_map_experiment(scene, MAP_CFG, self.outdir / name)
            reloaded = decmap.load_map(self.outdir / name / "map.json") if self.reload else None
            out.append((name, summary, reloaded))
        return out

    def check(self, i, out) -> list[str]:
        bad = []
        for name, s, reloaded in out:
            got = (s["n_active"], s["cluster_count"])
            if got != MAP_COUNTS[(name, self.sample_gap)]:
                bad.append(f"{name}: active/clusters {got} != {MAP_COUNTS[(name, self.sample_gap)]}")
            if self.sample_gap == 0.1:
                for value, ref in zip(got, PUBLISHED_COUNTS[name]):
                    if abs(value - ref) > 0.1 * ref:
                        bad.append(f"{name}: {value} outside the acceptance band of {ref}")
            if _computed(s) + s.get("n_derived", 0) != s["n_cells"]:
                bad.append(f"{name}: computed + derived cells != all cells")
            if reloaded is not None:
                labels = {c.cluster for c in reloaded.cells if not c.order.outage}
                if (
                    len(reloaded.cells) != s["n_cells"]
                    or reloaded.n_active != s["n_active"]
                    or reloaded.cluster_count != s["cluster_count"]
                    or labels != set(range(s["cluster_count"]))
                ):
                    bad.append(f"{name}: reloaded map differs from the built one")
        return bad

    def facts(self, out) -> dict:
        # A map cell serves one user, so a cell's sum rate is that user's rate
        # and the least over the map is the worst-placed user's.
        sums, mins = [], []
        for name, _, _ in out:
            cell_rates = _cell_sum_rates(self.outdir / name / "cells.csv")
            sums += cell_rates
            mins.append(min(cell_rates))
        summaries = [s for _, s, _ in out]
        active = [s["n_active"] for s in summaries]
        return {
            "sum_rates": sums,
            "min_rates": mins,
            "computed_cells": [_computed(s) for s in summaries],
            "derived_share": sum(s.get("n_derived", 0) for s in summaries)
            / sum(s["n_cells"] for s in summaries),
            "active_cells": max(active),
            "dist_bytes": max(active) ** 2 * 8,
            "compression_ratio": 1.0 - sum(s["cluster_count"] for s in summaries) / sum(active),
            "map_bytes": sum((self.outdir / n / "map.json").stat().st_size for n, _, _ in out),
        }


def _record_results(module, name: str, sink: list) -> None:
    """Append every result of ``module.name`` to ``sink``, at each binding of it.

    The sweep driver keeps its associations to itself; recording them lets
    the check see each assignment.  ``functools.wraps`` keeps the function's
    name and module, so the tracer still wraps it as a layer function.
    """
    original = getattr(module, name)

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("vlcmap."):
            for alias, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, alias, recorded)


class SweepWorkload(Workload):
    """``run_sweep_experiment`` over a fixed anchor window, orders from a map."""

    # 3x2 anchors from the array centre.  The user grid has a 0.2 m pitch, so
    # anchors 0.2 m apart share three quarters of a row of user positions.
    A_RANGE = (0.0, 0.2)
    B_RANGE = (0.0, 0.1)
    STEP = 0.1

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.solved: list = []
        _record_results(assoc, "solve_association", self.solved)

    def setup(self) -> None:
        self.scene, self.table = _build_scene("4x4", 0.1)
        self.dmap = decmap.build_map(self.scene, self.table, MAP_CFG.filter_index)
        self.cfg = experiments.SweepConfig(
            plane="xy",
            a_range=self.A_RANGE,
            b_range=self.B_RANGE,
            step=self.STEP,
            fixed=self.scene.plane.height,
            assoc=experiments.AssocExperimentConfig(
                layers_per_tx=LAYERS_PER_TX, ga=assoc.GAConfig(seed=self.seed)
            ),
        )

    def anchors(self) -> list[tuple[float, float, float]]:
        """The window's anchors, spaced as ``run_sweep_experiment`` spaces them."""
        def axis(lo, hi):
            return lo + self.STEP * np.arange(int(round((hi - lo) / self.STEP)) + 1)

        a, b = axis(*self.A_RANGE), axis(*self.B_RANGE)
        return [(float(x), float(y), self.cfg.fixed) for x in a for y in b]

    def positions(self) -> list[tuple[float, float, float]]:
        return [p for anchor in self.anchors() for p in experiments.user_grid(anchor)]

    def verify_setup(self) -> list[str]:
        """Map lookup must give the direct solve's order at every user position."""
        lookup = assoc.MapLookupSolver(self.dmap)
        direct = assoc.DirectSolver(self.scene, self.table, MAP_CFG.filter_index, MAP_CFG.tau)
        bad = []
        for p in dict.fromkeys(self.positions()):
            got, want = lookup.order_at(p), direct.order_at(p)
            if got.outage != want.outage or got.groups != want.groups or not np.allclose(
                got.rates, want.rates, rtol=1e-9, atol=0.0, equal_nan=True
            ):
                bad.append(f"map order at {p} differs from the direct solve")
        return bad

    def run(self, i: int):
        self.solved.clear()
        rows = experiments.run_sweep_experiment(self.scene, self.cfg, self.outdir, dmap=self.dmap)
        return rows, list(self.solved)

    def check(self, i, out) -> list[str]:
        rows, solved = out
        bad = []
        if len(rows) != len(self.anchors()):
            bad.append(f"{len(rows)} rows for {len(self.anchors())} anchors")
        for r in rows:
            where = f"anchor ({r['a']:.1f}, {r['b']:.1f})"
            if r["n_served"] < 1:
                bad.append(f"{where}: nobody served")
            if r["sum_rate"] < r["sum_rate_assoc"] - 1e-9:
                bad.append(f"{where}: refinement lost sum rate")
            if not 0 < r["rounds"] < self.cfg.assoc.max_rounds:
                bad.append(f"{where}: refinement did not converge")
        if len(solved) != len(rows):
            bad.append("association results do not match the sweep rows")
        for result, r in zip(solved, rows):
            served = [int(t) for t in result.assignment if t >= 0]
            if len(served) != len(set(served)) or len(served) != r["n_served"]:
                bad.append(f"anchor ({r['a']:.1f}, {r['b']:.1f}): assignment not injective")
        return bad

    def facts(self, out) -> dict:
        rows, _ = out
        positions = self.positions()
        return {
            "sum_rates": [r["sum_rate"] for r in rows],
            "min_rates": [r["min_user_rate"] for r in rows if not math.isnan(r["min_user_rate"])],
            "served_users": sum(r["n_served"] for r in rows),
            "refine_rounds": [r["rounds"] for r in rows],
            # Sweep rows carry no converged flag; stopping below the round
            # cap means the refinement converged.
            "refine_converged": [r["rounds"] < self.cfg.assoc.max_rounds for r in rows],
            "position_reuse_share": _reuse_share(positions),
        }


class ScatterWorkload(Workload):
    """``run_assoc_experiment`` with direct solves on seeded random placements."""

    same_input = False
    # Users per placement; a round of inputs has one placement of each size.
    USER_COUNTS = (4, 10, 16)
    cycle = len(USER_COUNTS)
    STRATA = 8  # users land in distinct cells of a STRATA x STRATA plane grid

    def setup(self) -> None:
        self.scene, self.table = _build_scene("4x4", 0.1)
        self.cfg = experiments.AssocExperimentConfig(
            layers_per_tx=LAYERS_PER_TX, ga=assoc.GAConfig(seed=self.seed)
        )

    def placement(self, i: int) -> list[tuple[float, float, float]]:
        """Users of input ``i``: distinct strata of the plane, jittered by the seed.

        Which strata hold users depends on ``i`` alone and only the position
        inside each stratum on the seed, so every seed puts a similar share of
        users out of the transmitters' reach and the ops cost about the same.
        """
        plane = self.scene.plane
        n = self.USER_COUNTS[i % len(self.USER_COUNTS)]
        cells = np.random.default_rng(i).choice(self.STRATA**2, n, replace=False)
        offsets = np.random.default_rng((self.seed, i)).uniform(0.0, 1.0, (n, 2))
        w, l = plane.width / self.STRATA, plane.length / self.STRATA
        x0, y0 = plane.center_x - plane.width / 2, plane.center_y - plane.length / 2
        return [
            (
                float(x0 + (c // self.STRATA + u) * w),
                float(y0 + (c % self.STRATA + v) * l),
                plane.height,
            )
            for c, (u, v) in zip(cells, offsets)
        ]

    def run(self, i: int):
        users = self.placement(i)
        try:
            return users, experiments.run_assoc_experiment(
                self.scene, users, self.cfg, outdir=self.outdir
            )
        except InfeasibleError:
            return users, None

    def check(self, i, out) -> list[str]:
        users, res = out
        if res is None:
            lit = [
                p for p in users
                if channel.gain_vector(self.scene, p, self.cfg.filter_index).any()
            ]
            return [f"infeasible although {len(lit)} users see a transmitter"] if lit else []
        served = [t for t in res["assignment"] if t >= 0]
        bad = []
        if len(served) != len(set(served)) or len(served) != res["n_served"]:
            bad.append("assignment not injective")
        if res["sum_rate"] < res["sum_rate_assoc"] - 1e-9:
            bad.append("refinement lost sum rate")
        if not res["converged"]:
            bad.append("refinement did not converge")
        return bad

    def facts(self, out) -> dict:
        users, res = out
        if res is None:
            return {"sum_rates": [], "min_rates": [], "served_users": 0,
                    "refine_rounds": [], "refine_converged": [],
                    "position_reuse_share": _reuse_share(users)}
        return {
            "sum_rates": [res["sum_rate"]],
            "min_rates": [res["min_user_rate"]] if res["n_served"] else [],
            "served_users": res["n_served"],
            "refine_rounds": [res["rounds"]],
            "refine_converged": [res["converged"]],
            "position_reuse_share": _reuse_share(users),
        }


WORKLOADS = {
    "map_ref": lambda seed, out: MapWorkload(seed, out, tuple(LAYOUTS), 0.1, reload=True),
    "map_fine": lambda seed, out: MapWorkload(seed, out, ("4x4",), 0.05, reload=False),
    "sweep_window": SweepWorkload,
    "assoc_scatter": ScatterWorkload,
}
