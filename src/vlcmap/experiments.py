"""End-to-end experiment drivers shared by the CLI and the scripts.

Every run writes deterministic CSV/JSON artifacts into its output directory
plus a small ``run.json`` manifest recording the inputs that produced them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .assoc import (
    DirectSolver,
    GAConfig,
    MapLookupSolver,
    iterative_rate_update,
    solve_association,
    sum_rate,
    user_rates,
)
from .channel import Scene
from .decmap import (
    DecodingMap,
    build_map,
    export_cluster_csv,
    reduce_map,
    save_map,
    scene_fingerprint,
)
from .errors import InfeasibleError, InvalidParameterError
from .rates import models_at
from .signaling import LayerTable, build_layer_set


def _write_manifest(outdir: Path, kind: str, scene: Scene, cfg, **extra) -> None:
    """``run.json``: the whole config, the scene hash and any ``extra`` inputs."""
    params = {**asdict(cfg), "scene_hash": scene_fingerprint(scene), **extra}
    payload = {"kind": kind, "params": params}
    with open(outdir / "run.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Map build / reduce


@dataclass
class MapExperimentConfig:
    filter_index: int = 0
    tau: int = 1
    layers_per_tx: int = 2
    reduce: bool = True


def run_map_experiment(
    scene: Scene, cfg: MapExperimentConfig, outdir: str | Path
) -> dict:
    """Build (and optionally reduce) a decoding map; write artifacts.

    Returns a summary dict: cell counts and compression ratio.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    table = build_layer_set(scene, cfg.layers_per_tx)
    dmap = build_map(scene, table, cfg.filter_index, tau=cfg.tau)
    summary = {
        "scene_hash": dmap.scene_hash,
        "filter_index": cfg.filter_index,
        "tau": cfg.tau,
        "n_cells": len(dmap.cells),
        "n_active": dmap.n_active,
        "n_outage": len(dmap.cells) - dmap.n_active,
    }
    if cfg.reduce:
        clusters = reduce_map(dmap, scene, table)
        summary.update(
            cluster_count=len(clusters), compression_ratio=dmap.compression_ratio
        )
    save_map(dmap, outdir / "map.json")
    export_cluster_csv(dmap, outdir / "cells.csv")
    table.to_csv(outdir / "layers.csv")
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    _write_manifest(outdir, "map", scene, cfg)
    return summary


# ---------------------------------------------------------------------------
# Association at a fixed user placement


@dataclass
class AssocExperimentConfig:
    filter_index: int = 0
    tau: int = 1
    layers_per_tx: int = 2
    ga: GAConfig = field(default_factory=GAConfig)
    refine: bool = True
    max_rounds: int = 50


def user_grid(anchor, n_x: int = 4, n_y: int = 4, plane: str = "xy"):
    """The rectangular user placement at a 0.2 m pitch, centered on its anchor.

    ``plane='xy'`` varies (x, y) at the anchor's z; ``plane='yz'`` varies
    (y, z) at the anchor's x.  Centering makes an anchor on a symmetry axis
    produce an exactly mirror-symmetric placement.
    """
    a0, b0, c0 = (float(v) for v in anchor)
    off_i = [(i - (n_x - 1) / 2.0) * 0.2 for i in range(n_x)]
    off_j = [(j - (n_y - 1) / 2.0) * 0.2 for j in range(n_y)]
    out = []
    for di in off_i:
        for dj in off_j:
            if plane == "xy":
                out.append((a0 + di, b0 + dj, c0))
            elif plane == "yz":
                out.append((a0, b0 + di, c0 + dj))
            else:
                raise InvalidParameterError(f"unknown plane {plane!r}")
    return out


def _solver(scene: Scene, table: LayerTable, cfg: AssocExperimentConfig, dmap):
    """Map lookup when a map is given, direct greedy solves otherwise.

    A map must fit the scene and the run (:meth:`DecodingMap.check_run`).
    """
    if dmap is not None:
        dmap.check_run(scene, table.n_layers, cfg.filter_index, cfg.tau)
        return MapLookupSolver(dmap)
    return DirectSolver(scene, table, cfg.filter_index, cfg.tau)


def associate(
    scene: Scene, table: LayerTable, solver, positions, cfg: AssocExperimentConfig
) -> dict:
    """One user placement: association, refinement, per-user rates.

    The record holds the assignment and truncation depths, the sum rate
    before (``sum_rate_assoc``) and after refinement (``sum_rate``, the sum
    of ``user_rates``), each user's rate (NaN unserved) and the least of
    them; ``rounds`` and ``converged`` only when ``cfg.refine`` is set.
    Raises :class:`InfeasibleError` when every user is in outage.
    """
    assoc = solve_association(solver, positions, table, cfg.ga)
    record = {
        "n_users": len(positions),
        "n_served": int(np.sum(assoc.assignment >= 0)),
        "assignment": [int(t) for t in assoc.assignment],
        "depths": [int(d) for d in assoc.depths],
        "sum_rate_assoc": assoc.objective,
    }
    rates = assoc.rbar
    if cfg.refine:
        models = list(models_at(scene, table, positions, cfg.filter_index))
        upd = iterative_rate_update(assoc, models, table, tau=cfg.tau, max_rounds=cfg.max_rounds)
        rates = upd.rates
        record.update(rounds=upd.rounds, converged=upd.converged)
    record["sum_rate"] = sum_rate(rates, table, assoc.assignment)
    record["user_rates"] = user_rates(assoc.assignment, rates, table)
    served = [r for r in record["user_rates"] if not math.isnan(r)]
    record["min_user_rate"] = min(served) if served else float("nan")
    return record


def run_assoc_experiment(
    scene: Scene,
    user_positions,
    cfg: AssocExperimentConfig,
    outdir: str | Path | None = None,
    dmap: DecodingMap | None = None,
) -> dict:
    """Associate users with transmitters at fixed positions, then refine.

    Uses map lookup when a map is given (positions must be samples of it),
    direct greedy solves otherwise.  Returns the :func:`associate` record.
    """
    table = build_layer_set(scene, cfg.layers_per_tx)
    result = associate(scene, table, _solver(scene, table, cfg, dmap), user_positions, cfg)
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_assoc_csv(outdir / "association.csv", user_positions, result)
        with open(outdir / "summary.json", "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
        _write_manifest(
            outdir, "assoc", scene, cfg, map_lookup=dmap is not None, n_users=len(user_positions)
        )
    return result


def _write_assoc_csv(path, user_positions, record: dict) -> None:
    rows = ["user,x,y,z,tx,depth,rate"]
    for j, (pos, tx, depth, rate) in enumerate(
        zip(user_positions, record["assignment"], record["depths"], record["user_rates"])
    ):
        rows.append(
            f"{j},{pos[0]!r},{pos[1]!r},{pos[2]!r},"
            f"{tx if tx >= 0 else ''},{depth if tx >= 0 else ''},"
            f"{'' if math.isnan(rate) else repr(rate)}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Anchor sweeps


@dataclass
class SweepConfig:
    plane: str = "xy"              # "xy" or "yz"
    a_range: tuple[float, float] = (-1.6, 1.6)
    b_range: tuple[float, float] = (-1.6, 1.6)
    step: float = 0.1
    fixed: float = 2.0             # z of the xy plane / x of the yz plane
    grid_n: int = 4
    assoc: AssocExperimentConfig = field(default_factory=AssocExperimentConfig)


SWEEP_COLUMNS = (
    "a", "b", "n_served", "sum_rate_assoc", "sum_rate", "min_user_rate", "rounds", "converged"
)
# The record of an anchor whose users are all in outage.
_OUTAGE = {"n_served": 0, "sum_rate_assoc": 0.0, "sum_rate": 0.0, "min_user_rate": float("nan")}


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    """Anchor coordinates from ``lo`` to ``hi`` at ``step`` apart.

    A step so small that the axis cannot be built raises
    :class:`InvalidParameterError` naming the anchor count it needs.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidParameterError(f"sweep step must be a positive finite number, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise InvalidParameterError(f"sweep range ({lo}, {hi}) must be finite and low to high")
    try:
        return lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise InvalidParameterError(
            f"sweep range ({lo}, {hi}) at step {step} needs {(hi - lo) / step + 1:g} anchors "
            "on one axis, more than can be built"
        ) from exc


def run_sweep_experiment(
    scene: Scene,
    cfg: SweepConfig,
    outdir: str | Path,
    dmap: DecodingMap | None = None,
) -> list[dict]:
    """Sweep the user-grid anchor over a plane and record rates per anchor.

    Each anchor's placement goes through :func:`associate`, with orders from
    the map when one is given (every position must be one of its samples)
    and direct greedy solves otherwise.  An anchor whose users are all in
    outage gets a row with nobody served and no ``converged`` flag.
    """
    acfg = cfg.assoc
    table = build_layer_set(scene, acfg.layers_per_tx)
    solver = _solver(scene, table, acfg, dmap)
    placements = []
    for a in _axis(*cfg.a_range, cfg.step):
        for b in _axis(*cfg.b_range, cfg.step):
            anchor = (a, b, cfg.fixed) if cfg.plane == "xy" else (cfg.fixed, a, b)
            grid = user_grid(anchor, cfg.grid_n, cfg.grid_n, cfg.plane)
            placements.append((float(a), float(b), grid))
    # Look every position up first, so that a map missing one anchor's users
    # fails the sweep before any anchor is solved.
    for _, _, positions in placements:
        for p in positions:
            solver.order_at(p)

    rows: list[dict] = []
    for a, b, positions in placements:
        try:
            record = associate(scene, table, solver, positions, acfg)
        except InfeasibleError:
            record = _OUTAGE
        row = {"a": a, "b": b, "rounds": 0, "converged": None}
        row.update((k, v) for k, v in record.items() if k in SWEEP_COLUMNS)
        rows.append(row)

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_rows = [",".join(SWEEP_COLUMNS)]
    for r in rows:
        converged = "" if r["converged"] is None else int(r["converged"])
        csv_rows.append(",".join(repr(r[k]) for k in SWEEP_COLUMNS[:-1]) + f",{converged}")
    with open(outdir / "sweep.csv", "w") as fh:
        fh.write("\n".join(csv_rows) + "\n")
    _write_manifest(outdir, "sweep", scene, cfg, map_lookup=dmap is not None)
    return rows
