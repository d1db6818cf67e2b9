"""Command-line driver.

Exit codes: 0 success, 2 configuration/input error, 3 infeasible problem,
4 iterative refinement did not converge.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from .assoc import GAConfig
from .decmap import _order_payload, load_map, reduce_map, save_map, scene_fingerprint
from .errors import ConfigError, InfeasibleError, VlcError
from .experiments import (
    AssocExperimentConfig,
    MapExperimentConfig,
    SweepConfig,
    run_assoc_experiment,
    run_map_experiment,
    run_sweep_experiment,
    user_grid,
)
from .sceneio import SceneSpec, load_scene, reference_scene
from .signaling import build_layer_set

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4


def _load_run(scene_path: str | None, layers: int | None, map_path: str | None = None):
    """Scene spec and map (or None) of a run.

    A map must have been built from the scene.  An unset layer count is the
    map's layers per transmitter, or the scene's without a map.
    """
    if scene_path is None:
        spec = SceneSpec(scene=reference_scene(), layers_per_tx=2, snr_db=15.0)
    else:
        spec = load_scene(scene_path)
    dmap = None if map_path is None else load_map(map_path)
    if dmap is not None:
        dmap.check_run(spec.scene)
        if layers is None:
            layers, rest = divmod(dmap.n_layers, spec.scene.n_tx)
            if rest:
                raise ConfigError(f"the map's layer count {dmap.n_layers} is not a whole number "
                                  f"of layers per transmitter for {spec.scene.n_tx} transmitters")
    if layers is not None:
        spec.layers_per_tx = layers
    return spec, dmap


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _exits(fn):
    """Run a command, exiting with the documented code on a package error.

    A file that cannot be read or written (an ``--out`` under a missing
    directory or a file, say) is an input error too.
    """

    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except InfeasibleError as exc:
            _fail(EXIT_INFEASIBLE, str(exc))
        except (VlcError, OSError) as exc:
            _fail(EXIT_CONFIG, str(exc))

    return run


def _assoc_options(fn):
    """Declare the options ``assoc solve`` and ``sweep run`` share."""
    options = [
        click.option("--scene", "scene_path", type=click.Path(exists=True), default=None),
        click.option("--map", "map_path", type=click.Path(exists=True), default=None,
                     help="Serve decoding orders from this prebuilt map."),
        click.option("--filter", "filter_index", type=int, default=None,
                     help="Receiver filter index  [default: the map's, or 0]"),
        click.option("--tau", type=int, default=None,
                     help="Maximum decoding-group size  [default: the map's, or 1]"),
        click.option("--layers", type=int, default=None),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--population", type=int, default=64, show_default=True),
        click.option("--generations", type=int, default=200, show_default=True),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _assoc_setup(scene_path, map_path, filter_index, tau, layers, seed, population,
                 generations, refine=True):
    """Scene spec, map (or None) and association config from the shared options.

    An unset filter, tau or layer count is the map's own, or the default
    without a map; an explicit one that differs from the map's fails when the
    run starts (:meth:`DecodingMap.check_run`).
    """
    spec, dmap = _load_run(scene_path, layers, map_path)
    unset = AssocExperimentConfig() if dmap is None else dmap
    cfg = AssocExperimentConfig(
        filter_index=unset.filter_index if filter_index is None else filter_index,
        tau=unset.tau if tau is None else tau,
        layers_per_tx=spec.layers_per_tx,
        ga=GAConfig(population=population, generations=generations, seed=seed),
        refine=refine,
    )
    return spec, dmap, cfg


@click.group()
def main() -> None:
    """Decoding maps and transmitter-user association for multi-color VLC."""


@main.group("map")
def map_group() -> None:
    """Build, reduce and inspect decoding maps."""


@map_group.command("build")
@click.option("--scene", "scene_path", type=click.Path(exists=True), default=None,
              help="Scene YAML (defaults to the built-in benchmark scene).")
@click.option("--out", "outdir", type=click.Path(), required=True)
@click.option("--filter", "filter_index", type=int, default=0, show_default=True)
@click.option("--tau", type=int, default=1, show_default=True,
              help="Maximum decoding-group size.")
@click.option("--layers", type=int, default=None, help="Layers per transmitter.")
@click.option("--reduce/--no-reduce", "do_reduce", default=True, show_default=True)
@_exits
def map_build(scene_path, outdir, filter_index, tau, layers, do_reduce) -> None:
    """Solve the decoding order at every plane sample and store the map."""
    spec, _ = _load_run(scene_path, layers)
    cfg = MapExperimentConfig(
        filter_index=filter_index,
        tau=tau,
        layers_per_tx=spec.layers_per_tx,
        reduce=do_reduce,
    )
    summary = run_map_experiment(spec.scene, cfg, outdir)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@map_group.command("reduce")
@click.option("--map", "map_path", type=click.Path(exists=True), required=True)
@click.option("--scene", "scene_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Output map file (defaults to rewriting in place).")
@_exits
def map_reduce(map_path, scene_path, out_path) -> None:
    """Cluster an existing map's cells and store the labels."""
    spec, dmap = _load_run(scene_path, None, map_path)
    table = build_layer_set(spec.scene, spec.layers_per_tx)
    clusters = reduce_map(dmap, spec.scene, table)
    save_map(dmap, out_path or map_path)
    click.echo(json.dumps({
        "cluster_count": len(clusters),
        "n_active": dmap.n_active,
        "compression_ratio": dmap.compression_ratio,
    }, indent=2, sort_keys=True))


@map_group.command("inspect")
@click.option("--map", "map_path", type=click.Path(exists=True), required=True)
@click.option("--at", nargs=2, type=float, default=None,
              help="Print the cell at plane coordinates (x, y).")
@_exits
def map_inspect(map_path, at) -> None:
    """Print a map summary, or one cell's decoding order."""
    dmap = load_map(map_path)
    if at:
        i = dmap.index_at(at[0], at[1])
        cell = dmap.cells[i]
        info = {
            "position": list(dmap.positions()[i]),
            "outage": cell.order.outage,
            "cluster": cell.cluster,
        }
        info.update(_order_payload(cell.order))
        click.echo(json.dumps(info, indent=2))
        return
    click.echo(json.dumps({
        "scene_hash": dmap.scene_hash,
        "filter_index": dmap.filter_index,
        "tau": dmap.tau,
        "shape": list(dmap.shape),
        "n_cells": len(dmap.cells),
        "n_active": dmap.n_active,
        "cluster_count": dmap.cluster_count,
        "compression_ratio": dmap.compression_ratio,
    }, indent=2, sort_keys=True))


def _read_users(path: str) -> list[tuple[float, float, float]]:
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line or (ln == 0 and line.lower().startswith("x")):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ConfigError(f"{path}:{ln + 1}: expected x,y,z")
            try:
                out.append(tuple(float(p) for p in parts))
            except ValueError as exc:
                raise ConfigError(f"{path}:{ln + 1}: {exc}") from exc
    if not out:
        raise ConfigError(f"no user positions in {path}")
    return out


@main.group("assoc")
def assoc_group() -> None:
    """Transmitter-user association."""


@assoc_group.command("solve")
@_assoc_options
@click.option("--users", "users_path", type=click.Path(exists=True), default=None,
              help="CSV of user positions x,y,z (header optional).")
@click.option("--anchor", nargs=2, type=float, default=None,
              help="Place the default 4x4 user grid at this plane anchor.")
@click.option("--out", "outdir", type=click.Path(), default=None)
@click.option("--refine/--no-refine", default=True, show_default=True)
@_exits
def assoc_solve(users_path, anchor, outdir, refine, **shared) -> None:
    """Assign each user a transmitter and report the achieved rates."""
    spec, dmap, cfg = _assoc_setup(**shared, refine=refine)
    if users_path is not None:
        positions = _read_users(users_path)
    elif anchor is not None:
        positions = user_grid((anchor[0], anchor[1], spec.scene.plane.height))
    else:
        raise ConfigError("need --users or --anchor")
    result = run_assoc_experiment(spec.scene, positions, cfg, outdir=outdir, dmap=dmap)
    click.echo(json.dumps(result, indent=2, sort_keys=True))
    if not result.get("converged", True):
        sys.exit(EXIT_NO_CONVERGENCE)


@main.group("sweep")
def sweep_group() -> None:
    """Anchor sweeps of the user grid."""


@sweep_group.command("run")
@_assoc_options
@click.option("--out", "outdir", type=click.Path(), required=True)
@click.option("--plane", type=click.Choice(["xy", "yz"]), default="xy",
              show_default=True)
@click.option("--a-range", nargs=2, type=float, default=(-1.6, 1.6), show_default=True)
@click.option("--b-range", nargs=2, type=float, default=(-1.6, 1.6), show_default=True)
@click.option("--step", type=float, default=0.1, show_default=True)
@click.option("--fixed", type=float, default=None,
              help="z of the xy sweep plane / x of the yz plane "
                   "(default: receiver plane height / array center).")
@_exits
def sweep_run(outdir, plane, a_range, b_range, step, fixed, **shared) -> None:
    """Sweep the user-grid anchor and record the achieved rates per anchor.

    Writes every artifact, then exits 4 if refinement did not converge at
    some anchor.
    """
    spec, dmap, acfg = _assoc_setup(**shared)
    if fixed is None:
        fixed = spec.scene.plane.height if plane == "xy" else 0.0
    cfg = SweepConfig(
        plane=plane,
        a_range=tuple(a_range),
        b_range=tuple(b_range),
        step=step,
        fixed=fixed,
        assoc=acfg,
    )
    rows = run_sweep_experiment(spec.scene, cfg, outdir, dmap=dmap)
    sums = [r["sum_rate"] for r in rows]
    click.echo(json.dumps({
        "anchors": len(rows),
        "best_sum_rate": max(sums) if sums else 0.0,
        "worst_sum_rate": min(sums) if sums else 0.0,
        "out": str(Path(outdir) / "sweep.csv"),
    }, indent=2, sort_keys=True))
    if any(r["converged"] is False for r in rows):
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command("validate")
@click.option("--scene", "scene_path", type=click.Path(exists=True), default=None)
@click.option("--layers", type=int, default=None)
@_exits
def validate(scene_path, layers) -> None:
    """Check that a scene file parses and its signaling calibrates."""
    spec, _ = _load_run(scene_path, layers)
    table = build_layer_set(spec.scene, spec.layers_per_tx)
    click.echo(json.dumps({
        "scene_hash": scene_fingerprint(spec.scene),
        "n_tx": spec.scene.n_tx,
        "n_layers": table.n_layers,
        "snr_db": spec.snr_db,
        "sigma": spec.scene.sigma,
        "plane_samples": [
            int(spec.scene.plane.grid()[0].size),
            int(spec.scene.plane.grid()[1].size),
        ],
        "filter_matrix": np.round(spec.scene.filter_matrix, 3).tolist(),
    }, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
