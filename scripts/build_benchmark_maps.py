#!/usr/bin/env python3
"""Build and reduce the decoding maps of the three benchmark scenes.

Writes one output directory per scene under the given root (default
``results/maps``) and prints a one-line summary each.
"""

import argparse
import sys
from pathlib import Path

from vlcmap.experiments import MapExperimentConfig, run_map_experiment
from vlcmap.sceneio import reference_scene

SCENES = {
    "4x4": dict(n_x=4, n_y=4),
    "2x2": dict(n_x=2, n_y=2, spacing_x=0.6, spacing_y=0.6),
    "1x2": dict(n_x=1, n_y=2, spacing_x=0.6, spacing_y=0.6),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results/maps"))
    ap.add_argument("--filter", type=int, default=0, dest="filter_index")
    ap.add_argument("--layers", type=int, default=2)
    ap.add_argument("--tau", type=int, default=1)
    ap.add_argument("--scenes", nargs="*", default=list(SCENES), choices=list(SCENES))
    args = ap.parse_args(argv)

    cfg = MapExperimentConfig(
        filter_index=args.filter_index, tau=args.tau, layers_per_tx=args.layers
    )
    for name in args.scenes:
        scene = reference_scene(**SCENES[name])
        summary = run_map_experiment(scene, cfg, args.out / name)
        print(
            f"{name}: active={summary['n_active']} "
            f"clusters={summary['cluster_count']} "
            f"compression={summary['compression_ratio']:.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
