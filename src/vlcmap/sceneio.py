"""Scene construction from configuration files and programmatic builders.

Scenes are built in coordinates centered on the transmitter array, so
mirrored grid positions are exact floating-point negations of each other
and mirrored map cells see mirrored link gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from .channel import ColorBand, ReceiverPlane, Scene, gain_vector
from .errors import ConfigError, InvalidParameterError

# The four LED bands used throughout the experiments, ascending wavelength.
DEFAULT_BANDS = [
    ColorBand(380.0, 480.0, 0.1),
    ColorBand(500.0, 550.0, 0.2),
    ColorBand(560.0, 600.0, 0.2),
    ColorBand(600.0, 680.0, 0.1),
]
DEFAULT_FILTERS = [(380.0, 480.0), (500.0, 550.0), (560.0, 600.0), (600.0, 680.0)]


def grid_scene(
    n_x: int,
    n_y: int,
    spacing_x: float = 0.2,
    spacing_y: float = 0.2,
    colors_per_position: tuple[int, ...] = (0, 1, 2, 3),
    bands: list[ColorBand] | None = None,
    filters: list[tuple[float, float]] | None = None,
    lambertian_order: float = 1.0,
    pd_area: float = 1e-4,
    refractive_index: float = 1.5,
    fov: float = math.radians(30.0),
    peak_power: float = 1.0,
    avg_power: float = 0.5,
    plane_margin: float = 1.0,
    plane_height: float = 2.0,
    sample_gap: float = 0.1,
    sigma: float = 1.0,
) -> Scene:
    """Regular transmitter grid centered at the origin, plane centered below.

    The receiver plane width/length equal the array extent plus twice the
    margin.  ``sigma`` is a placeholder until :func:`calibrate_noise`.
    """
    bands = bands if bands is not None else list(DEFAULT_BANDS)
    filters = filters if filters is not None else list(DEFAULT_FILTERS)
    off_x = (np.arange(n_x) - (n_x - 1) / 2.0) * spacing_x
    off_y = (np.arange(n_y) - (n_y - 1) / 2.0) * spacing_y
    positions, colors = [], []
    for i in range(n_x):
        for j in range(n_y):
            for c in colors_per_position:
                positions.append((off_x[i], off_y[j], 0.0))
                colors.append(c)
    plane = ReceiverPlane(
        center_x=0.0,
        center_y=0.0,
        height=plane_height,
        width=(n_x - 1) * spacing_x + 2 * plane_margin,
        length=(n_y - 1) * spacing_y + 2 * plane_margin,
        sample_gap=sample_gap,
    )
    return Scene(
        tx_positions=np.array(positions),
        tx_color=np.array(colors),
        bands=bands,
        filters=filters,
        lambertian_order=lambertian_order,
        pd_area=pd_area,
        refractive_index=refractive_index,
        fov=fov,
        sigma=sigma,
        peak_power=np.full(len(positions), peak_power),
        avg_power=np.full(len(positions), avg_power),
        plane=plane,
    )


def calibrate_noise(scene: Scene, snr_db: float, reference_filter: int = 0) -> float:
    """Noise std from the receiver-side SNR of the reference link.

    The reference link is transmitter 0 to the point directly below it at
    the plane height, through the reference filter:
    ``sigma = peak * gain / 10**(snr_db / 20)``.
    """
    tx = scene.tx_positions[0]
    rx = np.array([tx[0], tx[1], tx[2] + scene.plane.height])
    h_ref = gain_vector(scene, rx, reference_filter)[0]
    if h_ref == 0.0:
        raise InvalidParameterError("reference link has zero gain")
    return float(scene.peak_power[0]) * h_ref / 10.0 ** (snr_db / 20.0)


def reference_scene(n_x: int = 4, n_y: int = 4, snr_db: float = 15.0, **kwargs) -> Scene:
    """The indoor benchmark scene: 4x4 four-color array, 2.6 m plane, 15 dB."""
    scene = grid_scene(n_x, n_y, **kwargs)
    scene.sigma = calibrate_noise(scene, snr_db)
    return scene


@dataclass
class SceneSpec:
    """Scene plus the signaling/SNR settings read from a config file."""

    scene: Scene
    layers_per_tx: int
    snr_db: float


def load_scene(path) -> SceneSpec:
    """Read a YAML key/value scene description.

    Required sections: ``transmitters`` (grid rows/cols/spacing, colors,
    powers, layers), ``optics``, ``plane``; optional ``bands``, ``filters``,
    ``snr``.
    """
    with open(path) as fh:
        cfg = yaml.safe_load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError(f"scene file {path} is not a mapping")
    try:
        tx = cfg["transmitters"]
        grid = tx["grid"]
        optics = cfg["optics"]
        plane = cfg["plane"]
        bands = [
            ColorBand(float(b["low_nm"]), float(b["high_nm"]), float(b["leakage"]))
            for b in cfg.get("bands", [])
        ] or list(DEFAULT_BANDS)
        filters = [tuple(map(float, f)) for f in cfg.get("filters", [])] or list(
            DEFAULT_FILTERS
        )
        if "lambertian_order" in optics:
            m1 = float(optics["lambertian_order"])
        else:
            from .channel import half_power_semiangle_to_order

            m1 = half_power_semiangle_to_order(
                math.radians(float(optics["half_power_semiangle_deg"]))
            )
        margin = plane.get("margin")
        scene = grid_scene(
            n_x=int(grid["rows"]),
            n_y=int(grid["cols"]),
            spacing_x=float(grid.get("spacing_x", grid.get("spacing", 0.2))),
            spacing_y=float(grid.get("spacing_y", grid.get("spacing", 0.2))),
            colors_per_position=tuple(
                int(c) for c in tx.get("colors_per_position", range(len(bands)))
            ),
            bands=bands,
            filters=filters,
            lambertian_order=m1,
            pd_area=float(optics["pd_area"]),
            refractive_index=float(optics["refractive_index"]),
            fov=math.radians(float(optics["fov_deg"])),
            peak_power=float(tx.get("peak_power", 1.0)),
            avg_power=float(tx.get("avg_power", 0.5)),
            plane_margin=float(margin) if margin is not None else 1.0,
            plane_height=float(plane.get("height", 2.0)),
            sample_gap=float(plane.get("sample_gap", 0.1)),
        )
        snr = cfg.get("snr", {"db": 15.0, "reference_filter": 0})
        scene.sigma = calibrate_noise(
            scene, float(snr["db"]), int(snr.get("reference_filter", 0))
        )
        layers = int(tx.get("layers_per_transmitter", 2))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad scene file {path}: {exc}") from exc
    return SceneSpec(scene=scene, layers_per_tx=layers, snr_db=float(snr["db"]))
