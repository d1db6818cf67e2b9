"""Decoding maps and transmitter-user association for multi-color VLC.

The package models a grid of multi-color LED transmitters serving
photodiode receivers with color filters: Lambertian link gains, truncated-
Gaussian layered signaling, closed-form achievable rates, greedy max-min
decoding orders, position-indexed decoding maps (one greedy solve per
sample position) with size reduction, and a genetic-algorithm
transmitter-user association with iterative rate refinement.
"""

from .assoc import (
    Association,
    DirectSolver,
    GAConfig,
    MapLookupSolver,
    iterative_rate_update,
    solve_association,
)
from .channel import ColorBand, ReceiverPlane, Scene, gain_vector
from .cpgd import DecodingOrder, greedy_order
from .decmap import DecodingMap, build_map, load_map, reduce_map, save_map
from .errors import (
    CalibrationError,
    ConfigError,
    GeometryError,
    InfeasibleError,
    InvalidParameterError,
    VlcError,
)
from .rates import RateModel, achievable_rate, model_at_position, models_at
from .sceneio import SceneSpec, calibrate_noise, grid_scene, load_scene, reference_scene
from .signaling import LayerTable, TGParams, build_layer_set, calibrate_layer, tg_moments

__version__ = "0.1.0"

__all__ = [
    "Association",
    "CalibrationError",
    "ColorBand",
    "ConfigError",
    "DecodingMap",
    "DecodingOrder",
    "DirectSolver",
    "GAConfig",
    "GeometryError",
    "InfeasibleError",
    "InvalidParameterError",
    "LayerTable",
    "MapLookupSolver",
    "RateModel",
    "ReceiverPlane",
    "Scene",
    "SceneSpec",
    "TGParams",
    "VlcError",
    "achievable_rate",
    "build_layer_set",
    "build_map",
    "calibrate_layer",
    "calibrate_noise",
    "gain_vector",
    "greedy_order",
    "grid_scene",
    "iterative_rate_update",
    "load_map",
    "load_scene",
    "model_at_position",
    "models_at",
    "reference_scene",
    "reduce_map",
    "save_map",
    "solve_association",
    "tg_moments",
]
