"""Super-resolution of image sequences defined on nonuniform triangular
meshes: resampling operators, an observation model, optical-flow
registration, a recursive LMS reconstructor, synthetic phantoms and
shape-based quality metrics.

The names below load their submodule on first access (PEP 562), so
``import meshsrr`` alone imports none of them."""

from importlib import import_module

# The exported names of each submodule.
_EXPORTS = {name: module for module, names in (
    ("config", ("ExperimentConfig", "parse_config", "preset")),
    ("errors", ("ConfigError", "DivergenceError", "EmptyBoundaryError", "FileFormatError",
                "MeshError")),
    ("experiment", ("ExperimentResult", "run_experiment")),
    ("fileio", ("read_fem_image", "read_flow", "read_grid_image", "read_mesh", "read_values",
                "write_flow", "write_mesh", "write_pgm16", "write_values")),
    ("flow", ("FlowField", "FlowParams", "build_pyramid", "horn_schunck")),
    ("grid", ("GridImage", "pixel_centers")),
    ("mesh", ("FemImage", "FemMesh", "OUTSIDE", "PixelAssignment", "build_pixel_assignment",
              "downsample", "upsample")),
    ("metrics", ("BinaryMask", "FrameMetrics", "MetricsReport", "binarize", "evaluate_pair",
                 "evaluate_sequence", "hausdorff", "masd", "overlap")),
    ("operators", ("Kernel", "ObservationModel", "convolve_neumann", "gaussian_kernel",
                   "warp_image")),
    ("phantoms", ("COARSE", "FINE", "LUNG", "T_SHAPE", "SceneSpec", "degrade", "disc_mesh",
                  "render_lung", "render_scene", "render_tshape", "scene_flows",
                  "tshape_centers")),
    ("srr", ("SrrConfig", "SrrState", "srr_init", "srr_step")),
) for name in names}

__all__ = [*_EXPORTS, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
