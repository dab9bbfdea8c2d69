"""Super-resolution of image sequences defined on nonuniform triangular
meshes: resampling operators, an observation model, optical-flow
registration, a recursive LMS reconstructor, synthetic phantoms and
shape-based quality metrics."""

from .config import ExperimentConfig, parse_config, preset
from .errors import (ConfigError, DivergenceError, EmptyBoundaryError, FileFormatError,
                     MeshError)
from .experiment import ExperimentResult, run_experiment
from .fileio import (read_fem_image, read_flow, read_grid_image, read_mesh,
                     read_values, write_flow, write_mesh, write_pgm16, write_values)
from .flow import FlowField, FlowParams, build_pyramid, horn_schunck
from .grid import GridImage, pixel_centers
from .mesh import (FemImage, FemMesh, OUTSIDE, PixelAssignment,
                   build_pixel_assignment, downsample, upsample)
from .metrics import (BinaryMask, FrameMetrics, MetricsReport, binarize,
                      evaluate_pair, evaluate_sequence, hausdorff, masd, overlap)
from .operators import (Kernel, ObservationModel, convolve_neumann,
                        gaussian_kernel, warp_image)
from .phantoms import (COARSE, FINE, LUNG, T_SHAPE, SceneSpec, degrade,
                       disc_mesh, render_lung, render_scene, render_tshape,
                       scene_flows, tshape_centers)
from .srr import SrrConfig, SrrState, srr_init, srr_step

__version__ = "0.1.0"
