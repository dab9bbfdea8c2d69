"""Super-resolution of image sequences defined on nonuniform triangular
meshes: resampling operators, an observation model, optical-flow
registration, a recursive LMS reconstructor, synthetic phantoms and
shape-based quality metrics.

Each name is imported from its own module (``from meshsrr.srr import
srr_step``), so ``import meshsrr`` alone loads no submodule."""

__version__ = "0.1.0"
