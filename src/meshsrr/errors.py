"""Exception types shared across the package."""


class MeshError(ValueError):
    """Invalid mesh geometry, or a mesh/operand mismatch."""


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


class FileFormatError(ValueError):
    """Malformed data file (mesh, values, flow dump, or image)."""


class DivergenceError(RuntimeError):
    """Numerical divergence detected during reconstruction."""
