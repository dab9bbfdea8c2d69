"""Text and image file formats: meshes, element values, flow dumps and
16-bit grayscale rasters with rescale sidecars."""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from .errors import FileFormatError, MeshError
from .flow import FlowField
from .grid import GridImage
from .mesh import FemImage, FemMesh

PGM_MAXVAL = 65535


def _lines(path: Path) -> list[str]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return text.splitlines()


def _header_and_body(path: Path, header: str, what: str) -> tuple[str, list[str]]:
    """The line after the ``header`` line and the non-blank lines after it."""
    lines = _lines(path)
    if not lines or lines[0].strip() != header:
        raise FileFormatError(f"{path}:1: expected header '{header}'")
    if len(lines) < 2:
        raise FileFormatError(f"{path}:2: missing {what}")
    return lines[1], [ln for ln in lines[2:] if ln.strip()]


def _parse(kind, line: str, n: int, path: Path, lineno: int) -> list:
    """Exactly ``n`` whitespace-separated fields, each converted by ``kind``."""
    parts = line.split()
    if len(parts) != n:
        raise FileFormatError(f"{path}:{lineno}: expected {n} fields, got {len(parts)}")
    try:
        return [kind(p) for p in parts]
    except ValueError as exc:
        raise FileFormatError(f"{path}:{lineno}: {exc}") from exc


def read_mesh(path) -> FemMesh:
    """Read a mesh file: header ``FEMESH 1``, counts, node lines, element lines."""
    path = Path(path)
    counts, body = _header_and_body(path, "FEMESH 1", "node/element counts")
    n_nodes, n_elements = _parse(int, counts, 2, path, 2)
    if n_nodes < 0 or n_elements < 0:
        raise FileFormatError(f"{path}:2: counts must be >= 0, got {n_nodes} {n_elements}")
    if len(body) != n_nodes + n_elements:
        raise FileFormatError(
            f"{path}: expected {n_nodes + n_elements} data lines, got {len(body)}")
    nodes = np.array([_parse(float, body[i], 2, path, 3 + i) for i in range(n_nodes)])
    try:
        elements = np.array([_parse(int, body[n_nodes + i], 3, path, 3 + n_nodes + i)
                             for i in range(n_elements)], dtype=np.int64)
        return FemMesh(nodes, elements)
    except (MeshError, OverflowError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_mesh(mesh: FemMesh, path) -> None:
    path = Path(path)
    lines = ["FEMESH 1", f"{mesh.n_nodes} {mesh.n_elements}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in mesh.nodes]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.elements]
    path.write_text("\n".join(lines) + "\n")


def read_values(path) -> np.ndarray:
    """Read an element-value file: header ``FEMVALS 1``, count, one value per line."""
    path = Path(path)
    counts, body = _header_and_body(path, "FEMVALS 1", "value count")
    (count,) = _parse(int, counts, 1, path, 2)
    if len(body) != count:
        raise FileFormatError(f"{path}: expected {count} values, got {len(body)}")
    return np.array([_parse(float, body[i], 1, path, 3 + i)[0] for i in range(count)])


def write_values(values: np.ndarray, path) -> None:
    path = Path(path)
    vals = np.asarray(values, dtype=np.float64).ravel()
    lines = ["FEMVALS 1", str(vals.shape[0])]
    lines += [f"{v:.17g}" for v in vals]
    path.write_text("\n".join(lines) + "\n")


def read_fem_image(mesh: FemMesh, path) -> FemImage:
    try:
        return FemImage(mesh, read_values(path))
    except MeshError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def read_flow(path) -> FlowField:
    """Read a flow dump: header ``FLOW 1``, dims, per-pixel ``u v`` lines."""
    path = Path(path)
    dims, body = _header_and_body(path, "FLOW 1", "dimensions")
    w, h = _parse(int, dims, 2, path, 2)
    if w < 1 or h < 1:
        raise FileFormatError(f"{path}:2: width and height must be >= 1, got {w}x{h}")
    if len(body) != w * h:
        raise FileFormatError(f"{path}: expected {w * h} flow lines, got {len(body)}")
    uv = np.array([_parse(float, body[i], 2, path, 3 + i) for i in range(w * h)])
    try:
        return FlowField(uv[:, 0].reshape(h, w), uv[:, 1].reshape(h, w))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_flow(flow: FlowField, path) -> None:
    path = Path(path)
    lines = ["FLOW 1", f"{flow.width} {flow.height}"]
    u = flow.u.ravel()
    v = flow.v.ravel()
    lines += [f"{u[i]:.17g} {v[i]:.17g}" for i in range(u.shape[0])]
    path.write_text("\n".join(lines) + "\n")


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".scale.txt")


def write_pgm16(img: GridImage, path) -> None:
    """Write a 16-bit binary portable graymap plus a rescale sidecar.

    Values are affinely mapped to [0, maxval]; the sidecar records offset and
    scale so ``value = offset + raster * scale`` recovers the data within one
    quantization step. A value range that overflows, or one so narrow that
    its quantization step is not a normal float (it would round away the
    data), is refused unwritten.
    """
    path = Path(path)
    lo = float(img.data.min())
    hi = float(img.data.max())
    if not math.isfinite(hi - lo):
        raise FileFormatError(f"{path}: value range [{lo:.17g}, {hi:.17g}] is too wide "
                              "to rescale to 16 bits")
    if hi > lo:
        scale = (hi - lo) / PGM_MAXVAL
        if scale < sys.float_info.min:
            raise FileFormatError(f"{path}: value range [{lo:.17g}, {hi:.17g}] is too "
                                  "narrow to rescale to 16 bits")
        raster = np.rint((img.data - lo) / scale).astype(np.uint16)
    else:
        scale = 0.0
        raster = np.zeros(img.data.shape, dtype=np.uint16)
    header = f"P5\n{img.width} {img.height}\n{PGM_MAXVAL}\n".encode("ascii")
    path.write_bytes(header + raster.astype(">u2").tobytes())
    _sidecar_path(path).write_text(f"offset = {lo:.17g}\nscale = {scale:.17g}\n")


def read_pgm16_raw(path) -> np.ndarray:
    """Read a binary P5 graymap as a uint16 array."""
    path = Path(path)
    blob = path.read_bytes()
    if not blob.startswith(b"P5"):
        raise FileFormatError(f"{path}: not a binary portable graymap")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    pos += 1
    try:
        w, h, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad header fields {fields}") from exc
    if w < 1 or h < 1:
        raise FileFormatError(f"{path}: width and height must be >= 1, got {w}x{h}")
    if maxval != PGM_MAXVAL:
        raise FileFormatError(f"{path}: expected maxval {PGM_MAXVAL}, got {maxval}")
    if len(blob) - pos < 2 * w * h:
        raise FileFormatError(f"{path}: truncated pixel data")
    data = np.frombuffer(blob[pos:pos + 2 * w * h], dtype=">u2")
    return data.reshape(h, w).astype(np.uint16)


def read_grid_image(path) -> GridImage:
    """Read a graymap back into physical values using its sidecar when
    present; otherwise the raw raster levels are returned as floats."""
    path = Path(path)
    raster = read_pgm16_raw(path).astype(np.float64)
    raster.flags.writeable = False
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        return GridImage(raster)
    offset = scale = None
    for lineno, line in enumerate(_lines(sidecar), start=1):
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            num = float(value)
        except ValueError as exc:
            raise FileFormatError(f"{sidecar}:{lineno}: {exc}") from exc
        if key == "offset":
            offset = num
        elif key == "scale":
            scale = num
        else:
            raise FileFormatError(f"{sidecar}:{lineno}: unknown key {key!r}")
        if not math.isfinite(num):
            raise FileFormatError(f"{sidecar}:{lineno}: non-finite {key} {num}")
    if offset is None or scale is None:
        raise FileFormatError(f"{sidecar}: missing offset or scale")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = offset + raster * scale
            values.flags.writeable = False
            return GridImage(values)
    except ValueError as exc:
        raise FileFormatError(f"{sidecar}: {exc}") from exc
