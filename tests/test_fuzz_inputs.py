"""Property tests: every reader and the config parser, fed arbitrary input,
either parse it or refuse it with FileFormatError / ConfigError.

Each test mixes raw bytes with inputs shaped like the format (a valid
header, count lines and body lines built from awkward tokens), so that
examples get past the header checks and reach the deeper parsing.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meshsrr.config import _SCHEMA, parse_config
from meshsrr.errors import ConfigError, FileFormatError
from meshsrr.fileio import (read_fem_image, read_flow, read_grid_image,
                            read_mesh, read_values)
from meshsrr.mesh import FemMesh

FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

_AWKWARD = ["0", "1", "2", "3", "4", "-1", "-0", "0.5", "-0.5", "1.0", "1e400",
            "-1e400", "nan", "inf", "-inf", "1e308", "1_0", "0x10", "٣",
            "99999999999999999999999", "-99999999999999999999999", "x", "="]
_token = st.one_of(st.sampled_from(_AWKWARD), st.integers().map(str),
                   st.floats().map(repr), st.text(max_size=4))
_line = st.lists(_token, max_size=4).map(" ".join)


def _structured(header: str) -> st.SearchStrategy[bytes]:
    """A text file that starts like the format, then goes astray."""
    body = st.lists(_line, max_size=12)
    return st.tuples(st.sampled_from([header, header + " ", "", "junk"]),
                     body, st.binary(max_size=8)).map(
        lambda t: ("\n".join([t[0], *t[1]]) + "\n").encode("utf-8", "surrogatepass") + t[2])


def _file_bytes(header: str) -> st.SearchStrategy[bytes]:
    return st.one_of(st.binary(max_size=200), _structured(header))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _parses_or_refuses(read, path):
    try:
        read(path)
    except FileFormatError:
        pass


@FUZZ
@given(blob=_file_bytes("FLOW 1"))
def test_read_flow_parses_or_refuses(scratch, blob):
    path = scratch / "f.flow"
    path.write_bytes(blob)
    _parses_or_refuses(read_flow, path)


@FUZZ
@given(blob=_file_bytes("FEMESH 1"))
def test_read_mesh_parses_or_refuses(scratch, blob):
    path = scratch / "m.mesh"
    path.write_bytes(blob)
    _parses_or_refuses(read_mesh, path)


@FUZZ
@given(blob=_file_bytes("FEMVALS 1"))
def test_read_values_parses_or_refuses(scratch, blob):
    path = scratch / "v.vals"
    path.write_bytes(blob)
    _parses_or_refuses(read_values, path)


@FUZZ
@given(blob=_file_bytes("FEMVALS 1"))
def test_read_fem_image_parses_or_refuses(scratch, blob):
    mesh = FemMesh(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
                   np.array([[0, 1, 2], [0, 2, 3]]))
    path = scratch / "img.vals"
    path.write_bytes(blob)
    _parses_or_refuses(lambda p: read_fem_image(mesh, p), path)


_pgm_field = st.one_of(st.sampled_from(["1", "2", "3", "0", "-1", "65535", "x",
                                        "# note\n", "99999999999"]),
                       st.integers(-3, 70000).map(str))
_pgm = st.tuples(st.sampled_from([b"P5", b"P5 ", b"P2", b""]),
                 st.lists(_pgm_field, max_size=4), st.binary(max_size=40)).map(
    lambda t: t[0] + b"\n" + " ".join(t[1]).encode() + b"\n" + t[2])
_sidecar_line = st.tuples(st.sampled_from(["offset", "scale", "gain", ""]),
                          st.sampled_from(["=", " = ", ":"]), _token).map("".join)
_sidecar = st.one_of(st.none(), st.binary(max_size=60),
                     st.lists(_sidecar_line, max_size=4).map(
                         lambda ls: "\n".join(ls).encode("utf-8", "surrogatepass")))


@FUZZ
@given(raster=st.one_of(st.binary(max_size=60), _pgm), sidecar=_sidecar)
def test_read_grid_image_parses_or_refuses(scratch, raster, sidecar):
    path = scratch / "g.pgm"
    path.write_bytes(raster)
    side = path.with_suffix(".scale.txt")
    side.unlink(missing_ok=True)
    if sidecar is not None:
        side.write_bytes(sidecar)
    _parses_or_refuses(read_grid_image, path)


_sections = sorted({s for s, _ in _SCHEMA}) + ["nope", ""]
_config_line = st.one_of(
    st.sampled_from(_sections).map(lambda s: f"[{s}]"),
    st.tuples(st.sampled_from(sorted({k for _, k in _SCHEMA}) + ["bogus"]),
              _token).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    _line)
_config_text = st.one_of(
    st.text(max_size=200),
    st.lists(_config_line, max_size=10).map("\n".join))


@FUZZ
@given(text=_config_text)
def test_parse_config_parses_or_refuses(text):
    try:
        parse_config(text)
    except ConfigError:
        pass
