"""The package namespace: ``import meshsrr`` loads no submodule, and every
name is imported from its own module."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meshsrr

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_submodule():
    """A fresh ``import meshsrr`` leaves the run's modules unloaded, so a
    program that needs only the mesh and the phantoms loads only those."""
    probe = ("import sys, meshsrr\n"
             "print(*sorted(m for m in sys.modules if m.startswith('meshsrr.')))\n"
             "from meshsrr.phantoms import disc_mesh\n"
             "print(*sorted(m for m in sys.modules if m.startswith('meshsrr.')))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, setup = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                 capture_output=True, text=True).stdout.split("\n")[:2]
    assert bare == ""
    for name in ("experiment", "config", "fileio", "metrics", "srr", "cli"):
        assert f"meshsrr.{name}" not in setup.split()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        meshsrr.no_such_name
    assert not hasattr(meshsrr, "run_sequence")
