"""Small runs reproduce the numbers pinned in ``pinned.json``.

Relative tolerance 1e-9 on every number. Runs agreed bit for bit under one
and two OpenBLAS threads, on one CPU and with or without the band worker;
last-bit noise injected into every blur and flow preconditioner moved sums
and costs by at most 1.6e-15 and left every metric unchanged. So a miss
means the algorithm changed: regenerate with ``regenerate_pins.py`` only
when that is on purpose.
"""
import json

import pytest

from regenerate_pins import PINNED, RUNS, frame_numbers

PINS = json.loads(PINNED.read_text())


def test_every_run_is_pinned():
    assert sorted(PINS) == sorted(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_run_matches_its_pins(name):
    got = frame_numbers(name)
    assert len(got) == len(PINS[name])
    for t, (frame, pinned) in enumerate(zip(got, PINS[name])):
        for key, value in pinned.items():
            assert frame[key] == pytest.approx(value, rel=1e-9, abs=0), f"frame {t} {key}"
