"""Test-session settings.

Property tests run under one registered hypothesis profile: derandomized,
so every run draws the same examples, with no per-example deadline (the
exact arithmetic is slow on a loaded machine) and at most 50 examples per
test, so the suite stays short.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import hopfbraid
from hopfbraid import braidrep, cli

settings.register_profile("hopfbraid", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("hopfbraid")


@pytest.fixture
def braiding_builds(monkeypatch):
    """A list that grows by one entry per call of braidrep.braiding_map,
    counted in every module that holds the name."""
    builds, build = [], braidrep.braiding_map

    def counted(*args):
        builds.append(args)
        return build(*args)

    for module in (braidrep, cli):
        if hasattr(module, "braiding_map"):
            monkeypatch.setattr(module, "braiding_map", counted)
    return builds


@pytest.fixture
def in_subprocess():
    """Runs python source in a subprocess with this package on the path, so
    a hang shows as a timeout, not as a stalled suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(hopfbraid.__file__).resolve().parents[1])}

    def run(code, timeout):
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=timeout)
    return run
