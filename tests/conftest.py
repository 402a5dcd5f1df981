import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitlat


@pytest.fixture
def run_optimized():
    """Returns a function that runs a script under `python -O` against this
    checkout of orbitlat and returns the finished process."""
    src = str(Path(next(iter(orbitlat.__path__))).resolve().parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(script):
        return subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )

    return run
