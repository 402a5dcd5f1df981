import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitlat


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace a module's ProcessPoolExecutor by one that runs every task in
    this process, so no worker is ever started.  Returns a function that
    installs it on a module and returns the list of requested max_workers."""

    def install(module):
        requested = []

        class InlinePool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                requested.append(max_workers)
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(module, "ProcessPoolExecutor", InlinePool)
        return requested

    return install


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
