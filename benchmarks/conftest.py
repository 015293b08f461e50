"""Shared fixtures for the benchmark harness.

Environment knobs (so cold numbers are reproducible without editing
code):

* ``REPRO_NO_CACHE=1`` — disable the persistent disk tier of every
  session built from the environment *and* clear the shared in-process
  memos (instantiations, manipulations, Groebner bases, GCDs) before
  each benchmark test: every measurement starts truly cold.
* ``REPRO_CACHE_DIR=<dir>`` — point the persistent tier at ``<dir>``
  to measure warm-process behaviour instead.
"""

import os

import pytest

from repro.mapping.cache import clear_shared_caches
from repro.mp3 import make_stream
from repro.platform import Badge4
from repro.symalg.gcdtools import clear_gcd_caches
from repro.symalg.ideal import clear_ideal_caches


@pytest.fixture(scope="session")
def platform():
    return Badge4()


@pytest.fixture(scope="session")
def stream():
    """The shared workload: a deterministic 3-frame stereo stream."""
    return make_stream(n_frames=3, seed=2002)


@pytest.fixture(autouse=True)
def _cold_run_knob():
    """Honor REPRO_NO_CACHE: reset every cache tier before each test."""
    if os.environ.get("REPRO_NO_CACHE"):
        clear_shared_caches()
        clear_ideal_caches()
        clear_gcd_caches()
    yield


@pytest.fixture
def report(capsys):
    """Print a block of text to the real terminal (not captured)."""
    def _print(text: str) -> None:
        with capsys.disabled():
            print(text)
    return _print
