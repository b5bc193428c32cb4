"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (see the experiment
index in DESIGN.md), prints the corresponding table or series, and asserts
the *shape* of the result -- which law wins, by roughly what factor -- rather
than absolute numbers.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator shared by the benchmark workloads."""
    return np.random.default_rng(1986)


@pytest.fixture
def bench_dir(tmp_path: Path) -> Path:
    """Where a benchmark writes its ``BENCH_*.json`` artifact.

    A per-test temp dir, so a plain test run leaves the checkout untouched;
    set ``REPRO_BENCH_DIR`` to keep the artifact (the CI smoke jobs do).
    """
    root = os.environ.get("REPRO_BENCH_DIR")
    if not root:
        return tmp_path
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def emit(title: str, body: str) -> None:
    """Print a labelled block so `pytest -s` shows the regenerated artifact."""
    print(f"\n===== {title} =====")
    print(body)


#: Timing repetitions, applied identically to both sides of a comparison.
#: A single run per side is vulnerable to one GC pause or scheduler
#: preemption on a shared CI runner; an *asymmetric* policy (one reference
#: run vs best-of-3 fast runs) systematically biases the reported speedup
#: upward, because only one side gets to discard its unlucky runs.
TIMING_REPEATS = 3


def best_of(fn, *args, repeats: int = TIMING_REPEATS, **kwargs):
    """``fn(*args, **kwargs)`` and its best-of-``repeats`` wall-clock time."""
    best = math.inf
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - started)
    return result, best
