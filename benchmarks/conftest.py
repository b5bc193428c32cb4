"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (see the experiment
index in DESIGN.md), prints the corresponding table or series, and asserts
the *shape* of the result -- which law wins, by roughly what factor -- rather
than absolute numbers.
"""

from __future__ import annotations

import os
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
