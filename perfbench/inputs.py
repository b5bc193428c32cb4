"""Seeded workload inputs; the program sees only what these functions build.

Every generator takes a ``random.Random`` seeded from ``--seed``, so the
same seed yields the same requests in the same order.  Suite sizes come
from the ranges the ``quick`` and ``full`` suites already use; service
jobs are small, as interactive submissions are.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

from repro.runtime import ExperimentScenario, Scenario, ScenarioSuite

# -- reproduce / replay: one-scenario suites ----------------------------------

#: One deck of ops: (sweep kernel, memory grid, scale, experiment, params).
#: Each pairs a measured sweep with one experiment so that every op but the
#: last costs about the same (~290 ms on the reference host); the external
#: merge sort is the one heavy op per deck.  ``"systolic"`` params get a
#: seeded ``seed`` for their input matrices.
DECK: tuple[tuple[str, tuple[int, ...], int, str, dict[str, Any]], ...] = (
    ("fft", (8, 16, 32, 64), 10, "systolic",
     {"order": 16, "batches": 16, "matvec_length": 256, "qr_order": 16}),
    ("fft", (8, 16, 32, 64), 11, "systolic",
     {"order": 128, "batches": 2, "matvec_length": 16, "qr_order": 16}),
    ("grid3d", (64, 216, 512), 7, "systolic",
     {"order": 192, "batches": 1, "matvec_length": 16, "qr_order": 16}),
    ("fft", (8, 16, 32, 64), 11, "systolic",
     {"order": 16, "batches": 4, "matvec_length": 512, "qr_order": 16}),
    ("fft", (8, 16, 32, 64), 11, "systolic",
     {"order": 16, "batches": 8, "matvec_length": 16, "qr_order": 128, "qr_rows": 256}),
    ("fft", (8, 16, 32, 64), 10, "systolic",
     {"order": 16, "batches": 8, "matvec_length": 16, "qr_order": 128, "qr_rows": 512}),
    ("fft", (16, 32, 64), 12, "systolic",
     {"order": 16, "batches": 8, "matvec_length": 16, "qr_order": 64, "qr_rows": 256}),
    ("fft", (16, 32, 64), 12, "pebble", {"matmul_order": 10, "fft_points": 128}),
    ("fft", (16, 32, 64, 128), 11, "pebble", {"matmul_order": 8, "fft_points": 256}),
    ("triangularization", (12, 27, 48), 48, "pebble",
     {"matmul_order": 10, "fft_points": 256}),
    ("matmul", (12, 27, 48), 48, "figure2", {"n_points": 64, "block_points": 8}),
    ("sorting", (32, 128, 512), 16384, "figure2", {"n_points": 32, "block_points": 4}),
)

_PEBBLE_MEMORIES = (8, 16, 32, 64)


def _suite(slot: int, rng: random.Random, index: int) -> ScenarioSuite:
    kernel, memories, scale, experiment, params = DECK[slot]
    params = dict(params)
    if experiment == "systolic":
        params.update(engine="fast", seed=rng.randrange(1 << 16))
    elif experiment == "pebble":
        params.update(matmul_memories=_PEBBLE_MEMORIES, fft_memories=_PEBBLE_MEMORIES)
    return ScenarioSuite(
        name=f"bench-op{index}",
        description="one measured sweep plus one experiment",
        scenarios=(Scenario(f"op{index}-sweep-{kernel}", kernel, memories, scale),),
        experiments=(ExperimentScenario(f"op{index}-{experiment}", experiment, params),),
    )


def suite_stream(rng: random.Random) -> Iterator[ScenarioSuite]:
    """Endless one-scenario suites, dealt from shuffled copies of :data:`DECK`.

    The seed sets the order within each deck and the systolic input data;
    every run of a few decks sees each op shape in near-equal shares.
    """
    for index, slot in enumerate(_dealt(tuple(range(len(DECK))), rng)):
        yield _suite(slot, rng, index)


def _dealt(items: tuple[Any, ...], rng: random.Random) -> Iterator[Any]:
    """Endless shuffled copies of ``items``."""
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


# -- service-mix: job submissions ---------------------------------------------

_ANALYTIC_KERNELS = ("matmul", "triangularization", "grid1d", "grid2d", "grid3d", "grid4d",
                     "fft", "sorting", "matvec", "triangular_solve", "sparse_matvec")
_ANALYTIC_MEMORIES = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: kernel -> (memory grid, scale range) for small measured sweep jobs; the
#: scale is drawn from the range, so most draws miss the point caches.
_SMALL_SWEEPS: dict[str, tuple[tuple[int, ...], tuple[int, int]]] = {
    "matmul": ((12, 27, 48, 75), (8, 16)),
    "triangularization": ((12, 27, 48, 75), (8, 16)),
    "grid2d": ((36, 100, 256, 576), (5, 7)),
    "fft": ((4, 8, 64, 2048), (6, 7)),
    "sorting": ((8, 32, 128, 512), (512, 1536)),
    "matvec": ((8, 16, 32, 64, 128), (16, 32)),
    "triangular_solve": ((8, 16, 32, 64, 128), (16, 32)),
    "sparse_matvec": ((8, 32, 128, 512), (24, 48)),
}
_SORT_MEMORIES = (32, 40, 48, 56, 64, 80, 96, 112, 128)


#: The kinds of fresh jobs, dealt in shuffled decks so every run sees the
#: same shares: 35% analytic sweeps, 5% moderate sorts, 35% small measured
#: sweeps, 25% small experiments.
JOB_DECK = ("analytic",) * 7 + ("moderate",) + ("measured",) * 7 + ("experiment",) * 5


def _fresh_job(kind: str, rng: random.Random) -> tuple[str, dict[str, Any]]:
    if kind == "analytic":
        sizes = sorted(rng.sample(_ANALYTIC_MEMORIES, rng.randint(3, 6)))
        return "sweep", {"kernel": rng.choice(_ANALYTIC_KERNELS), "memory_sizes": sizes,
                         "problem_size": rng.choice((1024, 2048, 4096, 8192)),
                         "analytic": True}
    if kind == "moderate":
        # An external sort of about 80 ms whose key count is drawn fresh, so
        # its points always miss the caches; there are enough of them that
        # the latency tail sits on the client's third poll rather than
        # straddling the second and third.
        sizes = sorted(rng.sample(_SORT_MEMORIES, 3))
        return "sweep", {"kernel": "sorting", "memory_sizes": sizes,
                         "scale": rng.randrange(3072, 4097)}
    if kind == "measured":
        kernel = rng.choice(tuple(_SMALL_SWEEPS))
        grid, (low, high) = _SMALL_SWEEPS[kernel]
        sizes = sorted(rng.sample(grid, 3))
        return "sweep", {"kernel": kernel, "memory_sizes": sizes,
                         "scale": rng.randint(low, high)}
    if rng.random() < 0.5:
        params = {"order": rng.choice((4, 6, 8, 12, 16)), "batches": rng.choice((2, 4, 8)),
                  "engine": "fast", "seed": rng.randrange(1 << 16)}
        return "experiment", {"experiment": "systolic", "params": params}
    memories = sorted(rng.sample((4, 6, 8, 12, 16), 3))
    params = {"matmul_order": rng.choice((3, 4, 5)), "fft_points": rng.choice((16, 32)),
              "matmul_memories": memories, "fft_memories": memories}
    return "experiment", {"experiment": "pebble", "params": params}


def job_stream(rng: random.Random) -> Iterator[tuple[str, dict[str, Any]]]:
    """Endless job submissions; half of them repeat the latest one.

    With two closed-loop clients the latest submission is usually still
    in flight on the other client, so a repeat attaches to it (dedup) or,
    if it already finished, replays from the caches.  Repeating a random
    earlier job instead would make about half of all jobs finish before the
    client's first status check, and the median latency would flip between
    that check and the 50 ms poll after it from run to run.
    """
    kinds = _dealt(JOB_DECK, rng)
    latest = _fresh_job(next(kinds), rng)
    yield latest
    for repeat in _dealt((True, False) * 5, rng):
        if not repeat:
            latest = _fresh_job(next(kinds), rng)
        yield latest
