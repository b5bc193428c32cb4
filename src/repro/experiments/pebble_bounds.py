"""Experiment E9: pebble-game I/O against the Hong-Kung lower bounds.

The paper cites Hong and Kung (1981) to argue that the matmul and FFT
decompositions of Sections 3.1 and 3.4 are optimal.  This experiment plays
the red-blue pebble game on the corresponding DAGs with an automatic
(topological order + LRU) strategy and compares the resulting I/O counts --
which are *upper* bounds on the I/O complexity -- against the closed-form
*lower* bounds.  The reproduction checks that

* the measured I/O always lies above the lower bound (sanity),
* the measured I/O tracks the lower bound's dependence on the fast-memory
  size ``S`` (``1/sqrt(S)`` for matmul, ``1/log S`` for the FFT) to within a
  modest constant factor.

Each (DAG, fast-memory size) measurement is an independent
:class:`~repro.runtime.tasks.Task` (:func:`measure_pebble_point`), so a
pooled :class:`~repro.runtime.tasks.TaskRunner` plays the games in parallel
and a warm :class:`~repro.runtime.cache.TaskCache` replays whole experiments
without touching the game engine.  The larger DAG scenarios (order-10+
matmul, 256-point+ FFT) are the heaviest pure-Python path in the repository;
they run on the game's trusted fast engine
(:func:`repro.pebble.game.play_topological`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.analysis.report import Table
from repro.exceptions import ConfigurationError
from repro.pebble.dag import fft_dag, matmul_dag
from repro.pebble.game import play_topological
from repro.pebble.partition import fft_io_lower_bound, matmul_io_lower_bound
from repro.runtime.tasks import Task, TaskRunner

__all__ = [
    "PebblePoint",
    "PebbleExperiment",
    "blocked_matmul_order",
    "measure_pebble_point",
    "pebble_point_tasks",
    "run_pebble_experiment",
]

#: Modules whose source participates in the cache key of pebble tasks: the
#: game engine, the DAG builders and the lower bounds are the algorithm.
PEBBLE_TASK_MODULES = (
    "repro.pebble.dag",
    "repro.pebble.game",
    "repro.pebble.partition",
)


def blocked_matmul_order(order: int, fast_memory_words: int) -> list[Hashable]:
    """The paper's blocked schedule for the matmul DAG of :func:`matmul_dag`.

    Output elements are processed one ``t x t`` tile at a time with
    ``t = Theta(sqrt(S))``, accumulating all ``k`` terms of a tile before
    moving on -- exactly the decomposition of Section 3.1, expressed as a
    pebble-game schedule.  Playing the game in this order (instead of a
    generic topological order) is what brings the measured I/O within a small
    constant factor of the Hong-Kung lower bound.
    """
    # The live working set of one tile step is t*t partial sums plus a row of
    # A values and a column of B values (2t), so t is chosen to keep
    # t*t + 2*t + 1 within the red-pebble budget.
    tile = max(1, int(math.floor(math.sqrt(fast_memory_words + 2) - 1)))
    while tile > 1 and tile * tile + 2 * tile + 1 > fast_memory_words:
        tile -= 1
    # The tile ranges are materialised once per block; the flat comprehension
    # keeps the quadruply-nested schedule construction out of interpreted
    # append calls (this list has order**3 entries and is rebuilt per memory
    # size, so it is on the experiment's hot path).
    blocks = [
        (range(i0, min(i0 + tile, order)), range(j0, min(j0 + tile, order)))
        for i0 in range(0, order, tile)
        for j0 in range(0, order, tile)
    ]
    return [
        ("c", i, j, k)
        for rows, cols in blocks
        for k in range(order)
        for i in rows
        for j in cols
    ]


@dataclass(frozen=True)
class PebblePoint:
    """One (DAG, fast-memory size) measurement."""

    dag_name: str
    fast_memory_words: int
    measured_io: int
    lower_bound: float

    @property
    def ratio(self) -> float:
        """Measured I/O over the lower bound (must be >= 1 for a valid bound)."""
        if self.lower_bound == 0:
            return float("inf")
        return self.measured_io / self.lower_bound


@dataclass(frozen=True)
class PebbleExperiment:
    """Measured pebble-game I/O against lower bounds across memory sizes."""

    matmul_order: int
    fft_points: int
    points: tuple[PebblePoint, ...]

    def points_for(self, dag_name: str) -> list[PebblePoint]:
        return [p for p in self.points if p.dag_name == dag_name]

    @property
    def all_above_lower_bound(self) -> bool:
        return all(p.measured_io >= p.lower_bound for p in self.points)

    def table(self) -> Table:
        table = Table(
            columns=(
                "DAG",
                "fast memory S (words)",
                "measured I/O (LRU strategy)",
                "Hong-Kung lower bound",
                "ratio",
            ),
            title="Red-blue pebble game: measured I/O vs lower bounds",
        )
        for point in self.points:
            table.add_row(
                point.dag_name,
                point.fast_memory_words,
                point.measured_io,
                point.lower_bound,
                point.ratio,
            )
        return table


def measure_pebble_point(
    *, dag_kind: str, size: int, fast_memory_words: int, blocked: bool = False
) -> PebblePoint:
    """Play one game: one DAG at one fast-memory size (picklable, top-level).

    ``dag_kind`` selects the DAG family (``"matmul"`` with ``size`` the
    matrix order, or ``"fft"`` with ``size`` the point count); ``blocked``
    plays the matmul DAG in the paper's blocked schedule instead of a generic
    topological order.  The DAG is rebuilt inside the worker, which keeps
    the task parameters tiny but is not free: building and ordering the
    DAG costs about as much as playing the game (8.6 ms against a 10.5 ms
    game for fft-256 at S = 16 on a 2-CPU x86 host).
    """
    if dag_kind == "matmul":
        dag = matmul_dag(size)
        lower_bound = matmul_io_lower_bound(size, fast_memory_words)
        order = blocked_matmul_order(size, fast_memory_words) if blocked else None
    elif dag_kind == "fft":
        if blocked:
            raise ConfigurationError("the blocked schedule applies to matmul only")
        dag = fft_dag(size)
        lower_bound = fft_io_lower_bound(size, fast_memory_words)
        order = None
    else:
        raise ConfigurationError(
            f"unknown pebble DAG kind {dag_kind!r}; known kinds: fft, matmul"
        )
    result = play_topological(dag, fast_memory_words, order=order)
    return PebblePoint(
        dag_name=dag.name,
        fast_memory_words=int(fast_memory_words),
        measured_io=result.io_operations,
        lower_bound=float(lower_bound),
    )


def pebble_point_tasks(
    *,
    matmul_order: int = 6,
    fft_points: int = 64,
    matmul_memories: Sequence[int] = (4, 8, 16, 32),
    fft_memories: Sequence[int] = (4, 8, 16, 32),
) -> list[Task]:
    """One task per (DAG, fast-memory size) point of experiment E9."""
    tasks = []
    for memory in matmul_memories:
        tasks.append(
            Task(
                fn=measure_pebble_point,
                params={
                    "dag_kind": "matmul",
                    "size": int(matmul_order),
                    "fast_memory_words": int(memory),
                    "blocked": True,
                },
                name=f"pebble-matmul[{matmul_order}]-S{memory}",
                modules=PEBBLE_TASK_MODULES,
            )
        )
    for memory in fft_memories:
        tasks.append(
            Task(
                fn=measure_pebble_point,
                params={
                    "dag_kind": "fft",
                    "size": int(fft_points),
                    "fast_memory_words": int(memory),
                },
                name=f"pebble-fft[{fft_points}]-S{memory}",
                modules=PEBBLE_TASK_MODULES,
            )
        )
    return tasks


def run_pebble_experiment(
    *,
    matmul_order: int = 6,
    fft_points: int = 64,
    matmul_memories: Sequence[int] = (4, 8, 16, 32),
    fft_memories: Sequence[int] = (4, 8, 16, 32),
    runner: TaskRunner | None = None,
) -> PebbleExperiment:
    """Play the game on the matmul and FFT DAGs across fast-memory sizes.

    The matmul DAG is played in the paper's blocked schedule
    (:func:`blocked_matmul_order`); the FFT DAG uses the generic topological
    order, which already groups whole butterfly stages.  Every point is an
    independent task, so a parallel ``runner`` plays the games concurrently
    and a cached one replays previously measured points; the point order in
    the result is deterministic either way.
    """
    runner = runner or TaskRunner()
    tasks = pebble_point_tasks(
        matmul_order=matmul_order,
        fft_points=fft_points,
        matmul_memories=matmul_memories,
        fft_memories=fft_memories,
    )
    points = runner.run(tasks)
    return PebbleExperiment(
        matmul_order=matmul_order,
        fft_points=fft_points,
        points=tuple(points),
    )
