"""Per-layer shims for the traced in-process run.

:class:`LayerTracer` swaps a timing wrapper in for the public functions of
each layer (``repro.kernels``, ``repro.arrays``, ``repro.pebble``, the
runtime's keys and caches, ``repro.store``) and restores the originals on
exit.  Each wrapper records calls, busy time (outermost call of its layer
only) and self time (its duration minus the wrapped calls nested in it),
plus the work counts the program itself reports; the program is not
edited.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable

import repro.experiments.pebble_bounds as pebble_bounds
import repro.pebble.game as pebble_game
import repro.runtime.cache as runtime_cache
import repro.runtime.suites as runtime_suites
import repro.store.readers as store_readers
from repro.arrays.systolic import LinearMatvecArray, OutputStationaryMatmulArray
from repro.arrays.triangular_qr import GentlemanKungTriangularArray
from repro.kernels.base import Kernel
from repro.runtime import MISS, ResultCache, Task, TaskCache

#: Report order of the layers.
LAYERS = ("suite", "kernels", "arrays", "pebble", "runtime.keys",
          "runtime.cache.get", "runtime.cache.put", "store")


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0  # the layer's own count: ops, cell-cycles, moves, hits
    words: float = 0.0  # kernels only: counted I/O words


def _count_kernel(stats: LayerStats, execution: Any) -> None:
    stats.work += execution.cost.compute_ops
    stats.words += execution.cost.io_words


def _count_array(stats: LayerStats, result: Any) -> None:
    cells = getattr(result, "active_cell_cycles", None)
    stats.work += cells if cells is not None else result.active_cell_steps


def _count_pebble(stats: LayerStats, game: Any) -> None:
    stats.work += game.loads + game.stores + game.computations


def _count_result_hit(stats: LayerStats, value: Any) -> None:
    stats.work += value is not None


def _count_task_hit(stats: LayerStats, value: Any) -> None:
    stats.work += value is not MISS


class LayerTracer:
    """Installs the shims for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self._stack: list[list[Any]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, layer: str, fn: Callable[..., Any],
             count: Callable[[LayerStats, Any], None] | None = None) -> Callable[..., Any]:
        stats = self.stats[layer]
        stack = self._stack

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if all(f[0] != layer for f in stack):
                    stats.busy_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                count(stats, value)
            return value

        return shim

    def _patch(self, owner: Any, name: str, layer: str,
               count: Callable[[LayerStats, Any], None] | None = None) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, self.wrap(layer, original, count))

    def __enter__(self) -> "LayerTracer":
        self._patch(Kernel, "execute", "kernels", _count_kernel)
        for cls in (OutputStationaryMatmulArray, LinearMatvecArray,
                    GentlemanKungTriangularArray):
            self._patch(cls, "run", "arrays", _count_array)
            self._patch(cls, "verify", "arrays")  # calls run: timed, not counted
        play = self.wrap("pebble", pebble_game.play_topological, _count_pebble)
        for module in (pebble_game, pebble_bounds):
            self._saved.append((module, "play_topological", module.play_topological))
            module.play_topological = play
        key = self.wrap("runtime.keys", runtime_cache.execution_key)
        for module in (runtime_cache, runtime_suites):
            self._saved.append((module, "execution_key", module.execution_key))
            module.execution_key = key
        self._patch(Task, "key", "runtime.keys")
        self._patch(ResultCache, "load", "runtime.cache.get", _count_result_hit)
        self._patch(TaskCache, "load", "runtime.cache.get", _count_task_hit)
        self._patch(ResultCache, "store", "runtime.cache.put")
        self._patch(TaskCache, "store", "runtime.cache.put")
        self._patch(store_readers, "ingest_payload", "store")
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def attributed_s(self) -> float:
        """Self time summed over every layer (each second counted once)."""
        return sum(stats.self_s for stats in self.stats.values())
