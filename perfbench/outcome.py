"""What one workload run hands back to ``run.py`` for printing."""

from __future__ import annotations

from dataclasses import dataclass, field

from measure import median, tail

#: Failure reasons printed in full; the rest are only counted.
_MAX_REASONS = 20


@dataclass
class Outcome:
    """Op counts, failure reasons, metrics and report lines of one run."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    #: name -> (value, unit, note printed after the value)
    metrics: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    #: lines printed before the metrics (the traced-run layer table)
    report: list[str] = field(default_factory=list)

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < _MAX_REASONS:
            self.reasons.append(f"{op}: {reason}")

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)

    def put_end_to_end(self, setup_s: list[float], setup_basis: str, op_s: list[float],
                       elapsed_s: float, rss_mb: float, basis: str) -> None:
        """The end-to-end metrics shared by every workload.

        ``op_s`` holds the seconds of each op that succeeded and
        ``elapsed_s`` the timed phase's length on the same basis.
        """
        op_ms = [s * 1000.0 for s in op_s]
        pct, tail_ms = tail(op_ms) if op_ms else (100.0, 0.0)
        ok = self.attempted - self.failed
        self.put("setup_s", median(setup_s), "s",
                 f"median of {len(setup_s)} fresh starts, {setup_basis}")
        self.put("ops_per_s", ok / elapsed_s if elapsed_s else 0.0, "1/s",
                 f"{ok} ops, {basis}")
        self.put("op_p50_ms", median(op_ms), "ms", f"n={len(op_ms)}, {basis}")
        self.put("op_tail_ms", tail_ms, "ms",
                 f"p{pct:.2f}, {min(10, len(op_ms) - 1)} samples beyond, "
                 f"n={len(op_ms)}, {basis}")
        self.put("peak_rss_mb", rss_mb, "MB")
        rate = ok / self.attempted if self.attempted else 0.0
        self.put("success_rate", rate, "ratio",
                 f"error_rate {1.0 - rate:.4f} ({self.failed} of {self.attempted} failed)")
