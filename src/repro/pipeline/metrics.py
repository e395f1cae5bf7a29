"""Per-stage latency and throughput instrumentation for the runtime.

Every micro-batch that flows through the pipeline is timed stage by stage
(matched filter, discriminate, sink); :class:`LatencyStats`
aggregates the samples into p50/p99 quantiles and the final
:class:`PipelineReport` scores the measured per-shot compute latency
against the FPGA decision budget of :mod:`repro.fpga.latency` — the
software runtime's honest distance from the paper's 5-cycle hardware
operating point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro._util import json_finite
from repro.exceptions import ConfigurationError, DataError
from repro.experiments.report import format_rows
from repro.fpga.latency import CycleBudgetCheck

__all__ = ["LatencyStats", "StageTimings", "PipelineReport"]


#: Default per-stage sample window for percentile estimation. 4096
#: batches at the default dispatch size is hundreds of thousands of
#: shots — plenty for stable p50/p99 — while bounding a long-lived
#: serving session's footprint at a few tens of kilobytes per stage.
DEFAULT_LATENCY_WINDOW = 4096


def _percentile(ordered: list[float], q: float) -> float:
    """``np.percentile(ordered, q)`` (linear method) of sorted samples.

    Interpolates between the two order statistics around ``q / 100 *
    (n - 1)`` the way numpy's ``_lerp`` does, from the upper neighbour
    when the weight reaches one half, so the result matches numpy's.
    """
    position = q / 100.0 * (len(ordered) - 1)
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    weight = position - below
    low, high = ordered[below], ordered[above]
    if weight >= 0.5:
        return high - (high - low) * (1.0 - weight)
    return low + (high - low) * weight


class LatencyStats:
    """Streaming collection of per-batch latency samples (seconds).

    Totals (:attr:`count`, :attr:`total_seconds`, :attr:`total_shots`)
    are exact scalar accumulators over the whole stream; percentiles are
    estimated over a bounded sliding window of the most recent
    ``window`` samples. A serving session is open-ended, so appending
    every sample forever would grow memory linearly with uptime — and
    recent samples are also the honest basis for latency percentiles on
    a drifting machine.
    """

    def __init__(
        self, name: str = "stage", window: int = DEFAULT_LATENCY_WINDOW
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.name = name
        self.window = int(window)
        self._samples: deque[float] = deque(maxlen=self.window)
        self._count = 0
        self._total_seconds = 0.0
        self._total_shots = 0

    def record(self, seconds: float, n_shots: int = 1) -> None:
        """Add one batch's wall time and its shot count."""
        if seconds < 0:
            raise ConfigurationError("latency sample must be >= 0")
        if n_shots < 1:
            raise ConfigurationError("n_shots must be >= 1")
        self._samples.append(float(seconds))
        self._count += 1
        self._total_seconds += float(seconds)
        self._total_shots += int(n_shots)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total_seconds(self) -> float:
        return self._total_seconds

    @property
    def total_shots(self) -> int:
        return self._total_shots

    @property
    def window_count(self) -> int:
        """Samples currently inside the percentile window."""
        return len(self._samples)

    def percentile(self, q: float) -> float:
        """Batch-latency percentile in seconds (q in [0, 100]).

        Computed over the bounded recent-sample window. With zero
        recorded samples this is NaN — an empty or stalled stage must
        read as "no data", never as 0 ms (which would make it look
        infinitely fast in reports).
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"q must be in [0, 100], got {q}")
        if not self._samples:
            return float("nan")
        return _percentile(sorted(self._samples), q)

    @property
    def p50_ms(self) -> float:
        return self.percentile(50.0) * 1e3

    @property
    def p99_ms(self) -> float:
        return self.percentile(99.0) * 1e3

    @property
    def mean_per_shot_us(self) -> float:
        """Mean compute time per shot in microseconds (NaN if empty)."""
        shots = self.total_shots
        if shots == 0:
            return float("nan")
        return self.total_seconds / shots * 1e6

    def summary(self) -> dict:
        """JSON-able digest of this stage's timing distribution.

        Percentiles over an empty stage are NaN (see :meth:`percentile`);
        :func:`json_finite` maps them to ``None`` so the digest stays
        strict-JSON serializable. Both percentiles come from one sort of
        the window.
        """
        if self._samples:
            ordered = sorted(self._samples)
            p50, p99 = _percentile(ordered, 50.0), _percentile(ordered, 99.0)
        else:
            p50 = p99 = float("nan")
        return {
            "batches": self.count,
            "p50_ms": json_finite(p50 * 1e3),
            "p99_ms": json_finite(p99 * 1e3),
            "mean_per_shot_us": json_finite(self.mean_per_shot_us),
            "total_seconds": self.total_seconds,
        }


#: Canonical stage order in reports.
STAGE_ORDER = ("matched_filter", "discriminate", "sink")


class StageTimings:
    """One :class:`LatencyStats` per pipeline stage, in :data:`STAGE_ORDER`.

    The stages appear with the first recorded batch, so a run that
    served nothing has none.
    """

    def __init__(self) -> None:
        self.stages: dict[str, LatencyStats] = {}

    def record_batch(self, seconds: tuple[float, ...], n_shots: int) -> None:
        """Record one batch's time in each :data:`STAGE_ORDER` stage.

        One Python call per batch appends to every stage's window: the
        times are ``perf_counter`` differences and ``n_shots`` a
        batch's size, so :meth:`LatencyStats.record`'s checks hold by
        construction and are not repeated. Samples, counts and totals
        end up as one :meth:`LatencyStats.record` per stage leaves them.
        """
        if not self.stages:
            self.stages = {name: LatencyStats(name) for name in STAGE_ORDER}
        for stats, value in zip(self.stages.values(), seconds):
            stats._samples.append(value)
            stats._count += 1
            stats._total_seconds += value
            stats._total_shots += n_shots

    def __getitem__(self, stage: str) -> LatencyStats:
        return self.stages[stage]

    def __contains__(self, stage: str) -> bool:
        return stage in self.stages

    def ordered(self) -> list[LatencyStats]:
        return list(self.stages.values())

    def compute_per_shot_us(self) -> float:
        """Mean per-shot compute latency over all non-sink stages."""
        stats = [s for s in self.ordered() if s.name != "sink"]
        if not stats:
            raise DataError("no stage timings recorded")
        return float(sum(s.mean_per_shot_us for s in stats))


@dataclass
class PipelineReport:
    """End-of-run digest: throughput, stage latencies, budget, sink."""

    n_shots: int
    n_batches: int
    wall_seconds: float
    shots_per_second: float
    stage_summaries: dict[str, dict]
    budget: CycleBudgetCheck | None = None
    sink_summary: dict = field(default_factory=dict)
    accuracy: float | None = None
    calibration_cached: bool | None = None
    assignment_counts: list[int] | None = None
    details: dict = field(default_factory=dict)
    drift_score: float | None = None
    drift_alarm: bool | None = None

    def to_dict(self) -> dict:
        """JSON-serializable form (for ``--json`` benchmark output)."""
        out = {
            "n_shots": self.n_shots,
            "n_batches": self.n_batches,
            "wall_seconds": self.wall_seconds,
            "shots_per_second": self.shots_per_second,
            "stages": self.stage_summaries,
            "sink": self.sink_summary,
            "accuracy": self.accuracy,
            "calibration_cached": self.calibration_cached,
            "assignment_counts": self.assignment_counts,
            "details": self.details,
            "drift_score": self.drift_score,
            "drift_alarm": self.drift_alarm,
        }
        if self.budget is not None:
            out["budget"] = self.budget.to_dict()
        return out

    def format_table(self) -> str:
        """Aligned text report in the house experiment style."""

        def cell(value):
            # An empty stage reports no-data latencies (None in the JSON
            # digest, NaN at the property level); render "-" rather than
            # a numeric 0 that would read as a real measurement.
            if value is None or (isinstance(value, float) and np.isnan(value)):
                return "-"
            return value

        rows = [
            [
                name,
                summary["batches"],
                cell(summary["p50_ms"]),
                cell(summary["p99_ms"]),
                cell(summary["mean_per_shot_us"]),
            ]
            for name, summary in self.stage_summaries.items()
        ]
        table = format_rows(
            ["stage", "batches", "p50 ms", "p99 ms", "us/shot"],
            rows,
            title="streaming readout pipeline",
        )
        lines = [
            table,
            "",
            f"shots                {self.n_shots} in {self.n_batches} batches",
            f"throughput           {self.shots_per_second:.0f} shots/s "
            f"({self.wall_seconds:.2f} s wall)",
        ]
        if self.accuracy is not None:
            lines.append(f"joint-state accuracy {self.accuracy:.4f}")
        if self.drift_score is not None:
            state = "ALARM" if self.drift_alarm else "ok"
            lines.append(
                f"drift                score {self.drift_score:.4f} ({state})"
            )
        if self.calibration_cached is not None:
            state = "warm (loaded)" if self.calibration_cached else "cold (fitted)"
            lines.append(f"calibration          {state}")
        if self.budget is not None:
            lines.append(
                f"fpga budget          {self.budget.budget_ns:.0f} ns/shot vs "
                f"measured {self.budget.measured_ns:.0f} ns/shot "
                f"({self.budget.slowdown:.0f}x slowdown)"
            )
        if self.sink_summary:
            lines.append(
                "sink                 "
                + ", ".join(
                    f"{k}={v}" for k, v in self.sink_summary.items()
                    if not isinstance(v, (list, dict))
                )
            )
        return "\n".join(lines)
