"""Multi-feedline sharded serving: one discrimination chain per feedline.

The paper's architecture scales by frequency-multiplexing a handful of
qubits onto each feedline and *replicating* the discrimination datapath
per feedline (Chen et al. and Jerger et al. treat the feedline as the
unit of parallelism for exactly this reason). This module is the software
counterpart: :class:`MultiFeedlineRunner` partitions a list of
:class:`~repro.physics.device.ChipConfig` readout groups across shard
workers, each feedline running the full source → micro-batcher →
:class:`~repro.pipeline.stages.BatchDiscriminationEngine` → sink chain
with its own :class:`~repro.pipeline.registry.CalibrationKey`, and merges
the per-feedline :class:`~repro.pipeline.metrics.PipelineReport` digests
into one :class:`ClusterReport` (global shots/sec, worst-feedline p99,
per-feedline FPGA budget verdicts).

Shards run on one of two executors:

- ``serial`` — feedlines run one after another on the calling thread
  (deterministic reference, and the profile/debug path). A one-feedline
  serving session is a one-feedline runner on this executor.
- ``process`` (the default) — a :class:`ProcessShardExecutor` pool with
  one OS process per shard, for the python-bound parts of the chain.
  Workers never receive pickled fitted models: each task carries only
  the chip parameters, registry coordinates and a picklable traffic
  factory, and the worker *rebuilds* its discriminator from
  :class:`~repro.pipeline.registry.CalibrationRegistry` artifacts (or
  fits and stores them on a cold start).

Every feedline's traffic seed is derived deterministically from the
profile seed and the feedline index, so the same cluster run yields
bit-identical assignment counts under any executor and any partitioning.
Heterogeneous clusters dispatch heaviest feedlines first (greedy
longest-first by qubit count x trace length) so a pool never idles while
its longest shard runs last; the aggregate report still lists feedlines
in declared order.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro._util import json_finite
from repro.config import Profile
from repro.data.dataset import ReadoutCorpus
from repro.exceptions import ConfigurationError
from repro.physics.device import ChipConfig
from repro.physics.drift import DriftModel
from repro.pipeline.blas import limit_openblas_threads
from repro.pipeline.metrics import PipelineReport
from repro.pipeline.registry import CalibrationRegistry
from repro.pipeline.runner import (
    DEFAULT_DESIGN,
    PipelineConfig,
    ReadoutPipeline,
    calibration_key,
    fit_or_load_discriminator,
    validate_streamable_design,
)
from repro.pipeline.shm import SharedMemoryTraceSource, SharedTraceBlock
from repro.pipeline.source import TraceSource

__all__ = [
    "EXECUTOR_NAMES",
    "FeedlineSpec",
    "ProcessShardExecutor",
    "available_cpus",
    "validate_executor",
    "ClusterReport",
    "MultiFeedlineRunner",
]


@dataclass(frozen=True)
class FeedlineSpec:
    """One feedline of the cluster: a readout group and its registry name.

    Parameters
    ----------
    name:
        Unique feedline name; appears in the aggregate report.
    chip:
        The readout group streamed and discriminated on this feedline.
    device:
        Registry device name for the feedline's calibration artifacts;
        defaults to ``name``. Two feedlines sharing ``device`` *and* chip
        parameters share one calibration artifact (fit-once enforced by
        the registry's per-key lock).
    """

    name: str
    chip: ChipConfig
    device: str | None = None

    @property
    def registry_device(self) -> str:
        return self.device if self.device is not None else self.name


@dataclass(frozen=True)
class _FeedlineTask:
    """Work order for one feedline shard.

    Carries calibration coordinates, never fitted models, plus
    ``source``: a zero-argument callable that builds this run's
    :class:`~repro.pipeline.source.TraceSource` where the shard runs.
    The shard does not know what kind of traffic it streams. Simulated
    traffic and shared-memory replay views pickle into process shards;
    a one-feedline session's backend ``trace_source`` runs on the
    calling thread. ``calibration_chip`` is the device snapshot the
    served ``version`` was fitted on, and serving demodulates with it.
    """

    name: str
    chip: ChipConfig
    device: str
    profile: Profile
    config: PipelineConfig
    registry_dir: str | None
    design: str
    version: int
    calibration_chip: ChipConfig
    source: Callable[[], TraceSource]


@dataclass(frozen=True)
class _PrefitTask:
    """Picklable calibration-only work order for one feedline.

    The streaming-free sibling of :class:`_FeedlineTask`: resolves the
    feedline's calibration through the shared registry (fitting and
    storing on a cold key) without serving any traffic. Hot
    recalibration reuses it with a bumped ``version`` and the drifted
    device snapshot as ``calibration_chip`` (the key identity stays the
    declared chip's).
    """

    name: str
    chip: ChipConfig
    device: str
    profile: Profile
    registry_dir: str
    design: str
    version: int = 0
    calibration_chip: ChipConfig | None = None


def _prefit_feedline(task: _PrefitTask) -> tuple[str, bool]:
    """Fit or load one feedline's calibration (module-level: pool safe).

    Returns ``(name, cached)`` — whether the artifact was already warm.
    Same-key feedlines stay fit-once through the registry's in-process
    and cross-process fit locks.
    """
    _, cached = fit_or_load_discriminator(
        task.profile,
        CalibrationRegistry(task.registry_dir),
        chip=task.chip,
        device=task.device,
        design=task.design,
        version=task.version,
        calibration_chip=task.calibration_chip,
    )
    return task.name, cached


def _placement_weight(task) -> int:
    """Relative cost of one feedline task: qubit count x trace length.

    Every stage of the chain (demod, matched filter, per-qubit heads)
    scales with the number of multiplexed channels and the samples per
    trace — and so does calibration (corpus size, kernel estimation) —
    so this product tracks task wall time without running it.
    """
    return task.chip.n_qubits * task.chip.trace_len


def _placement_order(tasks: Sequence) -> list:
    """Greedy longest-first dispatch order for heterogeneous feedlines.

    The process pool hands tasks to workers in submission order;
    submitting the heaviest feedlines first keeps a heavy shard from
    landing last on an otherwise-drained pool and stretching the cluster
    wall time. Ties keep spec order (stable sort), so homogeneous
    clusters dispatch exactly as before.
    """
    return sorted(tasks, key=_placement_weight, reverse=True)


def _run_feedline(task: _FeedlineTask) -> tuple[str, PipelineReport]:
    """Run one feedline chain end to end (module-level: process-pool safe).

    The discriminator is resolved through the calibration registry by
    key — a process worker rebuilds it from stored artifacts rather than
    unpickling a fitted object, and a cold worker fits and stores it.
    The task's ``source`` builds the traffic here, and the source is
    closed on the way out (a replay view drops its mapping; the parent
    owns the unlink).
    """
    registry = (
        CalibrationRegistry(task.registry_dir)
        if task.registry_dir is not None
        else None
    )
    discriminator, cached = fit_or_load_discriminator(
        task.profile,
        registry,
        chip=task.chip,
        device=task.device,
        design=task.design,
        version=task.version,
    )
    source = task.source()
    try:
        report = ReadoutPipeline(
            discriminator, task.calibration_chip, task.config
        ).run(source)
    finally:
        source.close()
    report.calibration_cached = cached
    report.details["feedline"] = task.name
    return task.name, report


class ProcessShardExecutor:
    """One OS process per shard; scales the python-bound stage glue.

    Workers rebuild discriminators from calibration-registry artifacts
    (see :func:`_run_feedline`) — fitted models are never pickled across
    the process boundary.

    The pool forks lazily: under the ``fork`` start method (the Linux
    default), ``ProcessPoolExecutor`` launches all ``workers`` at its
    first submit. A serving session's ``prefit()`` in ``warm()`` is that
    first submit, so its first measured run pays no fork. Forked workers
    inherit the creating process's BLAS state.

    BLAS share: before the pool forks, the *creating* process's OpenBLAS
    thread count is lowered to ``max(1, available_cpus() // workers)``
    (see :mod:`repro.pipeline.blas`), so the shards together use no more
    BLAS threads than there are CPUs. Forked workers inherit that count;
    with a share of one they never start an OpenBLAS helper thread, which
    would otherwise busy-wait after every GEMM and take CPU from the other
    shards. The count is only ever lowered, and it stays lowered in the
    creating process after the pool is gone: setting it inside the
    workers, or restoring it after the fork, restarts a helper thread that
    spins for about 0.1 s each time. The inheritance relies on the
    ``fork`` start method. Without OpenBLAS this is a no-op.

    Resource tracker: the creating process also starts its
    ``multiprocessing`` resource tracker before the pool forks, so every
    shard inherits it. A shard with a tracker of its own would have it
    unlink every segment the shard attached as soon as the shard exits,
    a serving session's live replay segment included.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        limit_openblas_threads(max(1, available_cpus() // workers))
        resource_tracker.ensure_running()
        self._executor = ProcessPoolExecutor(max_workers=workers)

    def map(self, fn: Callable, tasks: Sequence) -> list:
        """Run ``fn`` over every task, returning results in task order."""
        return list(self._executor.map(fn, tasks))

    def close(self) -> None:
        """Shut the pool down and wait for its workers. Idempotent."""
        self._executor.shutdown(wait=True)


#: Valid ``executor=`` names, in documentation order.
EXECUTOR_NAMES = ("serial", "process")


def validate_executor(name: str) -> str:
    """Check a shard-executor name; returns it for chaining."""
    if name not in EXECUTOR_NAMES:
        known = ", ".join(EXECUTOR_NAMES)
        raise ConfigurationError(
            f"unknown shard executor {name!r}; expected one of: {known}"
        )
    return name


def available_cpus() -> int:
    """Usable CPU count (honors cgroup/affinity pinning where exposed)."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class ClusterReport:
    """Aggregate digest of one multi-feedline run.

    Attributes
    ----------
    executor, workers:
        Shard backend name and its worker count.
    n_shots:
        Total shots streamed across all feedlines.
    wall_seconds:
        Cluster wall time (slowest shard path, including dispatch).
    shots_per_second:
        Global throughput: total shots over cluster wall time.
    feedline_reports:
        Per-feedline :class:`PipelineReport`, in feedline order.
    placement:
        Feedline name -> dispatch slot actually used (0 = submitted
        first). Records the greedy longest-first order so scheduling
        decisions are auditable from the report alone.
    """

    executor: str
    workers: int
    n_shots: int
    wall_seconds: float
    shots_per_second: float
    feedline_reports: dict[str, PipelineReport] = field(default_factory=dict)
    placement: dict[str, int] = field(default_factory=dict)

    @property
    def n_feedlines(self) -> int:
        return len(self.feedline_reports)

    def worst_p99_ms(self) -> dict[str, float]:
        """Per stage, the worst (max) p99 batch latency over feedlines."""
        worst: dict[str, float] = {}
        for report in self.feedline_reports.values():
            for stage, summary in report.stage_summaries.items():
                if summary["p99_ms"] is None:  # empty stage: no data
                    continue
                p99 = float(summary["p99_ms"])
                if p99 > worst.get(stage, float("-inf")):
                    worst[stage] = p99
        return worst

    def budget_verdicts(self) -> dict[str, dict]:
        """Per feedline, the FPGA decision-budget verdict."""
        return {
            name: report.budget.to_dict()
            for name, report in self.feedline_reports.items()
            if report.budget is not None
        }

    @property
    def accuracy(self) -> float | None:
        """Shot-weighted mean accuracy over feedlines that report one."""
        weighted = 0.0
        shots = 0
        for report in self.feedline_reports.values():
            if report.accuracy is not None:
                weighted += report.accuracy * report.n_shots
                shots += report.n_shots
        return weighted / shots if shots else None

    @property
    def drift_score(self) -> float | None:
        """Worst (max) per-feedline drift score; None when unmonitored.

        The feedline is the unit of calibration, so one drifting
        feedline is enough to demand attention — averaging would let a
        healthy majority mask it.
        """
        scores = [
            report.drift_score
            for report in self.feedline_reports.values()
            if report.drift_score is not None
        ]
        return max(scores) if scores else None

    @property
    def drift_alarm(self) -> bool | None:
        """Whether any monitored feedline tripped its drift alarm."""
        flags = [
            report.drift_alarm
            for report in self.feedline_reports.values()
            if report.drift_alarm is not None
        ]
        return any(flags) if flags else None

    def to_dict(self) -> dict:
        """JSON-serializable form (``--json`` / bench output)."""
        return {
            "executor": self.executor,
            "workers": self.workers,
            "n_feedlines": self.n_feedlines,
            "n_shots": self.n_shots,
            "wall_seconds": self.wall_seconds,
            "shots_per_second": self.shots_per_second,
            "accuracy": self.accuracy,
            "drift_score": self.drift_score,
            "drift_alarm": self.drift_alarm,
            "worst_p99_ms": json_finite(self.worst_p99_ms()),
            "budget_verdicts": self.budget_verdicts(),
            "placement": dict(self.placement),
            "feedlines": {
                name: report.to_dict()
                for name, report in self.feedline_reports.items()
            },
        }

    def format_table(self) -> str:
        """Aligned text report in the house experiment style."""
        from repro.experiments.report import format_rows

        rows = []
        for name, report in self.feedline_reports.items():
            worst_stage_p99 = max(
                (
                    s["p99_ms"]
                    for s in report.stage_summaries.values()
                    if s["p99_ms"] is not None
                ),
                default=float("nan"),
            )
            rows.append(
                [
                    name,
                    report.n_shots,
                    f"{report.shots_per_second:.0f}",
                    "-" if report.accuracy is None else f"{report.accuracy:.4f}",
                    f"{worst_stage_p99:.2f}",
                    (
                        "-"
                        if report.budget is None
                        else f"{report.budget.slowdown:.0f}x"
                    ),
                ]
            )
        table = format_rows(
            ["feedline", "shots", "shots/s", "accuracy", "p99 ms", "vs fpga"],
            rows,
            title=(
                f"multi-feedline pipeline ({self.n_feedlines} feedlines, "
                f"{self.executor} executor, {self.workers} workers)"
            ),
        )
        lines = [
            table,
            "",
            f"global throughput    {self.shots_per_second:.0f} shots/s "
            f"({self.n_shots} shots in {self.wall_seconds:.2f} s wall)",
        ]
        if self.accuracy is not None:
            lines.append(f"joint-state accuracy {self.accuracy:.4f} (weighted)")
        worst = self.worst_p99_ms()
        if worst:
            stage, p99 = max(worst.items(), key=lambda kv: kv[1])
            lines.append(f"worst stage p99      {p99:.2f} ms ({stage})")
        return "\n".join(lines)


class MultiFeedlineRunner:
    """Streams several feedlines concurrently, one chain per shard.

    Parameters
    ----------
    feedlines:
        Feedline specs, or bare :class:`ChipConfig` readout groups
        (auto-named ``feedline-<i>``).
    profile:
        Sizing profile shared by every feedline's calibration.
    executor:
        Shard backend: ``process`` (default) or ``serial``.
    workers:
        Process shards; defaults to one per feedline, capped at the CPU
        count (forked shards timesharing one core thrash the cache
        across address spaces). ``serial`` always runs (and reports)
        one worker, whatever is asked.
    config:
        Per-feedline runtime config (batching, backpressure, adaptive
        batching, drift detection).
    chunk_size:
        Shots per source chunk inside each feedline.
    registry_dir:
        Shared calibration-registry root. ``None`` makes every shard fit
        its own calibration from scratch (no artifacts stored) — fine
        for ``serial``, wasteful but correct for ``process``.
    design:
        Registered discriminator design served on every feedline; must
        resolve to the MLR family (checked here, once).
    """

    def __init__(
        self,
        feedlines: Sequence[FeedlineSpec | ChipConfig],
        profile: Profile,
        *,
        executor: str = "process",
        workers: int | None = None,
        config: PipelineConfig | None = None,
        chunk_size: int = 256,
        registry_dir: str | Path | None = None,
        design: str = DEFAULT_DESIGN,
    ) -> None:
        specs = [
            spec
            if isinstance(spec, FeedlineSpec)
            else FeedlineSpec(name=f"feedline-{i}", chip=spec)
            for i, spec in enumerate(feedlines)
        ]
        if not specs:
            raise ConfigurationError("cluster needs at least one feedline")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"feedline names must be unique, got {names}"
            )
        validate_executor(executor)
        validate_streamable_design(design)
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.feedlines = tuple(specs)
        self.profile = profile
        self.executor = executor
        if executor == "serial":
            workers = 1  # one caller thread runs every feedline
        elif workers is None:
            workers = min(len(specs), available_cpus())
        self.workers = int(workers)
        self.config = config or PipelineConfig()
        self.chunk_size = int(chunk_size)
        self.registry_dir = (
            str(registry_dir) if registry_dir is not None else None
        )
        self.design = design
        # The process shard pool, forked by the first _map() call and
        # kept across calls until close() (or a failed call) drops it.
        self._pool: ProcessShardExecutor | None = None
        # Calibration-artifact version served per feedline name. Hot
        # recalibration bumps these atomically (plain dict assignment
        # under the GIL) so the next run() serves the new artifacts
        # without touching the pool or the session.
        self._versions: dict[str, int] = {
            spec.name: 0 for spec in self.feedlines
        }
        # Device snapshot each feedline's served version was fitted on:
        # the declared chip, until a recalibration fits on the drifted
        # device. Serving demodulates with it.
        self._calibration_chips: dict[str, ChipConfig] = {
            spec.name: spec.chip for spec in self.feedlines
        }

    def _map(self, fn: Callable, tasks: Sequence) -> list:
        """Run ``fn`` over ``tasks`` heaviest-first; results in that order.

        The one shard path of :meth:`prefit`, :meth:`recalibrate` and
        :meth:`dispatch`. ``serial`` runs every task on the calling
        thread; ``process`` runs them on the runner's pool, forked on
        first use and reused by later calls. A failed call closes the
        pool — a dead shard leaves it broken — so the next call forks a
        fresh one.
        """
        ordered = _placement_order(tasks)
        try:
            if self.executor == "serial":
                return [fn(task) for task in ordered]
            if self._pool is None:
                self._pool = ProcessShardExecutor(self.workers)
            return self._pool.map(fn, ordered)
        except BaseException:
            self.close()
            raise

    def prefit(self) -> int:
        """Resolve every feedline's calibration through the shard pool.

        Dispatches calibration-only tasks (no streaming) over the
        runner's executor, so cold fits for distinct feedlines run as
        concurrently as serving does: process shards fit in the workers
        that later serve them, with artifacts handed off through the
        shared registry. On ``process`` the first call forks the pool,
        which is how a serving session's ``warm()`` keeps the fork out
        of its first run. Heaviest feedlines fit first (same greedy
        longest-first order as serving); same-key feedlines stay
        fit-once via the registry's fit locks. Returns the number of
        cold fits performed.
        """
        if self.registry_dir is None:
            raise ConfigurationError(
                "prefit() needs a registry_dir: stored artifacts are the "
                "hand-off between calibration and serving shards"
            )
        tasks = [
            _PrefitTask(
                name=spec.name,
                chip=spec.chip,
                device=spec.registry_device,
                profile=self.profile,
                registry_dir=self.registry_dir,
                design=self.design,
            )
            for spec in self.feedlines
        ]
        results = self._map(_prefit_feedline, tasks)
        return sum(0 if cached else 1 for _, cached in results)

    def artifact_versions(self) -> dict[str, int]:
        """Calibration-artifact version currently served per feedline."""
        return dict(self._versions)

    def recalibrate(
        self,
        drift_model: DriftModel,
        shots_elapsed: int,
        profile: Profile | None = None,
    ) -> int:
        """Refit every feedline against the drifted device, hot.

        Dispatches calibration tasks through the shard pool — exactly
        like :meth:`prefit`, so recalibration runs as concurrently as
        serving — at each feedline's *next* artifact version, with the
        calibration corpus simulated from the device ``drift_model``
        predicts after ``shots_elapsed`` session shots. The currently
        served versions stay on disk and keep serving until every fit
        lands; only then are the served versions swapped, so a run
        dispatched mid-recalibration never sees a half-updated cluster.
        The swap also stores the device snapshots the fits ran on, and
        serving demodulates with them.

        Parameters
        ----------
        drift_model:
            The session's drift injection; its ``chip_at`` snapshot is
            the best available stand-in for "the device now".
        shots_elapsed:
            Session shots already served (the drift clock).
        profile:
            Optional sizing override for the recalibration fits (e.g. a
            reduced shot budget); defaults to the serving profile. The
            profile *name and seed* must match the serving profile's —
            they are baked into the artifact key.

        Returns the number of cold fits performed.
        """
        if self.registry_dir is None:
            raise ConfigurationError(
                "recalibrate() needs a registry_dir: versioned artifacts "
                "are the hand-off between recalibration and serving shards"
            )
        fit_profile = profile if profile is not None else self.profile
        # The next version must exceed both the version *we* serve and
        # anything already stored — a persistent registry may hold
        # versions from earlier sessions, and serving one of those as a
        # warm hit would be exactly the stale calibration this refit is
        # supposed to replace.
        registry = CalibrationRegistry(self.registry_dir)
        next_versions = {}
        for spec in self.feedlines:
            stored = registry.latest_version(
                calibration_key(
                    fit_profile,
                    chip=spec.chip,
                    device=spec.registry_device,
                    design=self.design,
                )
            )
            next_versions[spec.name] = (
                max(
                    self._versions.get(spec.name, 0),
                    -1 if stored is None else stored,
                )
                + 1
            )
        tasks = [
            _PrefitTask(
                name=spec.name,
                chip=spec.chip,
                device=spec.registry_device,
                profile=fit_profile,
                registry_dir=self.registry_dir,
                design=self.design,
                version=next_versions[spec.name],
                calibration_chip=drift_model.chip_at(
                    spec.chip, shots_elapsed
                ),
            )
            for spec in self.feedlines
        ]
        results = self._map(_prefit_feedline, tasks)
        # Swap only after every feedline's new artifact is on disk.
        self._versions = next_versions
        self._calibration_chips = {
            task.name: task.calibration_chip for task in tasks
        }
        return sum(0 if cached else 1 for _, cached in results)

    def close(self) -> None:
        """Shut down the shard pool. Idempotent; the next call forks anew."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "MultiFeedlineRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        n_shots: int,
        seed: int | None = None,
        drift_model: DriftModel | None = None,
        drift_shot_offset: int = 0,
    ) -> ClusterReport:
        """Stream ``n_shots`` per feedline; returns the aggregate report.

        Parameters
        ----------
        n_shots:
            Shots of simulated traffic streamed on *each* feedline.
        seed:
            Base traffic seed (default ``profile.seed + 1``); feedline
            ``i`` streams with ``seed + i``.
        drift_model, drift_shot_offset:
            Optional device-drift injection: every feedline streams
            from the time-varying device the model predicts, with the
            session clock starting at ``drift_shot_offset`` shots.
        """
        if n_shots < 1:
            raise ConfigurationError(f"n_shots must be >= 1, got {n_shots}")
        return self.dispatch(
            self._simulated_traffic(
                n_shots, seed, drift_model=drift_model,
                drift_shot_offset=drift_shot_offset,
            )
        )

    def _simulated_traffic(
        self,
        n_shots: int,
        seed: int | None,
        drift_model: DriftModel | None = None,
        drift_shot_offset: int = 0,
    ) -> list[Callable[[], TraceSource]]:
        """Picklable simulated-traffic factories, in declared order."""
        # Lazy import: repro.backends sits above the pipeline.
        from repro.backends.simulator import SimulatorBackend

        base_seed = self.profile.seed + 1 if seed is None else int(seed)
        return [
            partial(
                SimulatorBackend(
                    spec.chip,
                    chunk_size=self.chunk_size,
                    drift=drift_model,
                    shot_offset=drift_shot_offset,
                ).trace_source,
                int(n_shots),
                # Distinct deterministic traffic per feedline: executors
                # and partitionings all see identical streams.
                seed=base_seed + index,
            )
            for index, spec in enumerate(self.feedlines)
        ]

    def _tasks(
        self, traffic: Sequence[Callable[[], TraceSource]]
    ) -> list[_FeedlineTask]:
        """One work order per feedline: its traffic and served version."""
        if len(traffic) != len(self.feedlines):
            raise ConfigurationError(
                f"{len(traffic)} traffic sources for {len(self.feedlines)} "
                "feedlines"
            )
        return [
            _FeedlineTask(
                name=spec.name,
                chip=spec.chip,
                device=spec.registry_device,
                profile=self.profile,
                config=self.config,
                registry_dir=self.registry_dir,
                design=self.design,
                version=self._versions[spec.name],
                calibration_chip=self._calibration_chips[spec.name],
                source=source,
            )
            for spec, source in zip(self.feedlines, traffic)
        ]

    def dispatch(
        self, traffic: Sequence[Callable[[], TraceSource]]
    ) -> ClusterReport:
        """Serve one run of traffic through the shard pool.

        The one run path: :meth:`run`, :meth:`dispatch_replay` and a
        one-feedline :class:`repro.serve.ReadoutService` all end here.
        ``traffic`` holds one zero-argument callable per feedline, in
        declared order, that builds the feedline's
        :class:`~repro.pipeline.source.TraceSource` where its shard
        runs; process shards need it picklable. Every feedline serves
        its current artifact version, demodulated with the device
        snapshot that version was fitted on.

        Heterogeneous feedlines dispatch heaviest-first (greedy
        longest-first); each feedline's traffic is fixed before
        dispatch, so the dispatch order cannot change any result.
        """
        tasks = self._tasks(traffic)
        # The timed window covers dispatch and shard execution: a warm
        # session forked its pool in prefit(), and teardown is a
        # serving-lifetime cost, not per-stream throughput.
        wall_start = time.perf_counter()
        results = self._map(_run_feedline, tasks)
        wall = time.perf_counter() - wall_start

        # Reports keep declared feedline order regardless of placement.
        by_name = dict(results)
        reports = {task.name: by_name[task.name] for task in tasks}
        total_shots = sum(r.n_shots for r in reports.values())
        return ClusterReport(
            executor=self.executor,
            workers=self.workers,
            n_shots=total_shots,
            wall_seconds=wall,
            # Never Infinity (unserializable as strict JSON): a
            # sub-resolution wall reports 0.0, "not measurable".
            shots_per_second=total_shots / wall if wall > 0 else 0.0,
            feedline_reports=reports,
            placement={name: slot for slot, (name, _) in enumerate(results)},
        )

    def publish_replay(
        self,
        corpora: (
            dict[str, ReadoutCorpus]
            | Sequence[ReadoutCorpus]
            | ReadoutCorpus
        ),
    ) -> dict[str, SharedTraceBlock]:
        """Validate replay corpora and publish them to shared memory.

        The publish half of :meth:`run_replay`. Each *distinct* corpus
        object is copied once into a
        :class:`~repro.pipeline.shm.SharedTraceBlock`; every feedline it
        is broadcast to reads the same segment (readers never write).

        ``corpora`` takes the forms :meth:`run_replay` documents. Returns
        feedline name -> block. The caller owns the blocks: it passes
        them to :meth:`dispatch_replay` as often as it likes and calls
        ``unlink()`` on every value once no dispatch is left (unlink is
        idempotent, so a shared block may be unlinked once per feedline).
        Nothing is left published when this raises.
        """
        if hasattr(corpora, "feedline") and hasattr(corpora, "n_traces"):
            # A single corpus object: every feedline replays the same
            # recorded traffic (the record -> replay serving path).
            corpora = {spec.name: corpora for spec in self.feedlines}
        if not isinstance(corpora, dict):
            if len(corpora) != len(self.feedlines):
                raise ConfigurationError(
                    f"{len(corpora)} corpora for {len(self.feedlines)} "
                    "feedlines"
                )
            corpora = {
                spec.name: corpus
                for spec, corpus in zip(self.feedlines, corpora)
            }
        missing = [
            spec.name for spec in self.feedlines if spec.name not in corpora
        ]
        if missing:
            raise ConfigurationError(
                f"replay is missing corpora for feedlines: {missing}"
            )
        # Feedline names per distinct corpus object, in declared order.
        sharing: dict[int, list[str]] = {}
        for spec in self.feedlines:
            corpus = corpora[spec.name]
            if corpus.chip.n_qubits != spec.chip.n_qubits:
                raise ConfigurationError(
                    f"corpus for feedline {spec.name!r} has "
                    f"{corpus.chip.n_qubits} qubits, spec chip has "
                    f"{spec.chip.n_qubits}"
                )
            if getattr(corpus, "prepared_levels", None) is None:
                raise ConfigurationError(
                    f"corpus for feedline {spec.name!r} carries no "
                    "prepared-level labels; shared-memory replay "
                    "needs a labeled corpus"
                )
            sharing.setdefault(id(corpus), []).append(spec.name)
        blocks: dict[str, SharedTraceBlock] = {}
        try:
            for names in sharing.values():
                # The label names the feedlines reading the segment in
                # sanitizer lifetime-audit witnesses (REPRO_SANITIZE).
                block = SharedTraceBlock.from_corpus(
                    corpora[names[0]], label="+".join(names)
                )
                blocks.update(dict.fromkeys(names, block))
        except BaseException:
            for block in blocks.values():
                block.unlink()
            raise
        return blocks

    def dispatch_replay(
        self, blocks: Mapping[str, SharedTraceBlock]
    ) -> ClusterReport:
        """Replay published segments through the shard pool.

        The dispatch half of :meth:`run_replay`: each feedline's traffic
        is a picklable view factory over its block's descriptor, and
        shard workers attach by name and stream read-only views.
        ``blocks`` maps every feedline name to a live block (as
        :meth:`publish_replay` returns); they stay published, so a
        serving session dispatches the same blocks on every run.
        """
        return self.dispatch(
            [
                partial(
                    SharedMemoryTraceSource,
                    blocks[spec.name].descriptor,
                    spec.chip,
                    chunk_size=self.chunk_size,
                )
                for spec in self.feedlines
            ]
        )

    def run_replay(
        self,
        corpora: (
            dict[str, ReadoutCorpus]
            | Sequence[ReadoutCorpus]
            | ReadoutCorpus
        ),
    ) -> ClusterReport:
        """Replay pre-built corpora over shared memory; aggregate report.

        One-shot publish -> dispatch -> unlink. Each distinct corpus is
        published once as a shared-memory
        :class:`~repro.pipeline.shm.SharedTraceBlock`, so a corpus
        broadcast to every feedline occupies one segment, not one per
        feedline. Shard workers — in-process or forked — attach by
        descriptor and stream zero-copy views, so dispatch ships
        kilobytes of coordinates instead of pickling the trace arrays.
        This is also the honest serving benchmark: the traffic already
        exists, so the measured window contains discrimination only, not
        simulator time. A serving session
        (:class:`repro.serve.ReadoutService`) instead calls the two
        halves itself: :meth:`publish_replay` once at warm-up,
        :meth:`dispatch_replay` on every run, and unlinks at close.

        Parameters
        ----------
        corpora:
            One :class:`~repro.data.dataset.ReadoutCorpus` per feedline,
            as a name-keyed dict or a sequence in declared feedline
            order — or a *single* corpus (a ``ReadoutCorpus`` or a
            loaded :class:`~repro.backends.corpus.RecordedCorpus`),
            broadcast to every feedline. Every corpus must match its
            feedline's chip geometry and carry labels (the shared block
            ships traces and ground truth together).

        Segments are unlinked before returning, success or not.
        """
        blocks = self.publish_replay(corpora)
        try:
            return self.dispatch_replay(blocks)
        finally:
            for block in blocks.values():
                block.unlink()
