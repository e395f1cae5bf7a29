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

Like the paper's datapath, a shard is calibrated once and then serves
continuously: each one is a :class:`FeedlineWorker` that lives for a
warm cycle, from the runner's first call to its
:meth:`~MultiFeedlineRunner.close`, and keeps, per feedline, the served
version's discriminator and its
:class:`~repro.pipeline.runner.ReadoutPipeline` (engine, fused-bank
cache, buffer ring), plus one mapping per replay segment. A run sends
each worker only what changes per run — the served version with its
device snapshot, and the traffic builder — and gets the feedline reports
back. Workers run on one of two executors:

- ``serial`` — one worker on the calling thread runs every feedline, one
  after another (deterministic reference, and the profile/debug path).
  A one-feedline serving session is a one-feedline runner on this
  executor.
- ``process`` (the default) — a :class:`ProcessShardExecutor`: long-lived
  processes forked at the runner's first call, each owning a fixed set
  of feedlines and talking to the parent over one duplex pipe, for the
  python-bound parts of the chain. Workers never receive pickled fitted
  models: they resolve their discriminators from
  :class:`~repro.pipeline.registry.CalibrationRegistry` artifacts (or fit
  and store them on a cold start).

Every feedline's traffic seed is derived deterministically from the
profile seed and the feedline index, so the same cluster run yields
bit-identical assignment counts under any executor and any partitioning.
Each feedline belongs to one worker for the runner's life: feedlines are
placed longest-first (qubit count x trace length), each onto the
least-loaded worker, so no worker idles while another runs a long tail.
The aggregate report lists feedlines in declared order, with the worker
that owns each.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Sequence

from repro._util import json_finite
from repro.config import Profile
from repro.data.dataset import ReadoutCorpus
from repro.discriminators.mlr import MLRDiscriminator
from repro.exceptions import ConfigurationError, ShardCrashedError
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
from repro.pipeline.shm import (
    SharedMemoryTraceSource,
    SharedTraceBlock,
    SharedTraceDescriptor,
)
from repro.pipeline.source import TraceSource

__all__ = [
    "EXECUTOR_NAMES",
    "FeedlineSpec",
    "FeedlineWorker",
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
    """One run's work order for one feedline: what changes per run.

    ``version`` is the artifact version to serve and
    ``calibration_chip`` the device snapshot it was fitted on, which
    serving demodulates with. ``source`` is a zero-argument callable that
    builds the run's :class:`~repro.pipeline.source.TraceSource` where
    the worker runs; the worker does not know what kind of traffic it
    streams. Simulated traffic and shared-memory replay pickle into
    process workers; a one-feedline session's backend ``trace_source``
    runs on the calling thread.
    """

    name: str
    version: int
    calibration_chip: ChipConfig
    source: Callable[[], TraceSource]


@dataclass(frozen=True)
class _PrefitTask:
    """Calibration-only work order: "fit version N" of one feedline.

    Resolves the feedline's artifact through the shared registry
    (fitting and storing it on a cold key) without serving traffic, and
    leaves the model in the worker for the runs that follow. Hot
    recalibration sends it with a bumped ``version``, the drifted device
    snapshot as ``calibration_chip`` (the key identity stays the
    declared chip's) and its own sizing ``profile``; ``None`` means the
    worker's serving profile.
    """

    name: str
    version: int = 0
    profile: Profile | None = None
    calibration_chip: ChipConfig | None = None


@dataclass(frozen=True)
class _SegmentTraffic:
    """Replay traffic a worker keeps attached across runs.

    Calling it attaches the published segment; a :class:`FeedlineWorker`
    instead keeps one attached source per segment name and re-streams it
    on every run, so a serving session maps its replay segment once per
    worker and warm cycle.
    """

    descriptor: SharedTraceDescriptor
    chip: ChipConfig
    chunk_size: int

    def __call__(self) -> SharedMemoryTraceSource:
        return SharedMemoryTraceSource(
            self.descriptor, self.chip, chunk_size=self.chunk_size
        )


@dataclass
class _Served:
    """A feedline's served artifact version, its model and its pipeline."""

    version: int
    discriminator: MLRDiscriminator
    pipeline: ReadoutPipeline | None = None


class FeedlineWorker:
    """What one shard keeps for its feedlines across a warm cycle.

    Per feedline it holds one served version: the discriminator a fit,
    load or earlier run left here, and that version's
    :class:`~repro.pipeline.runner.ReadoutPipeline`, built at the first
    run that serves it. A version is resolved through the registry only
    when nothing in this cycle left it here. Per replay segment it holds
    one attached :class:`~repro.pipeline.shm.SharedMemoryTraceSource`,
    attached at the first run that names the segment and re-streamed by
    every later one (``chunks()`` restarts at shot 0).

    A runner builds its workers itself: in the calling process on
    ``serial``, and before the fork on ``process``, where each child
    owns its copy.
    """

    def __init__(
        self,
        feedlines: Sequence[FeedlineSpec],
        profile: Profile,
        config: PipelineConfig,
        registry_dir: str | None,
        design: str,
    ) -> None:
        self.feedlines = {spec.name: spec for spec in feedlines}
        self.profile = profile
        self.config = config
        self.registry = (
            CalibrationRegistry(registry_dir)
            if registry_dir is not None
            else None
        )
        self.design = design
        self._served: dict[str, _Served] = {}
        self._segments: dict[str, SharedMemoryTraceSource] = {}

    def __repr__(self) -> str:
        return f"FeedlineWorker({', '.join(self.feedlines)})"

    def resolve(
        self,
        name: str,
        version: int,
        profile: Profile | None = None,
        calibration_chip: ChipConfig | None = None,
    ) -> bool:
        """Resolve feedline ``name``'s artifact ``version`` and keep it.

        Loads the stored artifact, or fits and stores it on a cold key
        (same-key feedlines stay fit-once through the registry's
        in-process and cross-process fit locks). The kept model replaces
        the feedline's earlier version and its pipeline. Returns whether
        the artifact was already warm.
        """
        spec = self.feedlines[name]
        discriminator, cached = fit_or_load_discriminator(
            profile if profile is not None else self.profile,
            self.registry,
            chip=spec.chip,
            device=spec.registry_device,
            design=self.design,
            version=version,
            calibration_chip=calibration_chip,
        )
        self._served[name] = _Served(version, discriminator)
        return cached

    def run(self, task: _FeedlineTask) -> PipelineReport:
        """Serve one run of one feedline; returns its report.

        The report's ``calibration_cached`` is False only when this run
        had to fit.
        """
        served = self._served.get(task.name)
        cached = True
        if served is None or served.version != task.version:
            cached = self.resolve(task.name, task.version)
            served = self._served[task.name]
        if served.pipeline is None:
            served.pipeline = ReadoutPipeline(
                served.discriminator, task.calibration_chip, self.config
            )
        if isinstance(task.source, _SegmentTraffic):
            name = task.source.descriptor.name
            source = self._segments.get(name)
            if source is None:
                source = self._segments[name] = task.source()
            report = served.pipeline.run(source)
        else:
            source = task.source()
            try:
                report = served.pipeline.run(source)
            finally:
                # A one-run source (simulated or backend traffic) drops
                # what it holds.
                source.close()
        report.calibration_cached = cached
        report.details["feedline"] = task.name
        return report

    def close(self) -> None:
        """Drop every pipeline, then unmap every segment. Idempotent."""
        # Pipelines go first: nothing of theirs may still reference a
        # mapping when it closes.
        self._served.clear()
        segments, self._segments = self._segments, {}
        for source in segments.values():
            source.close()


def _prefit_feedline(
    worker: FeedlineWorker, task: _PrefitTask
) -> tuple[str, bool]:
    """Fit or load one feedline's calibration in its worker.

    Returns ``(name, cached)`` — whether the artifact was already warm.
    """
    cached = worker.resolve(
        task.name,
        task.version,
        profile=task.profile,
        calibration_chip=task.calibration_chip,
    )
    return task.name, cached


def _run_feedline(
    worker: FeedlineWorker, task: _FeedlineTask
) -> tuple[str, PipelineReport]:
    """Serve one run of one feedline in its worker."""
    return task.name, worker.run(task)


def _placement_weight(spec: FeedlineSpec) -> int:
    """Relative cost of one feedline: qubit count x trace length.

    Every stage of the chain (demod, matched filter, per-qubit heads)
    scales with the number of multiplexed channels and the samples per
    trace — and so does calibration (corpus size, kernel estimation) —
    so this product tracks a feedline's wall time without running it.
    """
    return spec.chip.n_qubits * spec.chip.trace_len


def _assign_workers(
    feedlines: Sequence[FeedlineSpec], workers: int
) -> dict[str, int]:
    """Feedline name -> worker index: longest-first onto the least loaded.

    Placing the heaviest feedlines first keeps a heavy one from landing
    last on an otherwise busy worker and stretching the cluster wall
    time. The sort is stable and ties go to the lowest index, so equal
    feedlines deal out round-robin in declared order.
    """
    load = [0] * workers
    # Keys in declared order; values filled in placement order.
    owners = dict.fromkeys((spec.name for spec in feedlines), 0)
    for spec in sorted(feedlines, key=_placement_weight, reverse=True):
        index = load.index(min(load))
        owners[spec.name] = index
        load[index] += _placement_weight(spec)
    return owners


class _RemoteTraceback(Exception):
    """A worker's traceback text, chained as the cause of its error."""

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return self.text


def _shard_main(pipe, state, inherited) -> None:
    """Body of one shard process: answer calls until told to stop.

    A call is ``(fn, tasks)``; the reply is ``(True, [fn(state, task)
    ...])``, the tasks run one after another, or ``(False, error,
    traceback text)``. ``None`` or a closed pipe ends the loop.
    """
    # The parent ends of this pipe and of those forked before it:
    # holding one would keep its worker from ever seeing it close.
    for parent_end in inherited:
        parent_end.close()
    while True:
        try:
            message = pipe.recv()
        except EOFError:
            return
        if message is None:
            return
        fn, tasks = message
        try:
            reply = (True, [fn(state, task) for task in tasks])
        except Exception as exc:  # repro: allow(broad-except) a worker's error goes back to the parent, which re-raises it
            reply = (False, exc, traceback.format_exc())
        try:
            pipe.send(reply)
        except BrokenPipeError:
            return  # the parent closed this worker mid-call
        except Exception as exc:  # repro: allow(broad-except) an unpicklable reply still reaches the parent, as text
            # Pickling fails before anything is written to the pipe.
            error = RuntimeError(f"shard reply could not be sent: {exc!r}")
            pipe.send((False, error, traceback.format_exc()))


#: Seconds :meth:`ProcessShardExecutor.close` waits for its workers to
#: exit before it terminates them, then kills them.
_EXIT_GRACE_S = 1.0


class ProcessShardExecutor:
    """Long-lived shard processes, one duplex pipe each.

    ``workers`` processes are forked here with the ``fork`` start
    method. Each owns the object ``state(index)`` built for it in the
    parent just before its fork — a :class:`FeedlineWorker` for a
    runner — for the executor's whole life, and :meth:`map` runs
    ``fn(state, task)`` against it. Fitted models are never pickled
    across the process boundary: workers resolve them from
    calibration-registry artifacts (see :meth:`FeedlineWorker.resolve`).

    Fork, not spawn: a forked worker is ready in milliseconds (a spawned
    one re-imports the package, which takes seconds), and both the BLAS
    share and the shared resource tracker below rely on inheritance. The
    executor starts no thread of its own, so the parent forks with none
    of ours running.

    BLAS share: before the fork, the *creating* process's OpenBLAS
    thread count is lowered to ``max(1, available_cpus() // workers)``
    (see :mod:`repro.pipeline.blas`), so the shards together use no more
    BLAS threads than there are CPUs. Forked workers inherit that count;
    with a share of one they never start an OpenBLAS helper thread, which
    would otherwise busy-wait after every GEMM and take CPU from the other
    shards. The count is only ever lowered, and it stays lowered in the
    creating process after the workers are gone: setting it inside the
    workers, or restoring it after the fork, restarts a helper thread that
    spins for about 0.1 s each time. Without OpenBLAS this is a no-op.

    Resource tracker: the creating process also starts its
    ``multiprocessing`` resource tracker before the fork, so every
    worker inherits it. A worker with a tracker of its own would have it
    unlink every segment the worker attached as soon as the worker
    exits, a serving session's live replay segment included.
    """

    def __init__(
        self,
        workers: int,
        state: Callable[[int], object] | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        limit_openblas_threads(max(1, available_cpus() // workers))
        resource_tracker.ensure_running()
        context = multiprocessing.get_context("fork")
        self._states = [
            None if state is None else state(index)
            for index in range(workers)
        ]
        self._pipes: list = []
        self._processes: list = []
        try:
            for worker_state in self._states:
                pipe, child_pipe = context.Pipe()
                self._pipes.append(pipe)
                process = context.Process(
                    target=_shard_main,
                    args=(child_pipe, worker_state, self._pipes[:]),
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    # Only the child may hold its end: a dead worker
                    # must read as EOF here.
                    child_pipe.close()
                self._processes.append(process)
        except BaseException:
            self.close()
            raise

    def map(self, fn: Callable, jobs: Sequence[tuple[int, object]]) -> list:
        """Run ``fn(state, task)`` for every ``(worker, task)``; in order.

        Each worker gets its tasks in one message and runs them one after
        another; the workers run concurrently. A worker's error is
        re-raised here with its original type, its traceback text chained
        as the cause. A worker that dies, or whose pipe breaks, mid-call
        raises :class:`~repro.exceptions.ShardCrashedError`. A failed
        call may leave replies unread, so the executor must then be
        closed (a runner does that for every failed call).
        """
        positions: dict[int, list[int]] = {}
        for position, (index, _) in enumerate(jobs):
            positions.setdefault(index, []).append(position)
        for index, owned in positions.items():
            try:
                self._pipes[index].send((fn, [jobs[p][1] for p in owned]))
            except OSError as exc:
                raise self._crashed(index) from exc
        results: list = [None] * len(jobs)
        for index, owned in positions.items():
            try:
                reply = self._pipes[index].recv()
            except (EOFError, OSError) as exc:
                raise self._crashed(index) from exc
            if not reply[0]:
                _, error, text = reply
                raise error from _RemoteTraceback(text)
            for position, result in zip(owned, reply[1]):
                results[position] = result
        return results

    def _crashed(self, index: int) -> ShardCrashedError:
        process = self._processes[index]
        process.join(_EXIT_GRACE_S)
        return ShardCrashedError(
            f"shard worker {index} ({self._states[index]!r}, pid "
            f"{process.pid}) died mid-call; exit code {process.exitcode}"
        )

    def close(self) -> None:
        """Stop every worker. Idempotent, and never hangs on a busy one.

        Asks each worker to stop and closes its pipe, then gives the
        workers :data:`_EXIT_GRACE_S` to exit before terminating, and
        finally killing, any still running (a worker mid-call reads the
        request only when its call ends).
        """
        pipes, self._pipes = self._pipes, []
        processes, self._processes = self._processes, []
        for pipe in pipes:
            try:
                pipe.send(None)
            except OSError:
                pass  # already dead: its exit code is all that is left
            pipe.close()
        deadline = time.monotonic() + _EXIT_GRACE_S
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(_EXIT_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join()


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
        Feedline name -> index of the worker that owns it, fixed for the
        runner's life (longest-first onto the least-loaded worker; all
        0 on ``serial``), so the scheduling decision is auditable from
        the report alone.
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

    The runner's workers live for a warm cycle: its first call starts
    them and :meth:`close` (or a failed call) ends it. Calls on one
    runner must not overlap; each worker serves one call at a time.

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
        across address spaces). A count above the feedline count is
        capped at it: a shard without a feedline would never run, so
        :attr:`workers` and every report count the shards that are
        forked. Feedlines go longest-first onto the least-loaded shard,
        and a shard runs its feedlines one after another. ``serial``
        always runs (and reports) one worker, whatever is asked.
    config:
        Per-feedline runtime config (batch size, drift detection).
    chunk_size:
        Shots per source chunk inside each feedline.
    registry_dir:
        Shared calibration-registry root. ``None`` makes every worker
        fit its feedlines' calibrations from scratch at its first run
        (no artifacts stored) — fine for ``serial``, wasteful but
        correct for ``process``.
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
        self.workers = min(int(workers), len(specs))
        self.config = config or PipelineConfig()
        self.chunk_size = int(chunk_size)
        self.registry_dir = (
            str(registry_dir) if registry_dir is not None else None
        )
        self.design = design
        # Feedline name -> worker index, fixed for the runner's life.
        self._owners = _assign_workers(self.feedlines, self.workers)
        # The warm cycle's workers, started by the first _map() call and
        # kept across calls until close() (or a failed call) drops them:
        # on serial one in this process, on process forked shards.
        self._serial: FeedlineWorker | None = None
        self._pool: ProcessShardExecutor | None = None
        # Calibration-artifact version served per feedline name. Hot
        # recalibration bumps these atomically (plain dict assignment
        # under the GIL) so the next run() serves the new artifacts
        # without restarting a worker or the session.
        self._versions: dict[str, int] = {
            spec.name: 0 for spec in self.feedlines
        }
        # Device snapshot each feedline's served version was fitted on:
        # the declared chip, until a recalibration fits on the drifted
        # device. Serving demodulates with it.
        self._calibration_chips: dict[str, ChipConfig] = {
            spec.name: spec.chip for spec in self.feedlines
        }

    def _worker(self, index: int) -> FeedlineWorker:
        """A fresh worker for the feedlines placed on shard ``index``."""
        owned = [
            spec for spec in self.feedlines if self._owners[spec.name] == index
        ]
        return FeedlineWorker(
            owned,
            self.profile,
            self.config,
            self.registry_dir,
            self.design,
        )

    def _start(self) -> None:
        """Start the warm cycle's workers, unless they are running.

        On ``process`` this forks the shards, which inherit every
        mapping the parent holds at that moment.
        """
        if self.executor == "serial":
            if self._serial is None:
                self._serial = self._worker(0)
        elif self._pool is None:
            self._pool = ProcessShardExecutor(self.workers, self._worker)

    def _map(self, fn: Callable, tasks: Sequence) -> list:
        """Run ``fn(worker, task)`` for every task; results in task order.

        The one shard path of :meth:`prefit`, :meth:`recalibrate` and
        :meth:`dispatch`: each task runs on the worker that owns its
        feedline. ``serial`` runs every task on the calling thread, one
        after another; ``process`` sends each forked shard its own tasks
        in one message, and the shards run concurrently, so a call's
        wall is the busiest worker's sum in any order. The shards are
        started by the first call and reused by later ones. A failed
        call closes every worker — a dead or failed shard may hold
        half-updated state — so the next call starts fresh ones.
        """
        try:
            self._start()
            if self._serial is not None:
                return [fn(self._serial, task) for task in tasks]
            return self._pool.map(
                fn, [(self._owners[task.name], task) for task in tasks]
            )
        except BaseException:
            self.close()
            raise

    def prefit(self) -> int:
        """Resolve every feedline's calibration in its worker.

        Sends each worker "fit version 0" of its feedlines (no
        streaming), so cold fits for distinct feedlines run as
        concurrently as serving does, and the resolved models stay in
        the workers that serve them: the runs of this cycle resolve
        nothing. On ``process`` the first call forks the shards, which
        is how a serving session's ``warm()`` keeps the fork out of its
        first run. Same-key feedlines stay fit-once via the registry's
        fit locks. Returns the number of cold fits performed.
        """
        if self.registry_dir is None:
            raise ConfigurationError(
                "prefit() needs a registry_dir: stored artifacts are the "
                "hand-off between calibration and serving shards"
            )
        tasks = [_PrefitTask(spec.name) for spec in self.feedlines]
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

        Sends each worker "fit version N" — exactly like :meth:`prefit`,
        so recalibration runs as concurrently as serving and leaves the
        new models in the workers — at each feedline's *next* artifact
        version, with the
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
                version=next_versions[spec.name],
                profile=fit_profile,
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
        """End the warm cycle: close every worker. Idempotent.

        Workers drop their pipelines and replay mappings; process shards
        are stopped (a busy one is terminated after a short grace, so
        this never hangs). The next call starts fresh workers.
        """
        serial, self._serial = self._serial, None
        pool, self._pool = self._pool, None
        if serial is not None:
            serial.close()
        if pool is not None:
            pool.close()

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
                version=self._versions[spec.name],
                calibration_chip=self._calibration_chips[spec.name],
                source=source,
            )
            for spec, source in zip(self.feedlines, traffic)
        ]

    def dispatch(
        self, traffic: Sequence[Callable[[], TraceSource]]
    ) -> ClusterReport:
        """Serve one run of traffic through the feedline workers.

        The one run path: :meth:`run`, :meth:`dispatch_replay` and a
        one-feedline :class:`repro.serve.ReadoutService` all end here.
        ``traffic`` holds one zero-argument callable per feedline, in
        declared order, that builds the feedline's
        :class:`~repro.pipeline.source.TraceSource` where its worker
        runs; process shards need it picklable. Every feedline serves
        its current artifact version, demodulated with the device
        snapshot that version was fitted on, on the pipeline its worker
        keeps for that version. Reports come back in declared order.
        """
        tasks = self._tasks(traffic)
        # The timed window covers dispatch and shard execution: a warm
        # session forked its shards in prefit(), and teardown is a
        # serving-lifetime cost, not per-stream throughput.
        wall_start = time.perf_counter()
        results = self._map(_run_feedline, tasks)
        wall = time.perf_counter() - wall_start

        reports = dict(results)
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
            placement=dict(self._owners),
        )

    def publish_replay(self, corpus: ReadoutCorpus) -> SharedTraceBlock:
        """Validate a replay corpus and publish it to shared memory.

        Every feedline replays the same recorded traffic (the record ->
        replay serving path): the corpus — a
        :class:`~repro.data.dataset.ReadoutCorpus` or a loaded
        :class:`~repro.backends.corpus.RecordedCorpus` — is copied once
        into a :class:`~repro.pipeline.shm.SharedTraceBlock` that every
        feedline reads (readers never write). It must match every
        feedline's qubit count and carry labels: the block ships traces
        and ground truth together.

        The caller owns the block: it passes it to :meth:`dispatch_replay`
        as often as it likes and calls ``unlink()`` once no dispatch is
        left. Nothing is left published when this raises.
        """
        for spec in self.feedlines:
            if corpus.chip.n_qubits != spec.chip.n_qubits:
                raise ConfigurationError(
                    f"replay corpus has {corpus.chip.n_qubits} qubits, "
                    f"feedline {spec.name!r} chip has {spec.chip.n_qubits}"
                )
        if corpus.prepared_levels is None:
            raise ConfigurationError(
                "replay corpus carries no prepared-level labels; "
                "shared-memory replay needs a labeled corpus"
            )
        # The label names the feedlines reading the segment in
        # sanitizer lifetime-audit witnesses (REPRO_SANITIZE).
        return SharedTraceBlock.from_corpus(
            corpus, label="+".join(spec.name for spec in self.feedlines)
        )

    def dispatch_replay(self, block: SharedTraceBlock) -> ClusterReport:
        """Replay a published segment through the feedline workers.

        A serving session's run: every feedline's traffic is the block's
        descriptor, and a worker attaches the segment by name at the
        first run that names it, then keeps the mapping and re-streams
        its read-only views on every later run, until the runner closes.
        ``block`` is live (as :meth:`publish_replay` returns it) and stays
        published, so a serving session dispatches the same block on
        every run and unlinks it only after :meth:`close`.
        """
        return self.dispatch(
            [
                _SegmentTraffic(block.descriptor, spec.chip, self.chunk_size)
                for spec in self.feedlines
            ]
        )
