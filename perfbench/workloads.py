"""The three workloads, their timed windows, and the oracle checks.

``replay-b256``
    Closed loop: back-to-back ``ReadoutService.run()`` on a one-feedline
    five-qubit session replaying the recorded corpus at batch 256 into
    the default ERASER sink. The throughput case: engine GEMM, heads,
    ring rebatch and the ERASER consumer thread do the work; no shared
    memory, no shards.
``paced-b16``
    Open loop: ``ReadoutPipeline.run()`` on a benchmark-owned source that
    releases 16-shot chunks of the corpus on a fixed 10 000 shots/s
    schedule (below the b16 closed-loop capacity of roughly 20-28k on a
    two-CPU box). Each batch is timed from when its chunk was due to
    when its ERASER work finished, so a stall also delays the batches
    queued behind it. The latency case: per-batch fixed costs dominate.
``cluster2-process``
    Closed loop: back-to-back ``ReadoutService.run()`` on two feedlines
    over two process shards, the corpus broadcast to both over shared
    memory. The only workload on ``pipeline.cluster`` and
    ``pipeline.shm``; it adds segment publish/unlink, shard dispatch and
    BLAS oversubscription to the engine work.

On the closed loops a request is one ``run()`` over the whole corpus,
so their ``decide_p*`` latencies are percentiles of the run wall; on
``paced-b16`` a request is one 16-shot batch.

Every served decision is checked against the offline oracle (see
:mod:`perfbench.inputs`): per shot on ``paced-b16``, and on the closed
loops by half the L1 distance between served and oracle assignment
counts, a lower bound on flipped shots. A run that raises, leaves
undecided shots, or leaves a shared-memory segment behind counts all
its shots as failed.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import backends
from repro.config import get_profile
from repro.pipeline.registry import CalibrationRegistry
from repro.pipeline.runner import (
    DEFAULT_DEVICE,
    PipelineConfig,
    ReadoutPipeline,
    fit_or_load_discriminator,
)
from repro.pipeline.sink import EraserSpeculationSink, QueueingSink, ResultSink
from repro.pipeline.source import ShotChunk, TraceSource
from repro.serve import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    ReadoutService,
    ServeSpec,
    TrafficSpec,
)

from perfbench.inputs import (
    CLUSTER_FEEDLINES,
    PROFILE,
    RECORD_CHUNK,
    Inputs,
    served_chips,
)

#: Set-ups per run: the first ones pay one-off lazy imports and a cold
#: page cache and are not timed; the median of the rest is reported.
SETUP_WARMUPS = 2
SETUP_REPEATS = 7

#: Untimed closed-loop runs before the window (fused banks, ring, pool).
WARMUP_RUNS = 2

#: Paced schedule: chunk size, offered rate, and the head of the window
#: whose batches are discarded as warm-up.
PACED_CHUNK = 16
PACED_RATE = 10_000.0
PACED_WARMUP_S = 0.25

SHM_DIR = Path("/dev/shm")


def shm_segments() -> set[str] | None:
    """Names of the POSIX shared-memory segments Python creates.

    Read before and after each run: a ``psm_*`` name that appeared and
    is still there is a real leftover. The resource tracker's "leaked
    shared_memory" warnings at interpreter exit name segments the
    program already unlinked, so they are not evidence either way.
    """
    if not SHM_DIR.is_dir():
        return None
    return {path.name for path in SHM_DIR.glob("psm_*")}


@dataclass
class RunSample:
    """One timed serving call and its oracle verdict."""

    wall: float
    attempted: int
    decided: int
    failed: int
    report_wall: float = 0.0
    feedline_walls: list[float] = field(default_factory=list)
    error: str | None = None
    leftover_shm: list[str] = field(default_factory=list)


@dataclass
class Window:
    """A measured window: its runs plus workload-specific detail."""

    samples: list[RunSample]
    latencies_ms: np.ndarray | None = None
    gen_lag_ms: np.ndarray | None = None
    slept: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(s.attempted for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.samples)

    @property
    def decided(self) -> int:
        return sum(s.decided for s in self.samples)

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.samples)

    def busy_per_shot(self) -> float:
        """Serving wall per decided shot, paced sleep excluded."""
        return (self.wall - self.slept) / max(self.decided, 1)


def latency_percentiles(latencies_ms) -> dict[str, float]:
    """decide_p50/p90/p99 over per-request latencies in ms."""
    return {
        f"decide_p{q}_ms": float(np.percentile(latencies_ms, q))
        for q in (50, 90, 99)
    }


def counts_failures(report, n_shots: int, oracle_counts) -> tuple[int, int]:
    """(decided, failed) of one feedline report against the oracle.

    A feedline that did not decide and sink every shot fails whole;
    otherwise half the L1 distance between served and oracle counts is
    a lower bound on the shots decided differently.
    """
    seen = report.sink_summary.get("shots_seen", 0)
    decided = min(report.n_shots, seen)
    if decided != n_shots:
        return decided, n_shots
    served = np.asarray(report.assignment_counts, dtype=np.int64)
    return decided, int(np.abs(served - oracle_counts).sum()) // 2


class ClosedLoop:
    """Back-to-back ``ReadoutService.run()`` on a replay session."""

    def __init__(self, feedlines: int) -> None:
        self.feedlines = feedlines
        #: Feedline name -> registry device its artifact is keyed under.
        if feedlines == 1:
            self.devices = {"feedline-0": DEFAULT_DEVICE}
        else:
            self.devices = {
                f"feedline-{i}": f"feedline-{i}" for i in range(feedlines)
            }
        self.chips = served_chips()

    def spec(self, corpus_path: Path, registry: Path) -> ServeSpec:
        cluster = (
            ClusterSpec()
            if self.feedlines == 1
            else ClusterSpec(
                feedlines=self.feedlines,
                executor="process",
                workers=self.feedlines,
            )
        )
        return ServeSpec(
            traffic=TrafficSpec(
                backend="replay",
                corpus_path=str(corpus_path),
                chunk_size=RECORD_CHUNK,
            ),
            cluster=cluster,
            batching=BatchingSpec(batch_size=256),
            calibration=CalibrationSpec(
                profile=PROFILE, registry_dir=str(registry)
            ),
        )

    def setup(self, inputs: Inputs, tag: str) -> tuple[ReadoutService, float]:
        """A warm session on a fresh registry copy, and its warm() wall."""
        spec = self.spec(inputs.corpus_path, inputs.fresh_registry(tag))
        service = ReadoutService(spec)
        start = time.perf_counter()
        service.warm()
        return service, time.perf_counter() - start

    def run_once(self, service: ReadoutService, inputs: Inputs) -> RunSample:
        n_shots = inputs.corpus.n_shots
        attempted = n_shots * self.feedlines
        before = shm_segments()
        start = time.perf_counter()
        try:
            report = service.run()
        except Exception as exc:  # a failed run is scored, not fatal
            wall = time.perf_counter() - start
            return RunSample(
                wall, attempted, 0, attempted, error=f"{type(exc).__name__}: {exc}"
            )
        wall = time.perf_counter() - start
        after = shm_segments()
        leftover = (
            sorted(after - before)
            if before is not None and after is not None
            else []
        )
        reports = getattr(report, "feedline_reports", None) or {
            "feedline-0": report
        }
        decided = failed = 0
        for name, device in self.devices.items():
            chip = self.chips[device]
            got, bad = counts_failures(
                reports[name],
                n_shots,
                inputs.oracle_counts(device, chip.n_levels, chip.n_qubits),
            )
            decided += got
            failed += bad
        if leftover:
            failed = attempted
        return RunSample(
            wall,
            attempted,
            decided,
            failed,
            report_wall=report.wall_seconds,
            feedline_walls=[r.wall_seconds for r in reports.values()],
            leftover_shm=leftover,
        )

    def window(self, session, inputs: Inputs, seconds: float, tracer=None):
        for _ in range(WARMUP_RUNS):
            self.run_once(session, inputs)
        if tracer is not None:
            tracer.reset()
        samples = []
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            samples.append(self.run_once(session, inputs))
        return Window(samples)

    @staticmethod
    def close(session) -> None:
        session.close()

    def end_to_end(self, window: Window) -> dict[str, float]:
        return {
            "shots_per_s": statistics.median(
                s.decided / s.wall for s in window.samples
            ),
            **latency_percentiles([s.wall * 1e3 for s in window.samples]),
        }


class PacedCorpusSource(TraceSource):
    """Releases fixed-size corpus chunks on a fixed schedule.

    The schedule starts at the first pull. A chunk whose due time has
    passed is released at once; how late that was is recorded as
    generator lag.
    """

    def __init__(self, corpus, chip, chunk: int, rate: float, n_chunks: int):
        if corpus.n_shots % chunk:
            raise ValueError("corpus size must be a multiple of the chunk")
        self.chip = chip
        self.corpus = corpus
        self.chunk = chunk
        self.interval = chunk / rate
        self.n_chunks = n_chunks
        self.start = 0.0
        self.due = np.zeros(n_chunks)
        self.released = np.zeros(n_chunks)
        self.slept = 0.0

    @property
    def n_shots(self) -> int:
        return self.n_chunks * self.chunk

    def shot_indices(self) -> np.ndarray:
        """Corpus row of every shot in release order."""
        return np.arange(self.n_shots) % self.corpus.n_shots

    def chunks(self):
        corpus = self.corpus
        self.start = time.perf_counter()
        for k in range(self.n_chunks):
            due = self.start + k * self.interval
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
                after = time.perf_counter()
                self.slept += after - now
                now = after
            self.due[k] = due
            self.released[k] = now
            lo = (k * self.chunk) % corpus.n_shots
            yield ShotChunk(
                feedline=corpus.feedline[lo : lo + self.chunk],
                prepared_levels=corpus.prepared_levels[lo : lo + self.chunk],
                chunk_id=k,
            )


class StampSink(ResultSink):
    """Marks when each batch's ERASER work finished and keeps its labels.

    Runs inside ``QueueingSink``, on its consumer thread, around the same
    ``EraserSpeculationSink`` the default sink uses.
    """

    def __init__(self, inner: ResultSink, n_batches: int, batch_shots: int):
        self.inner = inner
        self.batch_shots = batch_shots
        self.done = np.full(n_batches, np.nan)
        self.joint = np.full(n_batches * batch_shots, -1, dtype=np.int64)

    def consume(self, levels, joint, batch_id: int) -> None:
        self.inner.consume(levels, joint, batch_id)
        self.done[batch_id] = time.perf_counter()
        start = batch_id * self.batch_shots
        self.joint[start : start + len(joint)] = joint

    def close(self) -> dict:
        return self.inner.close()


@dataclass
class PacedSession:
    discriminator: object
    corpus: object
    chip: object
    config: PipelineConfig


class Paced:
    """Open-loop ``ReadoutPipeline.run()`` at a fixed offered rate."""

    devices = {"feedline-0": DEFAULT_DEVICE}

    def setup(self, inputs: Inputs, tag: str) -> tuple[PacedSession, float]:
        """Artifact load plus corpus load and verify; timed."""
        registry = CalibrationRegistry(inputs.fresh_registry(tag))
        chip = served_chips()[DEFAULT_DEVICE]
        start = time.perf_counter()
        discriminator, _ = fit_or_load_discriminator(
            get_profile(PROFILE), registry, chip=chip, device=DEFAULT_DEVICE
        )
        corpus = backends.load_corpus(inputs.corpus_path)
        corpus.require_chip(chip)
        seconds = time.perf_counter() - start
        config = PipelineConfig(batch_size=PACED_CHUNK)
        return PacedSession(discriminator, corpus, chip, config), seconds

    def paced_run(self, session: PacedSession, seconds: float, tracer=None):
        """One paced pipeline run; returns (source, stamp, report, wall)."""
        n_chunks = max(int(seconds * PACED_RATE / PACED_CHUNK), 1)
        source = PacedCorpusSource(
            session.corpus, session.chip, PACED_CHUNK, PACED_RATE, n_chunks
        )
        if tracer is not None:
            # The schedule's sleeps are the generator's, not the
            # rebatch layer's: give them a span of their own.
            untimed = source.chunks
            source.chunks = lambda: tracer.timed_iter("paced_source", untimed())
        stamp = StampSink(
            EraserSpeculationSink(session.chip.n_qubits),
            n_chunks,
            PACED_CHUNK,
        )
        pipeline = ReadoutPipeline(
            session.discriminator,
            session.chip,
            session.config,
            sink=QueueingSink(stamp, max_pending=session.config.max_pending),
        )
        start = time.perf_counter()
        report = pipeline.run(source)
        return source, stamp, report, time.perf_counter() - start

    def window(self, session, inputs: Inputs, seconds: float, tracer=None):
        self.paced_run(session, PACED_WARMUP_S)
        if tracer is not None:
            tracer.reset()
        source, stamp, report, wall = self.paced_run(session, seconds, tracer)
        expected = inputs.oracle[DEFAULT_DEVICE][source.shot_indices()]
        failed = int(np.sum(stamp.joint != expected))
        decided = int(np.sum(stamp.joint >= 0))
        measured = source.due - source.start >= PACED_WARMUP_S
        latencies = (stamp.done - source.due)[measured] * 1e3
        if np.isnan(latencies).any():
            # A batch never reached the sink: the run fails whole, and
            # its latencies are taken over the batches that did.
            failed = source.n_shots
            latencies = latencies[np.isfinite(latencies)]
            if not latencies.size:
                latencies = np.array([wall * 1e3])
        sample = RunSample(
            wall,
            source.n_shots,
            decided,
            failed,
            report_wall=report.wall_seconds,
            feedline_walls=[report.wall_seconds],
        )
        return Window(
            [sample],
            latencies_ms=latencies,
            gen_lag_ms=(source.released - source.due)[measured] * 1e3,
            slept=source.slept,
        )

    @staticmethod
    def close(session) -> None:
        del session  # nothing outlives a paced run

    def end_to_end(self, window: Window) -> dict[str, float]:
        sample = window.samples[0]
        return {
            "shots_per_s": sample.decided / sample.wall,
            **latency_percentiles(window.latencies_ms),
        }


WORKLOADS = {
    "replay-b256": ClosedLoop(1),
    "paced-b16": Paced(),
    "cluster2-process": ClosedLoop(CLUSTER_FEEDLINES),
}
