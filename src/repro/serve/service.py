"""Long-lived serving sessions over the streaming readout runtime.

The paper's readout datapath is persistent: calibrated once, then
discriminating shots continuously. :class:`ReadoutService` is that shape
as an API — it resolves a :class:`~repro.serve.spec.ServeSpec` once,
pre-fits or loads every per-feedline discriminator on the shards that
will serve it (:meth:`ReadoutService.warm`), and then serves repeated
:meth:`ReadoutService.run` calls against the warm state. Every session
serves through its :class:`~repro.pipeline.cluster.MultiFeedlineRunner`;
a one-feedline session is a one-feedline cluster on the calling thread.
A warmed service never refits behind the caller's back: artifacts live
in the calibration registry (a private temporary one when the spec
names none) and fitted models stay resident in memory between runs.
The one sanctioned exception is *hot recalibration*: when the spec's
:class:`~repro.serve.spec.RecalibrationSpec` is enabled and a run's
online drift score trips the alarm, the service refits in the shard
workers against the drifted device and atomically swaps the next
calibration-artifact version in — without dropping the session.

Cumulative serving telemetry accumulates in :class:`ServiceStats` —
total shots, aggregate shots/sec over the serving walls, per-run
digests, and the warm-up cost those runs amortize.

::

    from repro.serve import ReadoutService, ServeSpec

    with ReadoutService.open("spec.json") as service:   # warms
        for _ in range(10):
            report = service.run()                      # no refits
    print(service.stats.format_table())
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.lockgraph import trace_lock
from repro.config import Profile
from repro.exceptions import ConfigurationError
from repro.serve.spec import ServeSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.cluster import (
        ClusterReport,
        FeedlineSpec,
        MultiFeedlineRunner,
    )
    from repro.pipeline.shm import SharedTraceBlock

__all__ = ["ReadoutService", "RunStats", "ServiceStats", "serve_once"]


@dataclass(frozen=True)
class RunStats:
    """Digest of one :meth:`ReadoutService.run` call."""

    index: int
    n_shots: int
    wall_seconds: float
    shots_per_second: float
    accuracy: float | None
    calibration_cached: bool | None
    drift_score: float | None = None
    drift_alarm: bool | None = None
    recalibrated: bool = False

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "n_shots": self.n_shots,
            "wall_seconds": self.wall_seconds,
            "shots_per_second": self.shots_per_second,
            "accuracy": self.accuracy,
            "calibration_cached": self.calibration_cached,
            "drift_score": self.drift_score,
            "drift_alarm": self.drift_alarm,
            "recalibrated": self.recalibrated,
        }


@dataclass
class ServiceStats:
    """Cumulative telemetry of one serving session.

    Attributes
    ----------
    warm_seconds:
        Wall time spent in :meth:`ReadoutService.warm` (calibration
        fits/loads plus the shard workers' fork) — the cost the warm runs
        amortize. Cumulative: a service re-warmed after ``close()``
        adds each warm-up cycle.
    cold_fits:
        Discriminator fits performed during warm-ups (0 on a fully warm
        registry), cumulative across warm cycles. Runs between a warm-up
        and the next ``close()`` never fit — hot recalibrations are
        accounted separately below.
    recalibrations:
        Drift-triggered hot recalibrations performed this session
        (each refits every feedline at the next artifact version).
    recal_seconds:
        Wall time spent in those recalibrations — the refit cost the
        recovered accuracy paid for.
    runs:
        Per-run digests, in serving order.
    """

    warm_seconds: float = 0.0
    cold_fits: int = 0
    recalibrations: int = 0
    recal_seconds: float = 0.0
    runs: list[RunStats] = field(default_factory=list)

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def total_shots(self) -> int:
        return sum(run.n_shots for run in self.runs)

    @property
    def total_run_seconds(self) -> float:
        return sum(run.wall_seconds for run in self.runs)

    @property
    def shots_per_second(self) -> float:
        """Aggregate serving throughput over all runs (0.0 before any)."""
        seconds = self.total_run_seconds
        return self.total_shots / seconds if seconds > 0 else 0.0

    def record(
        self,
        report: "ClusterReport",
        wall_seconds: float,
        calibration_cached: bool | None,
        recalibrated: bool = False,
    ) -> RunStats:
        """Fold one run's report into the cumulative stats.

        ``calibration_cached`` is the session-cycle view
        :class:`ReadoutService` keeps (did *this cycle* pay cold fits
        before this run). ``recalibrated`` marks a run whose drift alarm
        triggered a hot recalibration after it completed.
        """
        run = RunStats(
            index=len(self.runs),
            n_shots=report.n_shots,
            wall_seconds=wall_seconds,
            shots_per_second=(
                report.n_shots / wall_seconds if wall_seconds > 0 else 0.0
            ),
            accuracy=report.accuracy,
            calibration_cached=calibration_cached,
            drift_score=report.drift_score,
            drift_alarm=report.drift_alarm,
            recalibrated=recalibrated,
        )
        self.runs.append(run)
        return run

    def to_dict(self) -> dict:
        """JSON-serializable form (``repro serve --json``)."""
        return {
            "warm_seconds": self.warm_seconds,
            "cold_fits": self.cold_fits,
            "recalibrations": self.recalibrations,
            "recal_seconds": self.recal_seconds,
            "n_runs": self.n_runs,
            "total_shots": self.total_shots,
            "total_run_seconds": self.total_run_seconds,
            "shots_per_second": self.shots_per_second,
            "runs": [run.to_dict() for run in self.runs],
        }

    def format_table(self) -> str:
        """Aligned text report in the house experiment style."""
        from repro.experiments.report import format_rows

        rows = [
            [
                run.index,
                run.n_shots,
                f"{run.shots_per_second:.0f}",
                "-" if run.accuracy is None else f"{run.accuracy:.4f}",
                {True: "warm", False: "cold", None: "-"}[
                    run.calibration_cached
                ],
                (
                    "-"
                    if run.drift_score is None
                    else f"{run.drift_score:.3f}"
                ),
                {True: "ALARM", False: "ok", None: "-"}[run.drift_alarm],
                "yes" if run.recalibrated else "-",
            ]
            for run in self.runs
        ]
        table = format_rows(
            [
                "run",
                "shots",
                "shots/s",
                "accuracy",
                "calibration",
                "drift",
                "alarm",
                "recal",
            ],
            rows,
            title=f"readout service ({self.n_runs} runs)",
        )
        lines = [
            table,
            "",
            f"warm-up              {self.warm_seconds:.2f} s "
            f"({self.cold_fits} cold fit(s))",
            f"cumulative           {self.total_shots} shots in "
            f"{self.total_run_seconds:.2f} s serving "
            f"({self.shots_per_second:.0f} shots/s)",
        ]
        if self.recalibrations:
            lines.append(
                f"recalibrations       {self.recalibrations} in "
                f"{self.recal_seconds:.2f} s"
            )
        return "\n".join(lines)


class ReadoutService:
    """A warm, session-oriented front end to the streaming runtime.

    Parameters
    ----------
    spec:
        The declarative serving configuration.
    profile:
        Optional ready :class:`~repro.config.Profile` instance that wins
        over ``spec.calibration.profile`` — for ad-hoc sizings that are
        not registered profile names (the spec's seed override still
        applies).

    Lifecycle: :meth:`warm` (idempotent; implicit on the first
    :meth:`run` and on ``__enter__``) resolves the profile, builds the
    session's :class:`~repro.pipeline.cluster.MultiFeedlineRunner`,
    pre-fits or loads every discriminator in the feedline workers that
    will serve it (forking the process shards), and opens the
    one-feedline backend or publishes a multi-feedline replay corpus to
    shared memory straight from its chunk files; :meth:`run` streams
    traffic through the runner's one dispatch, on the pipelines the
    workers keep; :meth:`close` stops the workers and releases the
    backend, the replay segment and any session-private registry. The
    service is reusable after ``close`` — the next ``run`` re-warms.
    """

    def __init__(
        self,
        spec: ServeSpec,
        *,
        profile: Profile | None = None,
    ):
        if not isinstance(spec, ServeSpec):
            raise ConfigurationError(
                f"spec must be a ServeSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self.stats = ServiceStats()
        # Session-private and uncontended, but visible to the
        # REPRO_LOCK_DEBUG lock-order detector.
        self._recal_gate = trace_lock("serve.recal-gate")
        self._profile_override = profile
        self._profile: Profile | None = None
        self._warmed = False
        # Per-warm-cycle accounting (reset by warm()): the cumulative
        # stats cannot tell whether *this* cycle's first run paid a fit.
        self._cycle_cold_fits = 0
        self._cycle_runs = 0
        self._runner: "MultiFeedlineRunner | None" = None
        self._backend = None
        # Multi-feedline replay: the corpus published to shared memory
        # at warm-up, read by every feedline (unlinked at close).
        self._replay_block: "SharedTraceBlock | None" = None
        self._tmp_registry: tempfile.TemporaryDirectory | None = None
        # Drift state (reset each warm cycle): the session shot clock
        # drift accumulates against, and recalibration pacing.
        self._session_shots = 0
        self._runs_since_recal: int | None = None

    @classmethod
    def open(
        cls,
        spec: "ServeSpec | str | Path",
        *,
        profile: Profile | None = None,
        warm: bool = True,
    ) -> "ReadoutService":
        """Build a service from a spec object or JSON spec file path."""
        if isinstance(spec, (str, Path)):
            spec = ServeSpec.from_file(spec)
        service = cls(spec, profile=profile)
        if warm:
            service.warm()
        return service

    @property
    def profile(self) -> Profile:
        """The resolved calibration profile (resolves on first access)."""
        if self._profile is None:
            self._profile = self.spec.resolved_profile(self._profile_override)
        return self._profile

    @property
    def registry_dir(self) -> str | None:
        """The active calibration-registry root (set once warmed)."""
        if self._tmp_registry is not None:
            return self._tmp_registry.name
        return self.spec.calibration.registry_dir

    @property
    def session_shots(self) -> int:
        """Per-feedline shots served this warm cycle (the drift clock)."""
        return self._session_shots

    @property
    def backend(self):
        """The opened traffic backend of a one-feedline session, once warm.

        ``None`` for multi-feedline sessions: each shard builds its own
        traffic.
        """
        return self._backend

    def artifact_versions(self) -> dict[str, int]:
        """Calibration-artifact version served per feedline.

        A session that is not warm reports version 0 for every feedline:
        that is what the next warm-up serves.
        """
        if self._runner is not None:
            return self._runner.artifact_versions()
        return {feedline.name: 0 for feedline in self._feedline_specs()}

    def _feedline_specs(self) -> "list[FeedlineSpec]":
        """The session's feedlines, with their chips and registry slugs.

        An unset ``qubits_per_feedline`` means the base device's full
        complement — the base :class:`ChipConfig` is the source of the
        default, not a magic qubit-count literal. One feedline at that
        complement serves the canonical device under its canonical
        registry slug, and one feedline of any other size a sliced
        feedline chip under ``feedline0-q<n>``, so existing registries
        stay warm. Feedline ``i`` of a cluster is ``feedline-<i>``.
        """
        from repro.physics.device import (
            default_five_qubit_chip,
            make_feedline_chip,
            multi_feedline_chips,
        )
        from repro.pipeline.cluster import FeedlineSpec
        from repro.pipeline.runner import DEFAULT_DEVICE

        base = default_five_qubit_chip()
        qubits = self.spec.cluster.qubits_per_feedline
        qubits = base.n_qubits if qubits is None else qubits
        feedlines = self.spec.cluster.feedlines
        if feedlines > 1:
            chips = multi_feedline_chips(feedlines, n_qubits=qubits)
            return [
                FeedlineSpec(f"feedline-{i}", chip)
                for i, chip in enumerate(chips)
            ]
        if qubits == base.n_qubits:
            return [FeedlineSpec("feedline-0", base, DEFAULT_DEVICE)]
        chip = make_feedline_chip(0, n_qubits=qubits)
        return [FeedlineSpec("feedline-0", chip, f"feedline0-q{qubits}")]

    def warm(self) -> "ReadoutService":
        """Resolve the spec and pre-warm all serving state. Idempotent.

        Fits (or loads) every per-feedline discriminator through the
        calibration registry in the runner's feedline workers, which keep
        the models for the whole warm cycle; on ``process`` that first
        call forks the shard workers, before any replay segment is
        published, so subsequent :meth:`run` calls measure pure serving.
        A multi-feedline replay session then publishes its corpus: the
        manifest is checked against every feedline and sizes one
        shared-memory segment, and
        :func:`~repro.backends.corpus.load_corpus` writes each chunk
        file into it once, verifying its checksum on the way, so the
        parent never holds the corpus as an array. When the spec names
        no ``registry_dir``, the session owns a private temporary
        registry, discarded on :meth:`close` — even then, repeated runs
        within the session never refit.

        A failed warm-up (a corrupt or truncated corpus chunk raises
        :class:`~repro.exceptions.ConfigurationError` naming it) closes
        the session: no shard worker or segment outlives it, and the
        next :meth:`warm` or :meth:`run` starts afresh.
        """
        if self._warmed:
            return self
        spec = self.spec
        profile = self.profile
        config = spec.pipeline_config()
        wall_start = time.perf_counter()
        try:
            cold_fits = self._warm_state(spec, profile, config)
        except BaseException:
            # A failed warm-up must not leak the forked shard workers or
            # the session-private registry; close() releases both.
            self.close()
            raise
        self.stats.warm_seconds += time.perf_counter() - wall_start
        self.stats.cold_fits += cold_fits
        self._cycle_cold_fits = cold_fits
        self._cycle_runs = 0
        # A fresh warm cycle is a fresh calibration: the drift clock and
        # artifact versioning restart with it.
        self._session_shots = 0
        self._runs_since_recal = None
        self._warmed = True
        return self

    def _warm_state(self, spec: ServeSpec, profile: Profile, config) -> int:
        """Build the serving state; returns this cycle's cold-fit count.

        Split out of :meth:`warm` so its error path can release whatever
        was already created (``self`` fields are assigned as soon as the
        resources exist, before anything else that can fail).
        """
        from repro.pipeline.cluster import MultiFeedlineRunner

        if spec.calibration.registry_dir is None:
            # A session-private registry: prefit hands the artifacts to
            # the serving shards through it, hot recalibration stores
            # its versions there, and runs after warm-up must never
            # refit even when the caller keeps no registry.
            self._tmp_registry = tempfile.TemporaryDirectory(
                prefix="repro-serve-"
            )
        feedlines = self._feedline_specs()
        single = len(feedlines) == 1
        runner = MultiFeedlineRunner(
            feedlines,
            profile,
            # One feedline runs on the calling thread, whatever the spec
            # names (the executor is validated but inert there).
            executor="serial" if single else spec.cluster.executor,
            workers=spec.cluster.workers,
            config=config,
            chunk_size=spec.traffic.chunk_size,
            registry_dir=self.registry_dir,
            design=spec.calibration.design,
        )
        self._runner = runner  # before prefit: errors must close it
        # Calibration in the workers that serve: cold fits for distinct
        # feedlines run as concurrently as serving, the models stay
        # there, and this first call forks the process shards before
        # any measured run (and before the replay publish below, so no
        # worker inherits the parent's mapping of the segment).
        cold_fits = runner.prefit()
        if single:
            # Resolve the traffic endpoint through the backend registry
            # — opening validates it (replay checks the corpus against
            # the serving chip, socket handshakes with its peer) before
            # the session reports itself warm.
            from repro.backends import create_backend

            self._backend = create_backend(
                spec.traffic.backend,
                feedlines[0].chip,
                chunk_size=spec.traffic.chunk_size,
                drift=spec.drift.model(),
                corpus_path=spec.traffic.corpus_path,
                record_path=spec.traffic.record_path,
                socket_path=spec.traffic.socket_path,
            ).open()
        elif spec.traffic.backend == "replay":
            # Publish the corpus to one shared-memory segment that every
            # feedline's shard reads on every run() until close(). The
            # manifest sizes the segment and is checked against every
            # feedline before any trace byte lands (sibling feedline
            # chips differ by design spread, so the check is geometric,
            # not SHA-strict); load_corpus then writes each chunk file
            # straight into it, so the segment is the parent's only copy.
            # A failed load unlinks the segment.
            from repro.backends import load_corpus, read_corpus_layout
            from repro.pipeline.shm import SharedTraceBlock

            layout = read_corpus_layout(spec.traffic.corpus_path)
            for feedline in feedlines:
                layout.require_geometry(feedline.chip)
            if not layout.labeled:
                raise ConfigurationError(
                    f"replay corpus {layout.path} carries no prepared-level "
                    "labels; shared-memory replay needs a labeled corpus"
                )
            self._replay_block = SharedTraceBlock.from_writer(
                lambda block: load_corpus(layout.path, into=block),
                n_shots=layout.n_shots,
                trace_len=layout.trace_len,
                n_qubits=layout.n_qubits,
                feedline_dtype=layout.feedline_dtype,
                levels_dtype=layout.levels_dtype,
                label="+".join(feedline.name for feedline in feedlines),
            )
        return cold_fits

    def run(
        self, shots: int | None = None, seed: int | None = None
    ) -> "ClusterReport":
        """Serve one run of traffic against the warm state.

        Each feedline worker serves on the pipeline it keeps for the
        served artifact version; the run sends it only the traffic and
        the version. Returns the runner's :class:`ClusterReport`, one
        feedline or many: each feedline's
        :class:`~repro.pipeline.metrics.PipelineReport` is in its
        ``feedline_reports`` (``"feedline-0"`` on one feedline). A failed
        run closes the session (a dead process shard raises
        :class:`~repro.exceptions.ShardCrashedError`); the next run
        re-warms.

        Parameters
        ----------
        shots:
            Shots streamed this run (per feedline); defaults to the
            spec's ``traffic.shots``.
        seed:
            Traffic seed override (non-negative); defaults to the spec's
            ``traffic.seed`` (itself defaulting to profile seed + 1).
            With neither given, repeated runs replay identical traffic —
            deterministic serving of the same workload.
        """
        self.warm()
        spec = self.spec
        n_shots = spec.traffic.shots if shots is None else int(shots)
        if n_shots < 1:
            raise ConfigurationError(f"shots must be >= 1, got {n_shots}")
        traffic_seed = spec.traffic.seed if seed is None else int(seed)
        if traffic_seed is None:
            traffic_seed = self.profile.seed + 1
        elif traffic_seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {traffic_seed}")
        drift_model = spec.drift.model()
        # Calibration state as the *caller* experiences it: this warm
        # cycle's first run paid any cold fits during warm(); every later
        # run is served warm.
        cycle_cached = self._cycle_runs > 0 or self._cycle_cold_fits == 0
        try:
            wall_start = time.perf_counter()
            if self._backend is not None:
                # One feedline streams the session backend's traffic. The
                # backend owns the drift clock and stream lifetime; a
                # replay/socket backend delivers its own shot count (the
                # source resolves it) regardless of the request.
                traffic = partial(
                    self._backend.trace_source, n_shots, seed=traffic_seed
                )
                cluster = self._runner.dispatch([traffic])
            elif self._replay_block is not None:
                cluster = self._runner.dispatch_replay(self._replay_block)
            else:
                cluster = self._runner.run(
                    n_shots,
                    seed=traffic_seed,
                    drift_model=drift_model,
                    drift_shot_offset=self._session_shots,
                )
            wall = time.perf_counter() - wall_start
            feedline_reports = cluster.feedline_reports.values()
            if not cycle_cached:
                # The feedline chains loaded artifacts this same cycle's
                # warm() just fitted; to the caller that is a cold call.
                for feedline_report in feedline_reports:
                    feedline_report.calibration_cached = False
            self._cycle_runs += 1
            # Advance the session drift clock by the per-feedline shots
            # *delivered* (replay and stream-bound backends serve their
            # own length, not the request).
            self._session_shots += max(r.n_shots for r in feedline_reports)
            if self._runs_since_recal is not None:
                self._runs_since_recal += 1
            recalibrated = self._maybe_recalibrate(cluster, drift_model)
        except BaseException:
            # An exception escaping mid-run (a worker's error, or a
            # ShardCrashedError for a dead one) must not leak the shard
            # workers or the session-private registry; release both
            # exactly as a failed warm() does. The session re-warms on
            # the next run.
            self.close()
            raise
        self.stats.record(
            cluster, wall, calibration_cached=cycle_cached,
            recalibrated=recalibrated,
        )
        return cluster

    # -- hot recalibration ---------------------------------------------

    def _recalibration_due(self, report: "ClusterReport") -> bool:
        """Whether this run's drift alarm should trigger a refit now."""
        recal = self.spec.recalibration
        if not recal.enabled or not report.drift_alarm:
            return False
        if (
            recal.max_recalibrations is not None
            and self.stats.recalibrations >= recal.max_recalibrations
        ):
            return False
        return (
            self._runs_since_recal is None
            or self._runs_since_recal >= recal.cooldown_runs
        )

    def _recal_profile(self) -> Profile:
        """The sizing profile recalibration fits run under.

        The spec's shot budget overrides the corpus size; name and seed
        stay the serving profile's (both are baked into the artifact
        key — a recalibrated artifact is a new *version* of the same
        logical artifact, not a different profile's).
        """
        import dataclasses

        profile = self.profile
        budget = self.spec.recalibration.shot_budget
        if budget is not None:
            profile = dataclasses.replace(profile, shots_per_state=budget)
        return profile

    def _maybe_recalibrate(self, report: "ClusterReport", drift_model) -> bool:
        """Refit against the drifted device when the alarm demands it.

        Runs *between* serving runs on the session's own state — the
        shard workers stay warm, no run is dropped, and the freshly
        fitted artifacts land as the next version in the registry
        before the served version pointer moves (see
        :meth:`~repro.pipeline.cluster.MultiFeedlineRunner.recalibrate`,
        which picks the next version and fits it through the registry's
        ``get_or_fit``).
        """
        if not self._recalibration_due(report):
            return False
        from repro.physics.drift import DriftModel

        model = drift_model if drift_model is not None else DriftModel()
        recal_start = time.perf_counter()
        # A refit and the served-version swap that ends it run under
        # the session's recalibration gate, one at a time.
        with self._recal_gate:
            self._runner.recalibrate(
                model, self._session_shots, profile=self._recal_profile()
            )
        self.stats.recal_seconds += time.perf_counter() - recal_start
        self.stats.recalibrations += 1
        self._runs_since_recal = 0
        return True

    def close(self) -> None:
        """Stop the shard workers; release the replay segment and registry.

        Ends the warm cycle: the workers drop their pipelines and replay
        mappings and the process shards exit (a busy one is terminated
        after a short grace), before the segment is unlinked.
        Idempotent; cumulative :attr:`stats` survive, and the next
        :meth:`run` re-warms.
        """
        block, self._replay_block = self._replay_block, None
        try:
            if self._runner is not None:
                self._runner.close()
                self._runner = None
            if self._backend is not None:
                # Closing a recording backend finalizes its corpus
                # manifest.
                self._backend.close()
                self._backend = None
            if self._tmp_registry is not None:
                self._tmp_registry.cleanup()
                self._tmp_registry = None
            self._warmed = False
        finally:
            # Unlink last: the shards are done with the segment, an
            # unlink that fails leaves a closed session, not a half-closed
            # one, and a teardown step that raises cannot strand the
            # segment this method alone still references.
            if block is not None:
                block.unlink()

    def __enter__(self) -> "ReadoutService":
        self.warm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_once(
    spec: ServeSpec, *, profile: Profile | None = None
) -> "ClusterReport":
    """One-shot serving: warm a session, run once, tear it down.

    The turnkey entry point: the same datapath as a long-lived
    :class:`ReadoutService`, scoped to a single run, and the same
    :class:`ClusterReport` back. The spec carries everything the run
    needs (``spec.with_traffic`` changes the shots or seed);
    ``profile`` is the same ad-hoc sizing override
    :class:`ReadoutService` takes.
    """
    with ReadoutService(spec, profile=profile) as service:
        return service.run()
