"""Long-lived serving sessions over the streaming readout runtime.

The paper's readout datapath is persistent: calibrated once, then
discriminating shots continuously. :class:`ReadoutService` is that shape
as an API — it resolves a :class:`~repro.serve.spec.ServeSpec` once,
pre-warms the shard executors, pre-fits or loads every per-feedline
discriminator (:meth:`ReadoutService.warm`), and then serves repeated
:meth:`ReadoutService.run` calls against the warm state. A warmed service
never refits behind the caller's back: artifacts live in the calibration
registry (a private temporary one when the spec names none) and fitted
models stay resident in memory between runs. The one sanctioned
exception is *hot recalibration*: when the spec's
:class:`~repro.serve.spec.RecalibrationSpec` is enabled and a run's
online drift score trips the alarm, the service refits through the
shard pool against the drifted device and atomically swaps the next
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
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.lockgraph import trace_lock
from repro.config import Profile
from repro.exceptions import ConfigurationError
from repro.serve.spec import ServeSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.cluster import ClusterReport, MultiFeedlineRunner
    from repro.pipeline.metrics import PipelineReport
    from repro.pipeline.runner import ReadoutPipeline
    from repro.pipeline.shm import SharedTraceBlock
    from repro.physics.device import ChipConfig

__all__ = ["ReadoutService", "RunStats", "ServiceStats", "serve_once"]


def _report_calibration_cached(report) -> bool | None:
    """Whether a run served warm calibration on every feedline.

    ``PipelineReport`` carries the flag directly; a ``ClusterReport``
    aggregates its feedlines (``None`` when no feedline reports one).
    """
    cached = getattr(report, "calibration_cached", None)
    if cached is not None:
        return bool(cached)
    feedlines = getattr(report, "feedline_reports", None)
    if not feedlines:
        return None
    flags = [
        r.calibration_cached
        for r in feedlines.values()
        if r.calibration_cached is not None
    ]
    return all(flags) if flags else None


def _shots_per_feedline(report) -> int:
    """Shots each feedline served in one run (the drift-clock step).

    A ``ClusterReport``'s ``n_shots`` sums its feedlines; every feedline
    of a session streams the same traffic length, so one feedline's
    count is the step.
    """
    feedlines = getattr(report, "feedline_reports", None)
    if not feedlines:
        return report.n_shots
    return max(r.n_shots for r in feedlines.values())


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
        fits/loads plus shard-pool spawn) — the cost the warm runs
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
        report,
        wall_seconds: float,
        calibration_cached: bool | None = None,
        recalibrated: bool = False,
    ) -> RunStats:
        """Fold one run's report into the cumulative stats.

        ``calibration_cached`` overrides the flag derived from the
        report — :class:`ReadoutService` passes its session-cycle view
        (did *this cycle* pay cold fits before this run) so the stats
        mean the same thing for single- and multi-feedline sessions.
        ``recalibrated`` marks a run whose drift alarm triggered a hot
        recalibration after it completed.
        """
        if calibration_cached is None:
            calibration_cached = _report_calibration_cached(report)
        run = RunStats(
            index=len(self.runs),
            n_shots=report.n_shots,
            wall_seconds=wall_seconds,
            shots_per_second=(
                report.n_shots / wall_seconds if wall_seconds > 0 else 0.0
            ),
            accuracy=report.accuracy,
            calibration_cached=calibration_cached,
            drift_score=getattr(report, "drift_score", None),
            drift_alarm=getattr(report, "drift_alarm", None),
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
    namespace:
        Optional tenant namespace (a registry slug). Prefixes every
        registry device name this session fits or serves
        (``<namespace>.<device>``), so tenants sharing one registry root
        keep disjoint calibration keys — one tenant's versioned
        recalibration can never alter what another serves.
    pool:
        Optional injected shard executor (a fleet's
        :class:`~repro.pipeline.cluster.ShardPoolLease`). Multi-feedline
        sessions then dispatch through the shared substrate instead of
        spawning a private pool; :meth:`close` leaves it up for its
        owner. Single-feedline sessions run inline and ignore it.
    recal_gate:
        Optional context manager (e.g. a shared ``threading.Lock``)
        entered around hot-recalibration refits, so a fleet can
        serialize recalibrations across tenants — one tenant's drift
        storm queues behind the gate instead of monopolizing the pool.
        Defaults to a session-private lock (uncontended, but visible to
        the ``REPRO_LOCK_DEBUG`` lock-order detector).

    Lifecycle: :meth:`warm` (idempotent; implicit on the first
    :meth:`run` and on ``__enter__``) resolves the profile, builds the
    serving topology, pre-fits or loads every discriminator, and
    pre-spawns shard pools, and publishes a multi-feedline replay
    corpus to shared memory; :meth:`run` streams traffic against that
    state; :meth:`close` releases pools, the replay segment and any
    session-private registry. The service is reusable after ``close`` —
    the next ``run`` re-warms.
    """

    def __init__(
        self,
        spec: ServeSpec,
        *,
        profile: Profile | None = None,
        namespace: str | None = None,
        pool=None,
        recal_gate=None,
    ):
        if not isinstance(spec, ServeSpec):
            raise ConfigurationError(
                f"spec must be a ServeSpec, got {type(spec).__name__}"
            )
        if namespace is not None:
            from repro.pipeline.registry import _SLUG

            if not isinstance(namespace, str) or not _SLUG.match(namespace):
                raise ConfigurationError(
                    "namespace must be a registry slug (letters, digits, "
                    f"'.', '_', '-'; not starting with punctuation), got "
                    f"{namespace!r}"
                )
        self.spec = spec
        self.stats = ServiceStats()
        self._namespace = namespace
        self._pool = pool
        self._recal_gate = (
            recal_gate
            if recal_gate is not None
            else trace_lock("serve.recal-gate")
        )
        self._profile_override = profile
        self._profile: Profile | None = None
        self._warmed = False
        # Per-warm-cycle accounting (reset by warm()): the cumulative
        # stats cannot tell whether *this* cycle's first run paid a fit.
        self._cycle_cold_fits = 0
        self._cycle_runs = 0
        self._pipeline: "ReadoutPipeline | None" = None
        self._chip: "ChipConfig | None" = None
        self._device: str | None = None
        self._config = None
        self._runner: "MultiFeedlineRunner | None" = None
        self._backend = None
        # Multi-feedline replay: the corpus published to shared memory
        # at warm-up, feedline name -> block (unlinked at close).
        self._replay_blocks: "dict[str, SharedTraceBlock]" = {}
        self._tmp_registry: tempfile.TemporaryDirectory | None = None
        # Drift state (reset each warm cycle): the session shot clock
        # drift accumulates against, the served artifact version on the
        # single-feedline path, and recalibration pacing.
        self._session_shots = 0
        self._version = 0
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
        """The resolved instrument backend (single-feedline; once warm)."""
        return self._backend

    def artifact_versions(self) -> dict[str, int]:
        """Calibration-artifact version currently served per feedline."""
        if self._runner is not None:
            return self._runner.artifact_versions()
        return {"feedline-0": self._version}

    def _qubits_per_feedline(self) -> int:
        """Resolved qubit count per served readout group.

        An unset spec value means the base device's full complement —
        the base :class:`ChipConfig` is the source of the default, not a
        magic qubit-count literal.
        """
        qubits = self.spec.cluster.qubits_per_feedline
        if qubits is not None:
            return qubits
        from repro.physics.device import default_five_qubit_chip

        return default_five_qubit_chip().n_qubits

    def _single_feedline_target(self) -> "tuple[ChipConfig, str]":
        """The chip and registry device the one-feedline chain serves.

        A spec asking for the base chip's full qubit complement serves
        the canonical device under its canonical registry slug; anything
        else derives a sliced feedline chip.
        """
        from repro.physics.device import (
            default_five_qubit_chip,
            make_feedline_chip,
        )
        from repro.pipeline.runner import DEFAULT_DEVICE

        base = default_five_qubit_chip()
        qubits = self._qubits_per_feedline()
        if qubits == base.n_qubits:
            return base, DEFAULT_DEVICE
        return make_feedline_chip(0, n_qubits=qubits), f"feedline0-q{qubits}"

    def warm(self) -> "ReadoutService":
        """Resolve the spec and pre-warm all serving state. Idempotent.

        Fits (or loads) every per-feedline discriminator through the
        calibration registry and pre-spawns the shard pools, so
        subsequent :meth:`run` calls measure pure serving. When the spec
        names no ``registry_dir``, the session owns a private temporary
        registry, discarded on :meth:`close` — even then, repeated runs
        within the session never refit.
        """
        if self._warmed:
            return self
        from repro.pipeline.runner import validate_streamable_design

        spec = self.spec
        validate_streamable_design(spec.calibration.design)
        profile = self.profile
        config = spec.pipeline_config()
        wall_start = time.perf_counter()
        try:
            cold_fits = self._warm_state(spec, profile, config)
        except BaseException:
            # A failed warm-up must not leak the spawned shard pool or
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
        self._version = 0
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
        from repro.pipeline.registry import CalibrationRegistry
        from repro.pipeline.runner import (
            ReadoutPipeline,
            fit_or_load_discriminator,
        )
        from repro.physics.device import multi_feedline_chips

        design = spec.calibration.design
        cold_fits = 0
        if spec.cluster.feedlines == 1:
            if (
                spec.calibration.registry_dir is None
                and spec.recalibration.enabled
            ):
                # Hot recalibration swaps *versioned artifacts*; give a
                # registry-less session a private one so the versions
                # have somewhere to live (discarded on close, like the
                # multi-feedline session registry).
                self._tmp_registry = tempfile.TemporaryDirectory(
                    prefix="repro-serve-"
                )
            chip, device = self._single_feedline_target()
            if self._namespace is not None:
                device = f"{self._namespace}.{device}"
            registry_dir = self.registry_dir
            registry = (
                CalibrationRegistry(registry_dir)
                if registry_dir is not None
                else None
            )
            discriminator, cached = fit_or_load_discriminator(
                profile, registry, chip=chip, device=device, design=design
            )
            cold_fits += 0 if cached else 1
            self._chip = chip
            self._device = device
            self._config = config
            self._pipeline = ReadoutPipeline(discriminator, chip, config)
            # Resolve the traffic endpoint through the backend registry
            # — opening validates it (replay checks the corpus against
            # the serving chip, socket handshakes with its peer) before
            # the session reports itself warm.
            from repro.backends import create_backend

            self._backend = create_backend(
                spec.traffic.backend,
                chip,
                chunk_size=spec.traffic.chunk_size,
                drift=spec.drift.model(),
                corpus_path=spec.traffic.corpus_path,
                record_path=spec.traffic.record_path,
                socket_path=spec.traffic.socket_path,
            ).open()
        else:
            if spec.calibration.registry_dir is None:
                # A session-private registry: process shards need the
                # artifacts on disk, and runs after warm-up must never
                # refit even when the caller keeps no registry.
                self._tmp_registry = tempfile.TemporaryDirectory(
                    prefix="repro-serve-"
                )
            chips = multi_feedline_chips(
                spec.cluster.feedlines, n_qubits=self._qubits_per_feedline()
            )
            if self._namespace is not None:
                from repro.pipeline.cluster import FeedlineSpec

                # Tenant-namespaced registry devices: the feedline names
                # (and with them seeds, placement, reports) stay the
                # canonical feedline-<i>, only the artifact keys move
                # into the tenant's namespace.
                feedlines = [
                    FeedlineSpec(
                        name=f"feedline-{i}",
                        chip=chip,
                        device=f"{self._namespace}.feedline-{i}",
                    )
                    for i, chip in enumerate(chips)
                ]
            else:
                feedlines = chips
            runner = MultiFeedlineRunner(
                feedlines,
                profile,
                executor=spec.cluster.executor,
                workers=spec.cluster.workers,
                config=config,
                chunk_size=spec.traffic.chunk_size,
                registry_dir=self.registry_dir,
                design=design,
                pool=self._pool,
            )
            self._runner = runner  # before prefit: errors must close it
            # Pool first, then calibration *through* the pool: cold fits
            # for distinct feedlines run as concurrently as serving.
            runner.prewarm()
            cold_fits += runner.prefit()
            if spec.traffic.backend == "replay":
                # Load and integrity-check the corpus once at warm-up,
                # then publish it to one shared-memory segment that every
                # feedline's shard reads on every run() until close().
                # The loaded arrays are dropped: the segment is the
                # session's only copy. Sibling feedline chips differ by
                # design spread, so the check is geometric, not
                # SHA-strict.
                from repro.backends import load_corpus

                corpus = load_corpus(spec.traffic.corpus_path)
                for chip in chips:
                    corpus.require_geometry(chip)
                self._replay_blocks = runner.publish_replay(corpus)
        return cold_fits

    def run(
        self, shots: int | None = None, seed: int | None = None
    ) -> "PipelineReport | ClusterReport":
        """Serve one run of traffic against the warm state.

        Parameters
        ----------
        shots:
            Shots streamed this run (per feedline); defaults to the
            spec's ``traffic.shots``.
        seed:
            Traffic seed override; defaults to the spec's
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
        drift_model = spec.drift.model()
        # Calibration state as the *caller* experiences it, identical on
        # both serving paths: this warm cycle's first run paid any cold
        # fits during warm(); every later run is served warm.
        cycle_cached = self._cycle_runs > 0 or self._cycle_cold_fits == 0
        try:
            wall_start = time.perf_counter()
            if self._pipeline is not None:
                resolved_seed = (
                    self.profile.seed + 1
                    if traffic_seed is None
                    else traffic_seed
                )
                # The backend owns the drift clock and stream lifetime;
                # a replay/socket backend delivers its own shot count
                # (the source resolves it) regardless of the request.
                source = self._backend.trace_source(
                    n_shots, seed=resolved_seed
                )
                report = self._pipeline.run(source)
                report.calibration_cached = cycle_cached
            elif self._replay_blocks:
                report = self._runner.dispatch_replay(self._replay_blocks)
                if not cycle_cached:
                    for feedline_report in report.feedline_reports.values():
                        feedline_report.calibration_cached = False
            else:
                report = self._runner.run(
                    n_shots,
                    seed=traffic_seed,
                    drift_model=drift_model,
                    drift_shot_offset=self._session_shots,
                )
                if not cycle_cached:
                    # The feedline chains loaded artifacts this same
                    # cycle's warm() just fitted; to the caller that is
                    # a cold call (one-shot multi-feedline runs kept
                    # this semantic before the serve redesign).
                    for feedline_report in report.feedline_reports.values():
                        feedline_report.calibration_cached = False
            wall = time.perf_counter() - wall_start
            self._cycle_runs += 1
            # Advance the session drift clock by the per-feedline shots
            # *delivered* (replay and stream-bound backends serve their
            # own length, not the request).
            self._session_shots += _shots_per_feedline(report)
            if self._runs_since_recal is not None:
                self._runs_since_recal += 1
            recalibrated = self._maybe_recalibrate(report, drift_model)
        except BaseException:
            # An exception escaping mid-run must not leak the shard pool
            # or the session-private registry; release both exactly as a
            # failed warm() does. The session re-warms on the next run.
            self.close()
            raise
        self.stats.record(
            report, wall, calibration_cached=cycle_cached,
            recalibrated=recalibrated,
        )
        return report

    # -- hot recalibration ---------------------------------------------

    def _recalibration_due(self, report) -> bool:
        """Whether this run's drift alarm should trigger a refit now."""
        recal = self.spec.recalibration
        if not recal.enabled or not getattr(report, "drift_alarm", False):
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

    def _maybe_recalibrate(self, report, drift_model) -> bool:
        """Refit against the drifted device when the alarm demands it.

        Runs *between* serving runs on the session's own state — the
        shard pools stay warm, no run is dropped, and the freshly
        fitted artifacts land as the next version in the registry
        before the served version pointer moves (see
        :meth:`CalibrationRegistry.supersede` semantics).
        """
        if not self._recalibration_due(report):
            return False
        from repro.physics.drift import DriftModel

        model = drift_model if drift_model is not None else DriftModel()
        gate = self._recal_gate
        recal_start = time.perf_counter()
        # The gate (a fleet-shared lock) serializes refits across
        # tenants: one tenant's drift storm queues here instead of
        # saturating the shared shard pool with calibration tasks.
        with gate:
            if self._runner is not None:
                self._runner.recalibrate(
                    model, self._session_shots, profile=self._recal_profile()
                )
            else:
                self._recalibrate_single_feedline(model)
        self.stats.recal_seconds += time.perf_counter() - recal_start
        self.stats.recalibrations += 1
        self._runs_since_recal = 0
        return True

    def _recalibrate_single_feedline(self, model) -> None:
        """Fit the next artifact version and hot-swap the one pipeline."""
        from repro.pipeline.registry import CalibrationRegistry
        from repro.pipeline.runner import (
            ReadoutPipeline,
            fit_or_load_discriminator,
        )

        from repro.pipeline.runner import calibration_key

        registry_dir = self.registry_dir
        registry = (
            CalibrationRegistry(registry_dir)
            if registry_dir is not None
            else None
        )
        recal_profile = self._recal_profile()
        # Exceed both the served version and anything already stored: a
        # persistent registry may hold versions a *previous* session
        # recalibrated — serving one as a warm hit would re-introduce
        # the very staleness this refit replaces.
        stored = (
            None
            if registry is None
            else registry.latest_version(
                calibration_key(
                    recal_profile,
                    chip=self._chip,
                    device=self._device,
                    design=self.spec.calibration.design,
                )
            )
        )
        next_version = (
            max(self._version, -1 if stored is None else stored) + 1
        )
        snapshot = model.chip_at(self._chip, self._session_shots)
        discriminator, _ = fit_or_load_discriminator(
            recal_profile,
            registry,
            chip=self._chip,
            device=self._device,
            design=self.spec.calibration.design,
            version=next_version,
            calibration_chip=snapshot,
        )
        # Atomic swap: the new pipeline serves the new artifact and
        # demodulates with the device snapshot it was calibrated at;
        # the old version was never mutated, so a reader mid-swap sees
        # either version whole.
        self._pipeline = ReadoutPipeline(
            discriminator, snapshot, self._config
        )
        self._version = next_version

    def close(self) -> None:
        """Release shard pools, replay segments and any private registry.

        Idempotent; cumulative :attr:`stats` survive, and the next
        :meth:`run` re-warms.
        """
        blocks, self._replay_blocks = self._replay_blocks, {}
        try:
            if self._runner is not None:
                self._runner.close()
                self._runner = None
            if self._backend is not None:
                # Closing a recording backend finalizes its corpus
                # manifest.
                self._backend.close()
                self._backend = None
            self._pipeline = None
            self._chip = None
            self._device = None
            self._config = None
            if self._tmp_registry is not None:
                self._tmp_registry.cleanup()
                self._tmp_registry = None
            self._warmed = False
        finally:
            # Unlink last: the shards are done with the segment, an
            # unlink that fails leaves a closed session, not a half-closed
            # one, and a teardown step that raises cannot strand the
            # segment this method alone still references.
            for block in blocks.values():
                block.unlink()

    def __enter__(self) -> "ReadoutService":
        self.warm()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_once(
    spec: ServeSpec, *, profile: Profile | None = None
) -> "PipelineReport | ClusterReport":
    """One-shot serving: warm a session, run once, tear it down.

    The turnkey entry point (``repro pipeline``, ``record`` and
    ``replay`` stand on it): the same datapath as a long-lived
    :class:`ReadoutService`, scoped to a single run. The spec carries
    everything the run needs (``spec.with_traffic`` changes the shots or
    seed); ``profile`` is the same ad-hoc sizing override
    :class:`ReadoutService` takes.
    """
    with ReadoutService(spec, profile=profile) as service:
        return service.run()
