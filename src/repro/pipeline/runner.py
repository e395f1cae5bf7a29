"""The streaming readout runtime: source → stages → sink, instrumented.

:class:`ReadoutPipeline` wires a :class:`~repro.pipeline.source
.TraceSource` through the micro-batcher and the fused discrimination
engine into a result sink, timing every stage and scoring the measured
per-shot compute latency against the FPGA decision budget.
:func:`fit_or_load_discriminator` resolves the served model through a
:class:`~repro.pipeline.registry.CalibrationRegistry` (fit once, then
serve from disk). Turnkey runs go through a
:class:`~repro.serve.spec.ServeSpec` (:func:`repro.serve.serve_once`).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.config import Profile
from repro.data.synthetic import generate_corpus
from repro.discriminators import registry as discriminators
from repro.discriminators.mlr import MLRDiscriminator
from repro.exceptions import ConfigurationError
from repro.fpga.latency import check_cycle_budget
from repro.physics.device import ChipConfig, default_five_qubit_chip
from repro.pipeline.batching import MicroBatcher
from repro.pipeline.buffers import BufferRing, make_buffer_ring
from repro.pipeline.drift import DriftMonitor
from repro.pipeline.metrics import PipelineReport, StageTimings
from repro.pipeline.registry import CalibrationKey, CalibrationRegistry
from repro.pipeline.sink import EraserSpeculationSink, ResultSink
from repro.pipeline.source import TraceSource
from repro.pipeline.stages import BatchDiscriminationEngine

__all__ = [
    "PipelineConfig",
    "ReadoutPipeline",
    "calibration_key",
    "fit_or_load_discriminator",
    "validate_streamable_design",
]

#: Device slug of :func:`default_five_qubit_chip` in the registry tree.
DEFAULT_DEVICE = "five-qubit-default"

#: Registered design the pipeline serves by default (the paper's).
DEFAULT_DESIGN = "ours"


@dataclass(frozen=True)
class PipelineConfig:
    """Runtime knobs for the streaming pipeline.

    Parameters
    ----------
    batch_size:
        Shots per dispatched micro-batch.
    max_pending:
        Queue capacity in batches for a caller-built
        :class:`~repro.pipeline.sink.QueueingSink`. The default sink
        runs inline and has no queue, so no pipeline run reads it.
    drift_detection:
        Monitor streamed assignments and score margins against the
        calibration-time references carried in the served artifact (see
        :class:`~repro.pipeline.drift.DriftMonitor`), surfacing
        ``drift_score``/``drift_alarm`` in the report. Inert when the
        artifact predates reference support.
    drift_threshold:
        Drift score at which the report's ``drift_alarm`` trips.
    drift_ewma_alpha:
        EWMA weight of the newest batch in the drift monitor.
    drift_min_shots:
        Shots the monitor must see before it may alarm.

    Source chunking is the :class:`TraceSource`'s own knob, not runtime
    configuration — see ``chunk_size`` on the source constructors.
    """

    batch_size: int = 64
    max_pending: int = 8
    drift_detection: bool = True
    drift_threshold: float = 0.1
    drift_ewma_alpha: float = 0.25
    drift_min_shots: int = 50

    def __post_init__(self) -> None:
        # Collect every violation before raising, so a config with
        # several bad knobs reports them all in one pass instead of
        # failing one field at a time.
        problems: list[str] = []
        for field_name in ("batch_size", "max_pending"):
            value = getattr(self, field_name)
            if value < 1:
                problems.append(f"{field_name} must be >= 1, got {value}")
        if self.drift_threshold <= 0:
            problems.append(
                f"drift_threshold must be positive, got {self.drift_threshold}"
            )
        if not 0.0 < self.drift_ewma_alpha <= 1.0:
            problems.append(
                "drift_ewma_alpha must be in (0, 1], got "
                f"{self.drift_ewma_alpha}"
            )
        if self.drift_min_shots < 0:
            problems.append(
                f"drift_min_shots must be >= 0, got {self.drift_min_shots}"
            )
        if problems:
            raise ConfigurationError(
                "invalid PipelineConfig: " + "; ".join(problems)
            )


class ReadoutPipeline:
    """Streams micro-batches through the discrimination stages.

    Parameters
    ----------
    discriminator:
        Fitted :class:`MLRDiscriminator` to serve.
    chip:
        Device the stream comes from.
    config:
        Runtime configuration.
    sink:
        Optional result consumer. Every :meth:`run` closes the sink it
        used (that is where the report's sink summary comes from), so a
        caller-provided sink makes the pipeline single-run. When omitted,
        each run builds its own ERASER+M speculation sink — the paper's
        downstream QEC consumer — and calls it on the thread that runs
        the batch loop, so a default run starts no thread; the pipeline
        is reusable across runs.

    The engine (with its fused-bank cache) and the buffer ring are built
    at the first :meth:`run` and reused by every later one; the ring is
    sized from the config's ``batch_size``. The batcher, the drift
    monitor and the default sink hold per-run state, so each run builds
    its own.
    """

    def __init__(
        self,
        discriminator: MLRDiscriminator,
        chip: ChipConfig,
        config: PipelineConfig | None = None,
        sink: ResultSink | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.chip = chip
        self.discriminator = discriminator
        self._sink_override = sink
        self._engine: BatchDiscriminationEngine | None = None
        self._ring: BufferRing | None = None

    def _make_sink(self) -> ResultSink:
        if self._sink_override is not None:
            return self._sink_override
        return EraserSpeculationSink(self.chip.n_qubits)

    def _make_drift_monitor(self) -> DriftMonitor | None:
        """Per-run drift monitor, when enabled and the artifact can."""
        if not self.config.drift_detection:
            return None
        reference = getattr(self.discriminator, "reference_assignment_", None)
        if reference is None:
            return None  # pre-reference artifact: nothing to score against
        return DriftMonitor(
            reference,
            reference_margin=getattr(
                self.discriminator, "reference_margin_", None
            ),
            threshold=self.config.drift_threshold,
            alpha=self.config.drift_ewma_alpha,
            min_shots=self.config.drift_min_shots,
            n_levels=self.chip.n_levels,
        )

    def run(self, source: TraceSource) -> PipelineReport:
        """Drain the source through the stages; returns the run report."""
        timings = StageTimings()
        batcher = MicroBatcher(self.config.batch_size)
        monitor = self._make_drift_monitor()
        sink = None

        n_shots = 0
        n_batches = 0
        n_correct = 0
        n_labeled = 0
        assignment_counts = np.zeros(
            self.chip.n_levels**self.chip.n_qubits, dtype=np.int64
        )
        wall_start = time.perf_counter()
        try:
            if self._engine is None:
                engine = BatchDiscriminationEngine(
                    self.discriminator, self.chip
                )
                # make_buffer_ring arms the use-after-recycle sanitizer
                # when REPRO_SANITIZE is set; plain ring otherwise.
                self._ring = make_buffer_ring(
                    self.config.batch_size, engine.feature_width
                )
                self._engine = engine
            engine, ring = self._engine, self._ring
            # Taken only after the engine checks out: a construction error
            # then closes no sink, so a caller's sink stays usable.
            sink = self._make_sink()
            for batch in batcher.rebatch(source.chunks(), ring=ring):
                feedline = batch.feedline
                n = feedline.shape[0]
                result = engine.process(
                    feedline, out_features=ring.paired_features(feedline)
                )
                t0 = time.perf_counter()
                sink.consume(result.levels, result.joint, batch.chunk_id)
                stage_seconds = result.stage_seconds
                timings.record_batch(
                    (
                        stage_seconds["matched_filter"],
                        stage_seconds["discriminate"],
                        time.perf_counter() - t0,
                    ),
                    n,
                )

                # One histogram per batch: the run's counts and the
                # drift monitor's EWMA both fold it.
                counts = np.bincount(
                    result.joint, minlength=assignment_counts.size
                )
                assignment_counts += counts
                if monitor is not None:
                    monitor.observe(
                        result.joint, result.mean_margin, counts=counts
                    )
                truth = batch.joint_labels(self.chip.n_levels)
                if truth is not None:
                    n_correct += int(np.add.reduce(result.joint == truth))
                    n_labeled += n
                n_shots += n
                n_batches += 1
        except BaseException:
            # The stage or sink error is the primary failure; still close
            # the sink (a caller's QueueingSink joins its consumer thread
            # there), suppressing any deferred sink error.
            if sink is not None:
                try:
                    sink.close()
                except Exception:  # repro: allow(broad-except) stage error outranks deferred sink error
                    pass
            raise
        finally:
            # The ring outlives the run; it must not keep the source's
            # memory (a replay segment a worker may unmap) referenced.
            if self._ring is not None:
                self._ring.release()
        sink_summary = sink.close()
        wall = time.perf_counter() - wall_start

        head = self.discriminator.models[0]
        budget = check_cycle_budget(
            measured_ns_per_shot=timings.compute_per_shot_us() * 1e3,
            layer_sizes=head.layer_sizes,
        )
        details = {"batch_size": self.config.batch_size}
        drift = None if monitor is None else monitor.summary()
        if drift is not None:
            details["drift"] = drift
        return PipelineReport(
            n_shots=n_shots,
            n_batches=n_batches,
            wall_seconds=wall,
            # A sub-resolution wall (tiny fully-cached run) must never
            # serialize as Infinity; 0.0 reads as "not measurable".
            shots_per_second=n_shots / wall if wall > 0 else 0.0,
            stage_summaries={
                stats.name: stats.summary() for stats in timings.ordered()
            },
            budget=budget,
            sink_summary=sink_summary,
            accuracy=(n_correct / n_labeled) if n_labeled else None,
            assignment_counts=assignment_counts.tolist(),
            details=details,
            drift_score=None if drift is None else drift["drift_score"],
            drift_alarm=None if drift is None else drift["alarm"],
        )


def _device_slug(device: str, chip: ChipConfig) -> str:
    """Registry device slug: the given name plus a chip-config digest.

    Hashing the full chip parameters into the key means a changed device
    (different IFs, noise, crosstalk) can never silently serve kernels
    calibrated for another chip.
    """
    payload = json.dumps(chip.to_dict(), sort_keys=True).encode()
    return f"{device}-{hashlib.sha1(payload).hexdigest()[:8]}"


def _profile_slug(profile: Profile, design: str = DEFAULT_DESIGN) -> str:
    """Registry profile slug: name plus seed, so a seed override
    (``calibration.seed``) calibrates freshly instead of hitting the
    base-seed artifact.

    Non-default designs are baked into the slug too — otherwise a warm
    registry would silently serve whichever design was stored first.
    The default design keeps the original ``<name>-s<seed>`` form so
    existing caches stay warm.
    """
    slug = f"{profile.name}-s{profile.seed}"
    return slug if design == DEFAULT_DESIGN else f"{design}.{slug}"


def validate_streamable_design(design: str) -> str:
    """Check a design can be served by the streaming engine; returns it.

    The engine reuses the MLR kernels/scaler/heads directly, so only
    designs resolving to :class:`MLRDiscriminator` (or a subclass)
    stream. Checked once per shard runner
    (:class:`repro.pipeline.cluster.MultiFeedlineRunner`), which every
    serving session builds at warm-up.
    """
    if not issubclass(discriminators.get(design).cls, MLRDiscriminator):
        raise ConfigurationError(
            f"design {design!r} cannot stream: the pipeline's "
            "discrimination engine serves the MLR family only"
        )
    return design


def calibration_key(
    profile: Profile,
    chip: ChipConfig | None = None,
    device: str = DEFAULT_DEVICE,
    design: str = DEFAULT_DESIGN,
    version: int = 0,
) -> CalibrationKey:
    """The registry key :func:`fit_or_load_discriminator` resolves through.

    Exposed so recalibration can ask the registry about *stored*
    versions of a logical artifact (``CalibrationRegistry
    .latest_version``) before choosing the next one.
    """
    chip = chip if chip is not None else default_five_qubit_chip()
    return CalibrationKey(
        device=_device_slug(device, chip),
        qubit="all",
        profile=_profile_slug(profile, design),
        version=version,
    )


def fit_or_load_discriminator(
    profile: Profile,
    registry: CalibrationRegistry | None,
    chip: ChipConfig | None = None,
    device: str = DEFAULT_DEVICE,
    design: str = DEFAULT_DESIGN,
    version: int = 0,
    calibration_chip: ChipConfig | None = None,
) -> tuple[MLRDiscriminator, bool]:
    """Resolve the pipeline's discriminator through the registry.

    With a registry, a stored (device+chip-hash, all, profile+seed,
    version) artifact is served without retraining; otherwise the named
    design (default: the paper's, via the discriminator plugin registry)
    is fitted on a freshly generated calibration corpus (and stored when
    a registry is given).

    Parameters
    ----------
    version:
        Artifact recalibration version. The key identity (device slug,
        profile slug) stays anchored to the *declared* chip so versions
        of one logical artifact live side by side.
    calibration_chip:
        Device snapshot the calibration corpus is simulated from when
        the fit is cold; defaults to ``chip``. Hot recalibration passes
        the drifted device here while ``chip`` keeps naming the key.

    Returns
    -------
    (discriminator, cached):
        The fitted model and whether it was served from the registry.
    """
    chip = chip if chip is not None else default_five_qubit_chip()
    fit_chip = calibration_chip if calibration_chip is not None else chip

    def corpus_factory():
        return generate_corpus(
            fit_chip, shots_per_state=profile.shots_per_state, seed=profile.seed
        )

    def discriminator_factory():
        return discriminators.build(design, profile)

    if registry is None:
        corpus = corpus_factory()
        discriminator = discriminator_factory()
        discriminator.fit(corpus, np.arange(corpus.n_traces))
        return discriminator, False

    key = calibration_key(
        profile, chip=chip, device=device, design=design, version=version
    )
    return registry.get_or_fit(key, discriminator_factory, corpus_factory)
