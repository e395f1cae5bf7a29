"""Streaming readout runtime: online, batched, instrumented discrimination.

The experiment runners in :mod:`repro.experiments` are offline — one
corpus, one table. This package is the *serving* counterpart the paper's
online-decoding premise implies:

- :mod:`repro.pipeline.source` — :class:`TraceSource` streams shots in
  bounded chunks; an instrument backend (:mod:`repro.backends`) adapts
  simulated, recorded or socket traffic to it, and
  :class:`CorpusTraceSource` replays an in-memory corpus.
- :mod:`repro.pipeline.shm` — one published :class:`SharedTraceBlock`
  replayed by every feedline's worker through a zero-copy mapping.
- :mod:`repro.pipeline.batching` — :class:`MicroBatcher` re-chunks the
  stream into fixed-size dispatch batches.
- :mod:`repro.pipeline.stages` — the fused engine: demod and
  decimation folded into one matched-filter matmul, then the per-qubit
  NN heads, all vectorized over a micro-batch.
- :mod:`repro.pipeline.registry` — :class:`CalibrationRegistry` persists
  fitted artifacts (kernels, scalers, NN weights) by
  (device, qubit, profile) so warm runs skip retraining.
- :mod:`repro.pipeline.sink` — result sinks; the default runs inline
  and feeds ERASER+M leakage speculation in :mod:`repro.qec.eraser`.
- :mod:`repro.pipeline.metrics` — per-stage p50/p99 latency, throughput,
  and the measured-vs-FPGA cycle-budget check.
- :mod:`repro.pipeline.runner` — :class:`ReadoutPipeline`, whose
  ``run(source)`` streams any :class:`TraceSource`, and the registry
  lookup that resolves its fitted model.
- :mod:`repro.pipeline.cluster` — multi-feedline sharding:
  :class:`MultiFeedlineRunner` replicates the chain per feedline in
  feedline workers that keep it warm across runs, on the
  calling thread (``serial``) or in the long-lived processes of a
  :class:`ProcessShardExecutor` (``process``), and merges the
  per-feedline reports into one :class:`ClusterReport`.
- :mod:`repro.pipeline.blas` — the per-shard OpenBLAS thread budget
  applied before process shards fork.
"""

from repro.pipeline.batching import MicroBatcher
from repro.pipeline.buffers import BufferRing
from repro.pipeline.cluster import (
    EXECUTOR_NAMES,
    ClusterReport,
    FeedlineSpec,
    MultiFeedlineRunner,
    ProcessShardExecutor,
)
from repro.pipeline.drift import DriftMonitor
from repro.pipeline.metrics import LatencyStats, PipelineReport, StageTimings
from repro.pipeline.registry import CalibrationKey, CalibrationRegistry, PruneReport
from repro.pipeline.runner import (
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
from repro.pipeline.sink import (
    CollectingSink,
    EraserSpeculationSink,
    QueueingSink,
    ResultSink,
)
from repro.pipeline.source import CorpusTraceSource, ShotChunk, TraceSource
from repro.pipeline.stages import BatchDiscriminationEngine, BatchResult

__all__ = [
    "ShotChunk",
    "TraceSource",
    "CorpusTraceSource",
    "SharedTraceDescriptor",
    "SharedTraceBlock",
    "SharedMemoryTraceSource",
    "MicroBatcher",
    "BufferRing",
    "DriftMonitor",
    "EXECUTOR_NAMES",
    "FeedlineSpec",
    "ProcessShardExecutor",
    "ClusterReport",
    "MultiFeedlineRunner",
    "BatchDiscriminationEngine",
    "BatchResult",
    "CalibrationKey",
    "CalibrationRegistry",
    "PruneReport",
    "ResultSink",
    "CollectingSink",
    "QueueingSink",
    "EraserSpeculationSink",
    "LatencyStats",
    "StageTimings",
    "PipelineReport",
    "PipelineConfig",
    "ReadoutPipeline",
    "calibration_key",
    "fit_or_load_discriminator",
    "validate_streamable_design",
]
