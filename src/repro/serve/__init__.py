"""Declarative serving: one spec, one warm session, many runs.

The serving counterpart of :mod:`repro.api`: this package makes the
paper's *persistent* datapath explicit:

- :mod:`repro.serve.spec` — :class:`ServeSpec`, the frozen, composable,
  JSON round-trip-stable configuration layer (:class:`TrafficSpec` /
  :class:`ClusterSpec` / :class:`BatchingSpec` / :class:`CalibrationSpec`
  / :class:`DriftSpec` / :class:`RecalibrationSpec`) with exhaustive
  all-errors-at-once validation. The per-feedline ``PipelineConfig``
  is derived from it, and ``repro serve`` loads it from a JSON file.
- :mod:`repro.serve.service` — :class:`ReadoutService`, the long-lived
  session: ``warm()`` once (pre-fit/load all discriminators in the
  feedline workers that keep them, forking the process shards), then
  ``run()`` repeatedly with zero refits and no per-run set-up — unless
  a run's online drift score trips the alarm and the spec's
  recalibration is enabled, in which case the workers refit and the
  service hot-swaps the next artifact version without dropping the
  session — accumulating cumulative :class:`ServiceStats`.
  :func:`serve_once` is the one turnkey entry point: warm, run once,
  tear down. Every run returns a
  :class:`~repro.pipeline.cluster.ClusterReport`, one feedline or many.

CLI: ``repro serve --spec spec.json [--shots N] [--seed S] [--repeat K]
[--json PATH]`` is the one serving command; recording and replay are
``traffic.record_path`` and ``traffic.backend = "replay"`` in the spec.
"""

from repro.serve.service import (
    ReadoutService,
    RunStats,
    ServiceStats,
    serve_once,
)
from repro.serve.spec import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    DriftSpec,
    RecalibrationSpec,
    ServeSpec,
    TrafficSpec,
)

__all__ = [
    "BatchingSpec",
    "CalibrationSpec",
    "ClusterSpec",
    "DriftSpec",
    "ReadoutService",
    "RecalibrationSpec",
    "RunStats",
    "ServeSpec",
    "ServiceStats",
    "TrafficSpec",
    "serve_once",
]
