"""Declarative serving: one spec, one warm session, many runs.

The serving counterpart of :mod:`repro.api`: this package makes the
paper's *persistent* datapath explicit:

- :mod:`repro.serve.spec` — :class:`ServeSpec`, the frozen, composable,
  JSON round-trip-stable configuration layer (:class:`TrafficSpec` /
  :class:`ClusterSpec` / :class:`BatchingSpec` / :class:`CalibrationSpec`
  / :class:`DriftSpec` / :class:`RecalibrationSpec`) with exhaustive
  all-errors-at-once validation. Every other configuration surface
  (``PipelineConfig``, ``repro pipeline`` flags) is derived from it.
- :mod:`repro.serve.service` — :class:`ReadoutService`, the long-lived
  session: ``warm()`` once (pre-fit/load all discriminators in the
  feedline workers that keep them, forking the process shards), then
  ``run()`` repeatedly with zero refits and no per-run set-up — unless
  a run's online drift score trips the alarm and the spec's
  recalibration is enabled, in which case the workers refit and the
  service hot-swaps the next artifact version without dropping the
  session — accumulating cumulative :class:`ServiceStats`.
  :func:`serve_once` is the one turnkey entry point: warm, run once,
  tear down.

CLI: ``repro serve --spec spec.json [--shots N] [--repeat K] [--json]``.
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
