"""The programmatic front door to the reproduction.

Everything the CLI can do is available as a library call::

    from repro.api import run, run_suite, experiments

    result = run("table4", profile="quick")
    print(result.format_table())
    print(result.to_json())                  # measured vs paper, diffable

    suite = run_suite(tags=["fpga"], workers=2)
    for name, res in suite.results.items():
        print(name, res.deviations())

Pieces
------
- :data:`experiments` — the :class:`ExperimentRegistry`; every
  ``repro.experiments.*`` module registers itself via the
  :func:`experiment` decorator, and :func:`discover` imports them all.
- :class:`ExperimentResult` — the uniform result base: ``measured``,
  ``paper_values``, ``deviations()``, ``to_dict()``/``to_json()`` on top
  of ``format_table()``.
- :func:`run` / :func:`run_suite` — execute one experiment or a
  name/tag selection (optionally concurrent, with shared caches).
- The streaming runtime is driven by a :class:`repro.serve.ServeSpec`:
  :func:`repro.serve.serve_once` for one run, a
  :class:`repro.serve.ReadoutService` to amortize warm-up across runs.
- ``repro.discriminators.registry`` — the sibling plugin registry that
  resolves design names (``"ours"``, ``"fnn"``, ...) to discriminator
  classes for training, pipeline calibration, and artifact loading.
"""

from repro.api.registry import (
    ExperimentRegistry,
    ExperimentSpec,
    discover,
    experiment,
    experiments,
)
from repro.api.results import ExperimentResult, jsonify
from repro.api.suite import SuiteEntry, SuiteResult, run, run_suite

__all__ = [
    "ExperimentRegistry",
    "ExperimentSpec",
    "ExperimentResult",
    "SuiteEntry",
    "SuiteResult",
    "discover",
    "experiment",
    "experiments",
    "jsonify",
    "run",
    "run_suite",
]
