"""Smoke tests: every examples/*.py main runs clean at its quick sizing,
and every examples/*.json serving spec loads.

The examples are documentation that executes; each is imported from its
file path and its ``main()`` run with stdout captured, so a refactor that
breaks an example's imports or API usage fails the suite instead of the
next reader. The spec files are what ``repro serve --spec`` reads.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.physics.drift import DEMO_DRIFT
from repro.serve import ServeSpec

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_PATHS = sorted(EXAMPLES_DIR.glob("*.py"))


def _load_example(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_found():
    assert EXAMPLE_PATHS, f"no examples found under {EXAMPLES_DIR}"


@pytest.mark.parametrize(
    "path", EXAMPLE_PATHS, ids=[p.stem for p in EXAMPLE_PATHS]
)
def test_example_main_runs(path, capsys):
    module = _load_example(path)
    assert hasattr(module, "main"), f"{path.name} has no main()"
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} produced no output"


SPEC_PATHS = sorted(EXAMPLES_DIR.glob("*.json"))


def test_example_specs_found():
    assert {path.name for path in SPEC_PATHS} >= {
        "serve_spec.json",
        "serve_spec_drift_demo.json",
        "record_spec.json",
        "replay_spec.json",
    }


@pytest.mark.parametrize(
    "path", SPEC_PATHS, ids=[p.stem for p in SPEC_PATHS]
)
def test_example_spec_round_trips(path):
    spec = ServeSpec.from_file(path)
    assert ServeSpec.from_dict(spec.to_dict()) == spec


def test_drift_demo_spec_is_serve_spec_with_demo_drift():
    base = ServeSpec.from_file(EXAMPLES_DIR / "serve_spec.json").to_dict()
    demo = ServeSpec.from_file(
        EXAMPLES_DIR / "serve_spec_drift_demo.json"
    ).to_dict()
    assert demo["drift"] == DEMO_DRIFT.to_dict()
    assert demo["recalibration"]["enabled"] is True
    base["drift"] = DEMO_DRIFT.to_dict()
    base["recalibration"]["enabled"] = True
    assert demo == base
