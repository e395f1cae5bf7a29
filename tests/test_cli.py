"""CLI dispatch and error paths, seed propagation, the registry
subcommand, and serving sessions configured by spec files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
from repro.api.registry import ExperimentSpec, discover, experiments
from repro.exceptions import ConfigurationError
from repro.serve import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    ServeSpec,
    TrafficSpec,
)


def _fake_spec(name, seen):
    """A registry spec whose runner just records the profile it was given."""

    def fake_experiment(profile):
        seen["profile"] = profile

        class _Result:
            def format_table(self):
                return "fake"

        return _Result()

    return ExperimentSpec(name=name, runner=fake_experiment)


class TestExperimentErrorPaths:
    def test_unknown_experiment_exits_2(self, capsys):
        assert cli.main(["run", "table99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "table99" in err

    def test_unknown_experiment_lists_known_ids(self, capsys):
        cli.main(["run", "nope"])
        assert "table1" in capsys.readouterr().err

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigurationError, match="unknown profile"):
            cli.main(["run", "sec7b", "--profile", "mega"])

    def test_list_includes_pipeline(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        # The streaming pipeline is served by `repro serve`.
        assert "pipeline" in out
        assert "'repro serve --help'" in out


class TestSeedPropagation:
    def test_seed_override_reaches_experiment(self, capsys, monkeypatch):
        discover()
        seen = {}
        monkeypatch.setitem(experiments._specs, "sec7b", _fake_spec("sec7b", seen))
        assert cli.main(["run", "sec7b", "--seed", "424242"]) == 0
        assert seen["profile"].seed == 424242
        assert seen["profile"].name == "quick"

    def test_default_profile_seed_preserved(self, capsys, monkeypatch):
        from repro.config import QUICK

        discover()
        seen = {}
        monkeypatch.setitem(experiments._specs, "sec7b", _fake_spec("sec7b", seen))
        assert cli.main(["run", "sec7b"]) == 0
        assert seen["profile"].seed == QUICK.seed

    def test_run_subcommand_seed_override(self, capsys, monkeypatch):
        discover()
        seen = {}
        monkeypatch.setitem(experiments._specs, "sec7b", _fake_spec("sec7b", seen))
        assert cli.main(["run", "sec7b", "--seed", "7", "--workers", "2"]) == 0
        assert seen["profile"].seed == 7


class TestRunSubcommand:
    def test_run_single_experiment_json_schema(self, capsys, tmp_path):
        json_path = tmp_path / "sec7b.json"
        assert cli.main(["run", "sec7b", "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert set(payload) >= {"name", "profile", "measured", "paper", "deviations"}
        assert payload["name"] == "sec7b"
        assert payload["profile"] == "quick"
        assert "reduction" in payload["deviations"]

    def test_run_several_writes_suite_json(self, capsys, tmp_path):
        json_path = tmp_path / "suite.json"
        code = cli.main(
            ["run", "sec7b", "sec7d", "--json", str(json_path), "--workers", "2"]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert set(payload["results"]) == {"sec7b", "sec7d"}
        assert "seconds" in payload

    def test_run_by_tag_selects_tagged_experiments(self, capsys, tmp_path):
        json_path = tmp_path / "fpga.json"
        assert cli.main(["run", "fpga", "--json", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        assert set(payload["results"]) == {"fig1d", "fig5a", "sec7d", "headline"}

    def test_run_unknown_selector_exits_2(self, capsys):
        assert cli.main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "--help"])
        assert excinfo.value.code == 0
        assert "--workers" in capsys.readouterr().out


class TestListSubcommand:
    def test_list_tags_shows_tags_and_refs(self, capsys):
        assert cli.main(["list", "--tags"]) == 0
        out = capsys.readouterr().out
        assert "[qec,timing]" in out
        assert "Table I" in out
        assert "tags:" in out




class TestCommandDispatch:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--shots", "60"],
            ["record", "--out", "corpus"],
            ["replay", "--corpus", "corpus"],
            ["table4", "--profile", "quick"],
        ],
        ids=["pipeline", "record", "replay", "table4"],
    )
    def test_retired_command_is_a_usage_error(self, capsys, argv):
        # Serving is `repro serve --spec`, experiments are `repro run`;
        # a retired command word gets argparse's usage error.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ")
        assert "invalid choice" in err and argv[0] in err

    def test_options_before_the_command_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--seed", "3", "run", "sec7b"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: repro ")

    def test_no_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_help_lists_the_five_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "{run,list,serve,registry,lint}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, code, text",
        [
            (["list"], 0, "available experiments"),
            (["pipeline", "--shots", "60"], 2, "invalid choice"),
            (["serve", "--spec", "missing.json"], 1, "cannot read spec file"),
        ],
        ids=["list", "retired-command", "missing-spec"],
    )
    def test_module_entry_point_exit_codes(self, tmp_path, argv, code, text):
        # Scripts and CI call `python -m repro` and read its exit code: a
        # usage error exits 2, and a ConfigurationError escapes as 1.
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert text in proc.stdout + proc.stderr


@pytest.fixture()
def populated_registry(tmp_path, tiny_corpus):
    """A calibration registry holding one fitted artifact."""
    from repro.discriminators.mlr import MLRDiscriminator
    from repro.pipeline import CalibrationKey, CalibrationRegistry

    registry = CalibrationRegistry(tmp_path / "registry")
    registry.get_or_fit(
        CalibrationKey("chip-cli", "all", "tiny"),
        lambda: MLRDiscriminator(epochs=4, seed=9),
        tiny_corpus,
    )
    return str(registry.root)


class TestRegistrySubcommand:
    def test_prune_size_bound_keeps_artifacts(
        self, capsys, populated_registry
    ):
        # A generous size bound evicts nothing.
        code = cli.main(
            ["registry", "prune", populated_registry,
             "--max-bytes", str(10**9)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 0 artifact(s)" in out
        assert "remaining: 1 artifact(s)" in out

    def test_prune_age_bound_keeps_fresh_artifacts(
        self, capsys, populated_registry
    ):
        code = cli.main(
            ["registry", "prune", populated_registry, "--max-age-s", "3600"]
        )
        assert code == 0
        assert "removed 0 artifact(s)" in capsys.readouterr().out

    def test_prune_without_bounds_clears_registry(
        self, capsys, populated_registry
    ):
        code = cli.main(["registry", "prune", populated_registry])
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 1 artifact(s)" in out
        assert "remaining: 0 artifact(s), 0 bytes" in out

    def test_unknown_action_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["registry", "clear", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.fixture(scope="module")
def shared_registry(tmp_path_factory):
    """One calibration registry shared by the serving-session tests.

    The first session pays the cold fit of each feedline chip; later
    sessions load the stored artifacts.
    """
    return str(tmp_path_factory.mktemp("registry"))


def serve_json(
    tmp_path: Path, name: str, spec: ServeSpec, *argv: str
) -> dict:
    """``repro serve --spec`` on ``spec``; returns the session record."""
    spec_file = spec.to_file(tmp_path / f"{name}-spec.json")
    out = tmp_path / f"{name}.json"
    code = cli.main(
        ["serve", "--spec", str(spec_file), "--json", str(out), *argv]
    )
    assert code == 0
    return json.loads(out.read_text())


def session_spec(registry: str, feedlines: int = 1, **traffic) -> ServeSpec:
    """A light two-qubit session on ``registry``."""
    return ServeSpec(
        traffic=TrafficSpec(shots=60, chunk_size=30, **traffic),
        cluster=ClusterSpec(
            feedlines=feedlines, executor="serial", qubits_per_feedline=2
        ),
        batching=BatchingSpec(batch_size=30),
        calibration=CalibrationSpec(registry_dir=registry),
    )


class TestServeSpecSessions:
    def test_second_invocation_on_a_registry_is_served_warm(
        self, capsys, tmp_path, shared_registry
    ):
        spec = session_spec(shared_registry)
        serve_json(tmp_path, "first", spec)
        capsys.readouterr()
        record = serve_json(tmp_path, "second", spec)
        assert "(0 cold fit(s))" in capsys.readouterr().out
        assert record["service"]["cold_fits"] == 0
        assert record["service"]["runs"][0]["calibration_cached"] is True
        (run,) = record["runs"]
        feedline = run["feedlines"]["feedline-0"]
        assert feedline["calibration_cached"] is True
        assert feedline["n_shots"] == run["n_shots"] == 60
        assert list(feedline["stages"]) == [
            "matched_filter", "discriminate", "sink",
        ]
        assert feedline["details"]["batch_size"] == 30

    def test_two_feedline_session_writes_per_feedline_reports(
        self, tmp_path, shared_registry
    ):
        spec = session_spec(shared_registry, feedlines=2)
        (run,) = serve_json(tmp_path, "pair", spec)["runs"]
        assert run["n_feedlines"] == 2 and run["n_shots"] == 120
        assert run["executor"] == "serial"
        assert set(run["budget_verdicts"]) == set(run["feedlines"])
        for feedline in run["feedlines"].values():
            assert feedline["details"]["batch_size"] == 30


class TestRecordReplaySpecs:
    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory, shared_registry):
        """One recording session: (corpus path, feedline-0's report)."""
        root = tmp_path_factory.mktemp("cli-record")
        corpus = root / "corpus"
        spec = session_spec(shared_registry, record_path=str(corpus))
        (run,) = serve_json(root, "record", spec)["runs"]
        return corpus, run["feedlines"]["feedline-0"]

    def test_record_path_writes_a_corpus(self, recorded):
        corpus, report = recorded
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["n_shots"] == report["n_shots"] == 60
        assert manifest["labeled"] is True
        assert len(manifest["chip_sha"]) == 40

    def test_replay_reproduces_recorded_counts(
        self, recorded, tmp_path, shared_registry
    ):
        corpus, report = recorded
        spec = session_spec(
            shared_registry, backend="replay", corpus_path=str(corpus)
        )
        (run,) = serve_json(tmp_path, "replay", spec)["runs"]
        replayed = run["feedlines"]["feedline-0"]
        assert replayed["assignment_counts"] == report["assignment_counts"]
        assert replayed["accuracy"] == report["accuracy"]

    def test_two_feedline_broadcast_replay(
        self, recorded, tmp_path, shared_registry
    ):
        corpus, _ = recorded
        spec = session_spec(
            shared_registry,
            feedlines=2,
            backend="replay",
            corpus_path=str(corpus),
        )
        (run,) = serve_json(tmp_path, "broadcast", spec)["runs"]
        assert run["n_feedlines"] == 2 and run["n_shots"] == 120
        for feedline in run["feedlines"].values():
            assert feedline["n_shots"] == feedline["sink"]["shots_seen"] == 60

    def test_record_path_holding_a_corpus_is_refused(
        self, recorded, tmp_path, shared_registry
    ):
        corpus, _ = recorded
        spec = session_spec(shared_registry, record_path=str(corpus))
        with pytest.raises(ConfigurationError):
            serve_json(tmp_path, "again", spec)

    def test_missing_replay_corpus_names_manifest(
        self, tmp_path, shared_registry
    ):
        spec = session_spec(
            shared_registry,
            backend="replay",
            corpus_path=str(tmp_path / "nowhere"),
        )
        with pytest.raises(ConfigurationError, match="manifest.json"):
            serve_json(tmp_path, "missing", spec)
