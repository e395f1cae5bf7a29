"""CLI error paths, seed propagation, and the pipeline subcommand."""

from __future__ import annotations

import json

import pytest

import repro.cli as cli
from repro.api.registry import ExperimentSpec, discover, experiments
from repro.exceptions import ConfigurationError


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
        assert cli.main(["table99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "table99" in err

    def test_unknown_experiment_lists_known_ids(self, capsys):
        cli.main(["nope"])
        assert "table1" in capsys.readouterr().err

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigurationError, match="unknown profile"):
            cli.main(["sec7b", "--profile", "mega"])

    def test_list_includes_pipeline(self, capsys):
        assert cli.main(["list"]) == 0
        assert "pipeline" in capsys.readouterr().out


class TestSeedPropagation:
    def test_seed_override_reaches_experiment(self, capsys, monkeypatch):
        discover()
        seen = {}
        monkeypatch.setitem(experiments._specs, "sec7b", _fake_spec("sec7b", seen))
        assert cli.main(["sec7b", "--seed", "424242"]) == 0
        assert seen["profile"].seed == 424242
        assert seen["profile"].name == "quick"

    def test_default_profile_seed_preserved(self, capsys, monkeypatch):
        from repro.config import QUICK

        discover()
        seen = {}
        monkeypatch.setitem(experiments._specs, "sec7b", _fake_spec("sec7b", seen))
        assert cli.main(["sec7b"]) == 0
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


@pytest.fixture(scope="module")
def shared_registry(tmp_path_factory):
    """One on-disk calibration registry reused across the CLI tests.

    The first pipeline test pays the single cold fit; later tests run warm.
    """
    return str(tmp_path_factory.mktemp("registry"))


class TestPipelineSubcommand:
    def test_pipeline_streams_and_writes_json(
        self, capsys, tmp_path, shared_registry
    ):
        json_path = tmp_path / "report.json"
        code = cli.main(
            [
                "pipeline",
                "--shots",
                "150",
                "--batch-size",
                "50",
                "--profile",
                "quick",
                "--registry",
                shared_registry,
                "--json",
                str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "streaming readout pipeline" in out
        assert "shots/s" in out
        payload = json.loads(json_path.read_text())
        assert payload["n_shots"] == 150
        for stage in ("matched_filter", "discriminate", "sink"):
            assert stage in payload["stages"]
        assert "demod" not in payload["stages"]

    def test_pipeline_warm_run_uses_registry(self, capsys, shared_registry):
        args = ["pipeline", "--shots", "60", "--registry", shared_registry]
        assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        assert "warm (loaded)" in capsys.readouterr().out

    def test_pipeline_rejects_bad_shots(self, tmp_path):
        with pytest.raises(ConfigurationError):
            cli.main(["pipeline", "--shots", "0", "--no-cache"])

    def test_pipeline_unknown_profile_raises(self):
        with pytest.raises(ConfigurationError, match="unknown profile"):
            cli.main(["pipeline", "--profile", "mega"])

    def test_pipeline_help_shows_pipeline_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["pipeline", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--shots" in out
        assert "--registry" in out
        assert "--feedlines" in out
        assert "--executor" in out
        assert "--batch-size" in out

    def test_pipeline_multi_feedline_streams_and_writes_json(
        self, capsys, tmp_path
    ):
        json_path = tmp_path / "cluster.json"
        code = cli.main(
            [
                "pipeline",
                "--feedlines", "2",
                "--executor", "serial",
                "--qubits-per-feedline", "2",
                "--shots", "60",
                "--batch-size", "30",
                "--chunk-size", "30",
                "--no-cache",
                "--json", str(json_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "multi-feedline pipeline" in out
        assert "global throughput" in out
        payload = json.loads(json_path.read_text())
        assert payload["n_feedlines"] == 2
        assert payload["n_shots"] == 120
        assert payload["executor"] == "serial"
        assert set(payload["budget_verdicts"]) == set(payload["feedlines"])
        for feedline in payload["feedlines"].values():
            for stage in ("matched_filter", "discriminate", "sink"):
                assert stage in feedline["stages"]
            assert feedline["details"]["batch_size"] == 30

    @pytest.mark.parametrize(
        "argv",
        [
            ["--adaptive-batching"],
            ["--max-batch-size", "256"],
            ["--target-batch-ms", "4"],
        ],
        ids=["adaptive-batching", "max-batch-size", "target-batch-ms"],
    )
    def test_pipeline_rejects_retired_batching_flags(self, capsys, argv):
        # Micro-batches are fixed at --batch-size; the adaptive flags
        # are gone, so scripts that still pass them fail loudly.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["pipeline", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pipeline_rejects_unknown_executor(self, capsys):
        for executor in ("gpu", "thread"):
            with pytest.raises(SystemExit):
                cli.main(
                    ["pipeline", "--feedlines", "2", "--executor", executor]
                )
            assert f"invalid choice: {executor!r}" in capsys.readouterr().err

    def test_pipeline_dispatches_with_options_first(self, capsys, shared_registry):
        code = cli.main(
            ["--profile", "quick", "pipeline", "--shots", "60",
             "--registry", shared_registry]
        )
        assert code == 0
        assert "streaming readout pipeline" in capsys.readouterr().out

    def test_pipeline_prune_size_bound_keeps_artifacts(
        self, capsys, shared_registry
    ):
        # A generous size bound evicts nothing.
        code = cli.main(
            ["pipeline", "--prune", "--registry", shared_registry,
             "--max-bytes", str(10**9)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 0 artifact(s)" in out

    def test_pipeline_prune_without_bounds_clears_registry(
        self, capsys, shared_registry
    ):
        code = cli.main(["pipeline", "--prune", "--registry", shared_registry])
        assert code == 0
        out = capsys.readouterr().out
        assert "removed 1 artifact(s)" in out
        assert "remaining: 0 artifact(s), 0 bytes" in out


class TestRecordReplaySubcommands:
    @pytest.fixture(scope="class")
    def recorded_cli(self, tmp_path_factory):
        """One `repro record` run shared by the round-trip tests."""
        root = tmp_path_factory.mktemp("cli-record")
        corpus = root / "corpus"
        json_path = root / "record.json"
        code = cli.main(
            ["record", "--out", str(corpus), "--shots", "120",
             "--chunk-size", "60", "--qubits-per-feedline", "2",
             "--json", str(json_path)]
        )
        assert code == 0
        return corpus, json.loads(json_path.read_text())

    def test_record_writes_corpus_and_json_schema(
        self, recorded_cli, capsys
    ):
        corpus, payload = recorded_cli
        assert set(payload) == {"corpus", "report"}
        assert payload["corpus"]["format_version"] == 1
        assert payload["corpus"]["n_shots"] == 120
        assert payload["corpus"]["labeled"] is True
        assert payload["report"]["n_shots"] == 120
        assert (corpus / "manifest.json").is_file()

    def test_replay_reproduces_recorded_counts(
        self, recorded_cli, tmp_path, capsys
    ):
        corpus, recorded_payload = recorded_cli
        json_path = tmp_path / "replay.json"
        code = cli.main(
            ["replay", "--corpus", str(corpus),
             "--qubits-per-feedline", "2", "--json", str(json_path)]
        )
        assert code == 0
        assert "[replay]" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert set(payload) == {"corpus", "report"}
        assert (
            payload["corpus"]["chip_sha"]
            == recorded_payload["corpus"]["chip_sha"]
        )
        assert (
            payload["report"]["assignment_counts"]
            == recorded_payload["report"]["assignment_counts"]
        )

    def test_replay_broadcasts_over_feedlines(self, recorded_cli, capsys):
        corpus, recorded_payload = recorded_cli
        code = cli.main(
            ["replay", "--corpus", str(corpus), "--feedlines", "2",
             "--executor", "serial", "--qubits-per-feedline", "2"]
        )
        assert code == 0
        assert "[replay]" in capsys.readouterr().out

    def test_record_prints_corpus_location(self, recorded_cli, capsys):
        corpus, _ = recorded_cli
        # The fixture already ran; a fresh run must refuse to overwrite.
        with pytest.raises(ConfigurationError):
            cli.main(
                ["record", "--out", str(corpus), "--shots", "60",
                 "--qubits-per-feedline", "2"]
            )

    def test_replay_missing_corpus_names_manifest(self, tmp_path):
        with pytest.raises(ConfigurationError, match="manifest.json"):
            cli.main(["replay", "--corpus", str(tmp_path / "nowhere")])

    def test_record_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["record", "--help"])
        assert excinfo.value.code == 0
        assert "--out" in capsys.readouterr().out

    def test_replay_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["replay", "--help"])
        assert excinfo.value.code == 0
        assert "--corpus" in capsys.readouterr().out

    def test_record_listed_in_repro_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "repro record" in out
        assert "repro replay" in out
