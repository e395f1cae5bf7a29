"""repro.serve: spec round-trips, exhaustive validation, warm sessions,
the `repro serve` CLI, cross-process fit deduplication, and sessions
sharing one registry."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

import pytest

import repro.cli as cli
from repro.config import QUICK, Profile
from repro.discriminators.mlr import MLRDiscriminator
from repro.exceptions import ConfigurationError, DataError
from repro.pipeline import (
    CalibrationKey,
    CalibrationRegistry,
    ClusterReport,
    MultiFeedlineRunner,
    PipelineReport,
)
from repro.serve import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    DriftSpec,
    ReadoutService,
    RecalibrationSpec,
    ServeSpec,
    ServiceStats,
    TrafficSpec,
    serve_once,
)


def tiny_profile(**overrides) -> Profile:
    """A fast sizing profile for serving tests (not a named CLI profile)."""
    params = dict(
        name="tiny",
        shots_per_state=10,
        calibration_shots=100,
        nn_epochs=8,
        fnn_epochs=2,
        batch_size=64,
        qec_shots=10,
        qudit_shots=10,
        spectral_max_points=100,
        seed=701,
    )
    params.update(overrides)
    return Profile(**params)


def feedline_0(report: ClusterReport) -> PipelineReport:
    """The first feedline's report: all of a one-feedline session."""
    return report.feedline_reports["feedline-0"]


def tiny_spec(**calibration) -> ServeSpec:
    """A light two-qubit single-feedline spec for fast service tests."""
    return ServeSpec(
        traffic=TrafficSpec(shots=40, chunk_size=20),
        cluster=ClusterSpec(qubits_per_feedline=2),
        batching=BatchingSpec(batch_size=20),
        calibration=CalibrationSpec(**calibration),
    )


class TestServeSpecRoundTrip:
    def test_default_spec_dict_round_trip(self):
        spec = ServeSpec()
        assert ServeSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_serializable(self):
        payload = json.dumps(ServeSpec().to_dict())
        assert ServeSpec.from_dict(json.loads(payload)) == ServeSpec()

    def test_non_default_spec_round_trips_every_field(self):
        spec = ServeSpec(
            traffic=TrafficSpec(shots=7, chunk_size=3, seed=42),
            cluster=ClusterSpec(
                feedlines=3,
                executor="process",
                workers=2,
                qubits_per_feedline=2,
            ),
            batching=BatchingSpec(batch_size=9),
            calibration=CalibrationSpec(
                profile="full",
                design="herqules",
                registry_dir="/tmp/reg",
                seed=13,
            ),
        )
        assert ServeSpec.from_dict(spec.to_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = ServeSpec(traffic=TrafficSpec(shots=11))
        path = spec.to_file(tmp_path / "spec.json")
        assert ServeSpec.from_file(path) == spec

    def test_backend_fields_round_trip(self):
        spec = ServeSpec(
            traffic=TrafficSpec(
                shots=7,
                chunk_size=3,
                backend="replay",
                corpus_path="/tmp/corpus",
            )
        )
        clone = ServeSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.traffic.backend == "replay"
        assert clone.traffic.corpus_path == "/tmp/corpus"

    def test_missing_sections_take_defaults(self):
        spec = ServeSpec.from_dict({"traffic": {"shots": 5}})
        assert spec.traffic.shots == 5
        assert spec.cluster == ClusterSpec()
        assert spec.batching == BatchingSpec()

    def test_with_traffic_returns_modified_copy(self):
        spec = ServeSpec()
        bumped = spec.with_traffic(shots=123)
        assert bumped.traffic.shots == 123
        assert spec.traffic.shots == 2000
        assert bumped.cluster == spec.cluster


class TestServeSpecValidation:
    def test_from_dict_reports_every_problem_at_once(self):
        # "thread" is not an executor: old spec files that still name it
        # fail by name, like any unknown executor.
        for executor in ("gpu", "thread"):
            bad = {
                "traffic": {"shots": 0, "chunk_size": -2, "bogus": 1},
                # channel_workers is a retired knob: old spec files that
                # still set it fail loudly instead of being ignored.
                "cluster": {"feedlines": 0, "executor": executor,
                            "channel_workers": 2},
                # So are the adaptive-batching fields: batches are fixed.
                "batching": {"batch_size": 0, "adaptive": True,
                             "max_batch_size": 256, "target_batch_ms": None},
                "calibration": {"design": ""},
                "networking": {},
            }
            with pytest.raises(ConfigurationError) as excinfo:
                ServeSpec.from_dict(bad)
            message = str(excinfo.value)
            for fragment in (
                "traffic.shots",
                "traffic.chunk_size",
                "traffic.bogus",
                "cluster.feedlines",
                "cluster.executor must be one of: serial, process; "
                f"got {executor!r}",
                "cluster.channel_workers: unknown field",
                "batching.batch_size",
                "batching.adaptive: unknown field",
                "batching.max_batch_size: unknown field",
                "batching.target_batch_ms: unknown field",
                "calibration.design",
                "networking: unknown section",
            ):
                assert fragment in message, fragment

    def test_retired_max_pending_is_an_unknown_field(self):
        # The default sink runs inline and has no queue to size: a spec
        # file that still sets the field fails by name.
        with pytest.raises(
            ConfigurationError, match="batching.max_pending: unknown field"
        ):
            ServeSpec.from_dict(
                {"batching": {"batch_size": 256, "max_pending": 8}}
            )

    def test_direct_section_construction_reports_all_its_fields(self):
        with pytest.raises(ConfigurationError) as excinfo:
            TrafficSpec(shots=0, chunk_size=0)
        assert "shots" in str(excinfo.value)
        assert "chunk_size" in str(excinfo.value)

    def test_type_errors_are_flagged_not_crashed(self):
        with pytest.raises(ConfigurationError, match="traffic.shots"):
            ServeSpec.from_dict({"traffic": {"shots": "many"}})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigurationError, match="shots"):
            TrafficSpec(shots=True)

    @pytest.mark.parametrize("seed", [-1, -42, -(2**31)])
    @pytest.mark.parametrize(
        "section", [TrafficSpec, CalibrationSpec], ids=["traffic", "calib"]
    )
    def test_negative_seed_rejected(self, section, seed):
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            section(seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2**31])
    def test_non_negative_seed_accepted(self, seed):
        assert TrafficSpec(seed=seed).seed == seed

    def test_unknown_backend_rejected(self):
        with pytest.raises(
            ConfigurationError, match="backend must be one of"
        ):
            TrafficSpec(backend="warp-core")

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"backend": "replay"}, "corpus_path"),
            (
                {"backend": "simulator", "corpus_path": "/c"},
                "corpus_path",
            ),
            ({"backend": "socket"}, "socket_path"),
            (
                {"backend": "dummy", "socket_path": "/s"},
                "socket_path",
            ),
            (
                {
                    "backend": "replay",
                    "corpus_path": "/c",
                    "record_path": "/r",
                },
                "record_path",
            ),
        ],
    )
    def test_backend_cross_field_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            TrafficSpec(**kwargs)

    def test_backend_problems_reported_alongside_field_problems(self):
        bad = {"traffic": {"shots": 0, "backend": "replay"}}
        with pytest.raises(ConfigurationError) as excinfo:
            ServeSpec.from_dict(bad)
        message = str(excinfo.value)
        assert "traffic.shots" in message
        assert "corpus_path" in message

    def test_drift_requires_simulator_backend(self):
        from repro.serve import DriftSpec

        with pytest.raises(ConfigurationError, match="drift"):
            ServeSpec(
                traffic=TrafficSpec(backend="dummy"),
                drift=DriftSpec(t1_decay_per_kshot=0.1),
            )

    @pytest.mark.parametrize(
        "traffic_kwargs,match",
        [
            ({"backend": "dummy"}, "backend"),
            ({"backend": "socket", "socket_path": "/s"}, "backend"),
            ({"record_path": "/r"}, "record_path"),
        ],
    )
    def test_multi_feedline_backend_restrictions(
        self, traffic_kwargs, match
    ):
        with pytest.raises(ConfigurationError, match=match):
            ServeSpec(
                traffic=TrafficSpec(**traffic_kwargs),
                cluster=ClusterSpec(feedlines=2, qubits_per_feedline=2),
            )

    def test_multi_feedline_replay_is_allowed(self):
        spec = ServeSpec(
            traffic=TrafficSpec(backend="replay", corpus_path="/c"),
            cluster=ClusterSpec(feedlines=2, qubits_per_feedline=2),
        )
        assert spec.traffic.backend == "replay"

    def test_unknown_executor_rejected(self):
        for executor in ("gpu", "thread"):
            with pytest.raises(ConfigurationError, match="executor"):
                ClusterSpec(executor=executor)

    def test_sections_must_be_spec_instances(self):
        with pytest.raises(ConfigurationError, match="traffic"):
            ServeSpec(traffic={"shots": 5})

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ServeSpec.from_file(path)

    def test_from_file_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ServeSpec.from_file(tmp_path / "nope.json")


class TestServeSpecDerivation:
    def test_resolved_profile_by_name_with_seed(self):
        spec = ServeSpec(
            calibration=CalibrationSpec(profile="quick", seed=999)
        )
        profile = spec.resolved_profile()
        assert profile.name == "quick"
        assert profile.seed == 999
        assert profile.shots_per_state == QUICK.shots_per_state

    def test_resolved_profile_override_instance_wins(self):
        spec = ServeSpec(calibration=CalibrationSpec(profile="quick"))
        override = tiny_profile()
        assert spec.resolved_profile(override) is override

    def test_resolved_profile_unknown_name_raises(self):
        spec = ServeSpec(calibration=CalibrationSpec(profile="mega"))
        with pytest.raises(ConfigurationError, match="unknown profile"):
            spec.resolved_profile()

    def test_pipeline_config_mapping(self):
        spec = ServeSpec(
            batching=BatchingSpec(batch_size=32),
            recalibration=RecalibrationSpec(threshold=0.2, min_shots=7),
        )
        config = spec.pipeline_config()
        assert config.batch_size == 32
        assert config.drift_threshold == 0.2
        assert config.drift_min_shots == 7


class TestReadoutServiceWarmReuse:
    """The fit-once contract, extended to whole serving sessions."""

    def test_second_run_never_refits_single_feedline(
        self, tmp_path, monkeypatch
    ):
        fits: list[int] = []
        original_fit = MLRDiscriminator.fit

        def counting_fit(self, corpus, indices):
            fits.append(1)
            return original_fit(self, corpus, indices)

        monkeypatch.setattr(MLRDiscriminator, "fit", counting_fit)
        spec = tiny_spec(registry_dir=str(tmp_path / "registry"))
        with ReadoutService(spec, profile=tiny_profile()) as service:
            first = feedline_0(service.run())
            assert len(fits) == 1, "warm-up performs the one cold fit"
            second = feedline_0(service.run())
        assert len(fits) == 1, "a warmed service must never refit"
        assert first.calibration_cached is False
        assert second.calibration_cached is True
        # Default traffic seed: both runs replay identical traffic.
        assert first.assignment_counts == second.assignment_counts

    def test_multi_feedline_session_fits_once_per_feedline(
        self, tmp_path, monkeypatch
    ):
        fits: list[int] = []
        original_fit = MLRDiscriminator.fit

        def counting_fit(self, corpus, indices):
            fits.append(1)
            return original_fit(self, corpus, indices)

        monkeypatch.setattr(MLRDiscriminator, "fit", counting_fit)
        spec = ServeSpec(
            traffic=TrafficSpec(shots=30, chunk_size=15),
            cluster=ClusterSpec(
                feedlines=2, executor="serial", qubits_per_feedline=2
            ),
            batching=BatchingSpec(batch_size=15),
            calibration=CalibrationSpec(
                registry_dir=str(tmp_path / "registry")
            ),
        )
        with ReadoutService(spec, profile=tiny_profile()) as service:
            first = service.run()
            second = service.run()
            assert service.stats.cold_fits == 2
        assert len(fits) == 2, "one fit per feedline, all during warm-up"
        assert isinstance(first, ClusterReport)
        # Cycle-cost semantics, identical to the single-feedline path:
        # the cycle's first run carries its cold fits, later runs are
        # warm — in the session stats and in the reports themselves.
        assert [
            run.calibration_cached for run in service.stats.runs
        ] == [False, True]
        assert not any(
            r.calibration_cached for r in first.feedline_reports.values()
        )
        assert all(
            r.calibration_cached for r in second.feedline_reports.values()
        )

    def test_sessions_share_a_warm_registry(self, tmp_path, monkeypatch):
        fits: list[int] = []
        original_fit = MLRDiscriminator.fit

        def counting_fit(self, corpus, indices):
            fits.append(1)
            return original_fit(self, corpus, indices)

        monkeypatch.setattr(MLRDiscriminator, "fit", counting_fit)
        spec = tiny_spec(registry_dir=str(tmp_path / "registry"))
        serve_once(spec, profile=tiny_profile())
        assert len(fits) == 1
        with ReadoutService(spec, profile=tiny_profile()) as service:
            report = service.run()
        assert len(fits) == 1, "second session loads the stored artifact"
        assert service.stats.cold_fits == 0
        assert feedline_0(report).calibration_cached is True

    def test_session_private_registry_created_and_cleaned(self):
        spec = ServeSpec(
            traffic=TrafficSpec(shots=20, chunk_size=10),
            cluster=ClusterSpec(
                feedlines=2, executor="serial", qubits_per_feedline=2
            ),
            batching=BatchingSpec(batch_size=10),
        )
        service = ReadoutService(spec, profile=tiny_profile())
        service.warm()
        private_root = service.registry_dir
        assert private_root is not None and Path(private_root).is_dir()
        service.run()
        service.close()
        assert not Path(private_root).exists()
        assert service.registry_dir is None

    def test_warm_forks_every_process_shard_before_any_run(self, tmp_path):
        spec = ServeSpec(
            cluster=ClusterSpec(
                feedlines=2,
                executor="process",
                workers=2,
                qubits_per_feedline=2,
            ),
            calibration=CalibrationSpec(
                registry_dir=str(tmp_path / "registry")
            ),
        )
        with ReadoutService(spec, profile=tiny_profile()) as service:
            shards = service._runner._pool._processes
            assert service.stats.n_runs == 0
            assert len(shards) == 2
            assert all(shard.is_alive() for shard in shards)

    def test_failed_warm_releases_pool_and_temp_registry(self, monkeypatch):
        from repro.exceptions import DataError
        from repro.pipeline.cluster import MultiFeedlineRunner

        seen = {}
        def failing_prefit(runner_self):
            seen["registry"] = runner_self.registry_dir
            raise DataError("corpus generation exploded")

        monkeypatch.setattr(MultiFeedlineRunner, "prefit", failing_prefit)
        spec = ServeSpec(
            cluster=ClusterSpec(
                feedlines=2, executor="process", qubits_per_feedline=2
            )
        )
        service = ReadoutService(spec, profile=tiny_profile())
        with pytest.raises(DataError):
            service.warm()
        # The spawned pool and the session-private registry are released.
        assert service._runner is None
        assert service.registry_dir is None
        assert not Path(seen["registry"]).exists()

    def test_run_auto_warms_and_close_allows_rewarm(self, tmp_path):
        spec = tiny_spec(registry_dir=str(tmp_path / "registry"))
        service = ReadoutService(spec, profile=tiny_profile())
        report = service.run()  # implicit warm()
        assert report.n_shots == 40
        service.close()
        rewarmed = service.run(shots=20)
        assert rewarmed.n_shots == 20
        service.close()

    def test_rewarmed_session_reports_cold_first_run_again(self):
        # close() drops the warm state; with no registry the next cycle
        # refits, and that cycle's first run must report cold — lifetime
        # run counts from earlier cycles must not mask it.
        spec = tiny_spec()
        service = ReadoutService(spec, profile=tiny_profile())
        assert feedline_0(service.run()).calibration_cached is False
        service.close()
        assert feedline_0(service.run()).calibration_cached is False
        assert feedline_0(service.run()).calibration_cached is True
        service.close()
        assert service.stats.cold_fits == 2, "cumulative across cycles"

    def test_rewarm_accumulates_warm_seconds(self, tmp_path):
        spec = tiny_spec(registry_dir=str(tmp_path / "registry"))
        service = ReadoutService(spec, profile=tiny_profile())
        service.warm()
        first_cycle = service.stats.warm_seconds
        service.close()
        service.warm()
        assert service.stats.warm_seconds > first_cycle
        service.close()

    def test_run_rejects_bad_shots(self, tmp_path):
        spec = tiny_spec(registry_dir=str(tmp_path / "registry"))
        with ReadoutService(spec, profile=tiny_profile()) as service:
            with pytest.raises(ConfigurationError, match="shots"):
                service.run(shots=0)

    def test_rejects_non_mlr_design(self):
        spec = tiny_spec(design="fnn")
        with pytest.raises(ConfigurationError, match="MLR family"):
            ReadoutService(spec, profile=tiny_profile()).warm()

    def test_rejects_non_spec(self):
        with pytest.raises(ConfigurationError, match="ServeSpec"):
            ReadoutService({"traffic": {}})

    def test_one_feedline_serves_what_cluster_feedline_0_serves(self):
        def spec(feedlines: int) -> ServeSpec:
            return ServeSpec(
                traffic=TrafficSpec(shots=60, chunk_size=30),
                cluster=ClusterSpec(
                    feedlines=feedlines,
                    executor="serial",
                    qubits_per_feedline=2,
                ),
                batching=BatchingSpec(batch_size=30),
            )

        with ReadoutService(spec(1), profile=tiny_profile()) as service:
            alone = feedline_0(service.run())
        with ReadoutService(spec(2), profile=tiny_profile()) as service:
            member = feedline_0(service.run())
        assert alone.assignment_counts == member.assignment_counts
        assert alone.accuracy == member.accuracy

    @pytest.mark.parametrize("feedlines", [1, 2])
    def test_run_returns_a_cluster_report(self, feedlines):
        spec = ServeSpec(
            traffic=TrafficSpec(shots=30, chunk_size=15),
            cluster=ClusterSpec(
                feedlines=feedlines, executor="serial", qubits_per_feedline=2
            ),
            batching=BatchingSpec(batch_size=15),
        )
        with ReadoutService(spec, profile=tiny_profile()) as service:
            report = service.run()
            run = service.stats.runs[-1]
        # One shape out: a one-feedline session is a one-feedline cluster.
        assert isinstance(report, ClusterReport)
        names = [f"feedline-{i}" for i in range(feedlines)]
        assert list(report.feedline_reports) == names
        assert report.n_shots == 30 * feedlines
        payload = report.to_dict()
        assert list(payload["feedlines"]) == names
        # The session digest reads the cluster's aggregate fields.
        assert (run.n_shots, run.accuracy) == (report.n_shots, report.accuracy)
        assert (run.drift_score, run.drift_alarm) == (
            report.drift_score, report.drift_alarm
        )


def _fake_report(n_shots, wall, **feedline_fields):
    """A one-feedline run's report, as ReadoutService.run returns it."""
    feedline = PipelineReport(
        n_shots=n_shots,
        n_batches=1,
        wall_seconds=wall,
        shots_per_second=n_shots / wall,
        stage_summaries={},
        **feedline_fields,
    )
    return ClusterReport(
        executor="serial",
        workers=1,
        n_shots=n_shots,
        wall_seconds=wall,
        shots_per_second=n_shots / wall,
        feedline_reports={"feedline-0": feedline},
    )


class TestServiceStats:
    def test_cumulative_math(self):
        stats = ServiceStats()
        stats.record(_fake_report(100, 0.5, accuracy=0.9), 2.0, False)
        stats.record(_fake_report(300, 0.5, accuracy=0.8), 3.0, True)
        assert stats.n_runs == 2
        assert stats.total_shots == 400
        assert stats.total_run_seconds == pytest.approx(5.0)
        assert stats.shots_per_second == pytest.approx(400 / 5.0)
        assert [run.index for run in stats.runs] == [0, 1]
        assert stats.runs[0].shots_per_second == pytest.approx(50.0)
        assert stats.runs[1].calibration_cached is True

    def test_empty_stats_are_zero_not_nan(self):
        stats = ServiceStats()
        assert stats.n_runs == 0
        assert stats.total_shots == 0
        assert stats.shots_per_second == 0.0

    def test_zero_wall_run_never_serializes_inf(self):
        # Regression: a tiny fully-cached run can complete inside one
        # perf_counter tick. Rates must degrade to 0.0, never to
        # Infinity (which is not strict JSON) or ZeroDivisionError.
        stats = ServiceStats()
        run = stats.record(_fake_report(100, 1.0), 0.0, None)
        assert run.shots_per_second == 0.0
        payload = json.dumps(stats.to_dict(), allow_nan=False)
        assert "Infinity" not in payload

    def test_zero_wall_pipeline_run_is_inf_free(
        self, monkeypatch, tmp_path
    ):
        # Freeze the clock so the streamed run really measures a
        # zero-second wall: its throughput must report 0.0, not inf.
        import time as time_module

        monkeypatch.setattr(time_module, "perf_counter", lambda: 5.0)
        spec = tiny_spec(registry_dir=str(tmp_path / "registry"))
        with ReadoutService(spec, profile=tiny_profile()) as service:
            report = service.run()
        assert report.wall_seconds == 0.0
        assert report.shots_per_second == 0.0
        payload = json.dumps(report.to_dict(), allow_nan=False)
        assert "Infinity" not in payload
        json.dumps(service.stats.to_dict(), allow_nan=False)

    def test_to_dict_schema(self):
        stats = ServiceStats(warm_seconds=1.5, cold_fits=2)
        stats.record(_fake_report(10, 0.1), 0.2, None)
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["warm_seconds"] == 1.5
        assert payload["cold_fits"] == 2
        assert payload["n_runs"] == 1
        assert payload["total_shots"] == 10
        assert payload["runs"][0]["index"] == 0

    def test_format_table_mentions_warmup_and_cumulative(self):
        stats = ServiceStats(warm_seconds=0.5, cold_fits=1)
        stats.record(_fake_report(10, 0.1), 0.2, True)
        text = stats.format_table()
        assert "readout service" in text
        assert "warm-up" in text
        assert "cumulative" in text


class TestServeCli:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        spec = ServeSpec(
            traffic=TrafficSpec(shots=60, chunk_size=30),
            cluster=ClusterSpec(qubits_per_feedline=2),
            batching=BatchingSpec(batch_size=30),
            calibration=CalibrationSpec(
                profile="quick", registry_dir=str(tmp_path / "registry")
            ),
        )
        return str(spec.to_file(tmp_path / "spec.json"))

    def test_serve_runs_and_writes_session_json(
        self, capsys, tmp_path, spec_file
    ):
        out_path = tmp_path / "session.json"
        code = cli.main(
            ["serve", "--spec", spec_file, "--repeat", "2",
             "--json", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[serve] warmed in" in out
        assert "readout service (2 runs)" in out
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"spec", "service", "runs"}
        assert payload["spec"] == ServeSpec.from_file(spec_file).to_dict()
        assert payload["service"]["n_runs"] == 2
        assert payload["service"]["total_shots"] == 120
        assert payload["service"]["shots_per_second"] > 0
        assert len(payload["runs"]) == 2
        # Every run is a ClusterReport record, one feedline here.
        feedlines = [run["feedlines"]["feedline-0"] for run in payload["runs"]]
        assert feedlines[1]["calibration_cached"] is True
        # Fresh registry: cold fit attributed to run 0, warm thereafter.
        assert [
            r["calibration_cached"] for r in payload["service"]["runs"]
        ] == [False, True]
        # Same spec'd traffic served twice: identical discrimination.
        assert (
            feedlines[0]["assignment_counts"]
            == feedlines[1]["assignment_counts"]
        )

    def test_serve_shots_override(self, capsys, tmp_path, spec_file):
        out_path = tmp_path / "session.json"
        code = cli.main(
            ["serve", "--spec", spec_file, "--shots", "40",
             "--json", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["service"]["total_shots"] == 40
        # The record's spec is the spec every run served.
        assert payload["spec"]["traffic"]["shots"] == 40
        assert [run["n_shots"] for run in payload["runs"]] == [40]

    def test_serve_seed_override(self, capsys, tmp_path, spec_file):
        seeded = ServeSpec.from_file(spec_file).with_traffic(seed=7)
        seeded_file = str(seeded.to_file(tmp_path / "seeded.json"))
        flagged, filed = tmp_path / "flag.json", tmp_path / "file.json"
        assert cli.main(
            ["serve", "--spec", spec_file, "--seed", "7",
             "--json", str(flagged)]
        ) == 0
        assert cli.main(
            ["serve", "--spec", seeded_file, "--json", str(filed)]
        ) == 0
        by_flag, by_file = (
            json.loads(path.read_text()) for path in (flagged, filed)
        )
        # The record's spec is the spec served: the flag and a spec file
        # with the same seed write the same spec and serve the same
        # traffic.
        assert by_flag["spec"] == by_file["spec"] == seeded.to_dict()
        by_flag_counts, by_file_counts = (
            record["runs"][0]["feedlines"]["feedline-0"]["assignment_counts"]
            for record in (by_flag, by_file)
        )
        assert by_flag_counts == by_file_counts

    def test_serve_requires_spec_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve"])
        assert excinfo.value.code == 2

    def test_serve_rejects_bad_repeat(self, spec_file):
        with pytest.raises(ConfigurationError, match="repeat"):
            cli.main(["serve", "--spec", spec_file, "--repeat", "0"])

    def test_serve_rejects_bad_shots_override(self, spec_file):
        # The override folds into the spec, whose validation names it.
        with pytest.raises(ConfigurationError, match="shots"):
            cli.main(["serve", "--spec", spec_file, "--shots", "0"])

    def test_serve_reports_every_spec_problem(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for executor in ("gpu", "thread"):
            path.write_text(json.dumps({
                "traffic": {"shots": 0},
                "cluster": {"executor": executor},
            }))
            with pytest.raises(ConfigurationError) as excinfo:
                cli.main(["serve", "--spec", str(path)])
            message = str(excinfo.value)
            assert "traffic.shots" in message
            assert (
                "cluster.executor must be one of: serial, process; "
                f"got {executor!r}"
            ) in message

    def test_serve_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--spec" in out
        assert "--repeat" in out

    def test_list_mentions_serve(self, capsys):
        assert cli.main(["list"]) == 0
        assert "serve" in capsys.readouterr().out


def _has_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return False
    return True


class TestCrossProcessFitLock:
    def test_lock_survives_sidecar_unlink_by_prune(self, tmp_path):
        # A lock held on an unlinked sidecar must not block a fresh
        # locker (it locks a new inode), and acquisition on the fresh
        # file still reports locked.
        from repro.pipeline.registry import _artifact_file_lock

        artifact = tmp_path / "dev" / "prof" / "all.npz"
        with _artifact_file_lock(artifact) as locked:
            assert locked is True
            # prune racing the fit: sidecar disappears.
            artifact.with_name("all.npz.lock").unlink()
            with _artifact_file_lock(artifact) as relocked:
                assert relocked is True  # fresh inode, no deadlock

    def test_lock_sidecar_is_not_enumerated_as_a_key(
        self, tmp_path, tiny_corpus
    ):
        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-lock", "all", "tiny")
        registry.get_or_fit(
            key, lambda: MLRDiscriminator(epochs=4, seed=9), tiny_corpus
        )
        assert list(registry.keys()) == [key]
        lock_path = registry.path_for(key).with_name("all.npz.lock")
        assert lock_path.is_file(), "cold fit must leave its lock sidecar"

    def test_corrupt_artifact_recovery_keeps_lock_sidecar(
        self, tmp_path, tiny_corpus
    ):
        # The corrupt-refit path runs while the fitter may hold the
        # sidecar; it must drop only the artifact, never the lock.
        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-corrupt", "all", "tiny")
        registry.get_or_fit(
            key, lambda: MLRDiscriminator(epochs=4, seed=9), tiny_corpus
        )
        registry.path_for(key).write_bytes(b"garbage")
        _, cached = registry.get_or_fit(
            key, lambda: MLRDiscriminator(epochs=4, seed=9), tiny_corpus
        )
        assert cached is False, "corrupt artifact must trigger a refit"
        lock_path = registry.path_for(key).with_name("all.npz.lock")
        assert lock_path.is_file()

    def test_prune_clears_lock_sidecars_and_dirs(self, tmp_path, tiny_corpus):
        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-prune", "all", "tiny")
        registry.get_or_fit(
            key, lambda: MLRDiscriminator(epochs=4, seed=9), tiny_corpus
        )
        report = registry.prune(max_bytes=0)
        assert report.removed == (key,)
        assert list(registry.keys()) == []
        assert list(Path(tmp_path).rglob("*")) == []

    def test_prune_keeps_sidecar_held_by_a_fit(self, tmp_path, tiny_corpus):
        # Regression: prune used to unlink a sidecar a cold fitter was
        # holding, letting the next cold caller lock a *fresh* inode
        # and fit the same key concurrently. A held sidecar must
        # survive prune; an unheld one must still go.
        from repro.pipeline.registry import _artifact_file_lock

        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-held", "all", "tiny")
        registry.get_or_fit(
            key, lambda: MLRDiscriminator(epochs=4, seed=9), tiny_corpus
        )
        lock_path = registry.path_for(key).with_name("all.npz.lock")
        with _artifact_file_lock(registry.path_for(key)) as locked:
            assert locked is True
            report = registry.prune(max_bytes=0)
            assert report.removed == (key,)
            assert not registry.path_for(key).exists(), "artifact pruned"
            assert lock_path.is_file(), "held sidecar must survive prune"
        # Released: the next prune really cleans up.
        registry.prune(max_bytes=0)
        assert not lock_path.exists()
        assert list(Path(tmp_path).rglob("*")) == []

    @pytest.mark.skipif(not _has_fork(), reason="needs fork start method")
    def test_prune_keeps_sidecar_held_by_another_process(
        self, tmp_path, tiny_corpus
    ):
        # Fork variant of the race: the holder is a different process,
        # so the non-blocking probe lock (not same-process state) is
        # what must detect it.
        from repro.pipeline.registry import _artifact_file_lock

        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-forked", "all", "tiny")
        registry.get_or_fit(
            key, lambda: MLRDiscriminator(epochs=4, seed=9), tiny_corpus
        )
        lock_path = registry.path_for(key).with_name("all.npz.lock")
        holding = tmp_path / "holding"
        release = tmp_path / "release"

        def holder() -> None:
            with _artifact_file_lock(registry.path_for(key)):
                holding.touch()
                deadline = time.monotonic() + 20.0
                while not release.exists():
                    if time.monotonic() > deadline:  # pragma: no cover
                        raise RuntimeError("release barrier timed out")
                    time.sleep(0.005)

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=holder)
        child.start()
        try:
            deadline = time.monotonic() + 20.0
            while not holding.exists():
                if time.monotonic() > deadline:  # pragma: no cover
                    raise RuntimeError("holding barrier timed out")
                time.sleep(0.005)
            registry.prune(max_bytes=0)
            assert lock_path.is_file(), (
                "sidecar held by another process must survive prune"
            )
        finally:
            release.touch()
            child.join(timeout=60)
            if child.is_alive():  # pragma: no cover - hang guard
                child.kill()
        assert child.exitcode == 0
        registry.prune(max_bytes=0)
        assert not lock_path.exists()

    def test_prune_covers_superseded_artifact_versions(
        self, tmp_path, tiny_corpus
    ):
        # Versioned artifacts (hot recalibration) enumerate, prune, and
        # clean their sidecars exactly like version 0.
        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-versions", "all", "tiny")
        new_key = key.with_version(1)
        for stored in (key, new_key):
            registry.get_or_fit(
                stored, lambda: MLRDiscriminator(epochs=4, seed=9), tiny_corpus
            )
        assert registry.path_for(new_key).name == "all.v1.npz"
        assert set(registry.keys()) == {key, new_key}
        report = registry.prune(max_bytes=0)
        assert set(report.removed) == {key, new_key}
        assert list(Path(tmp_path).rglob("*")) == []

    @pytest.mark.skipif(not _has_fork(), reason="needs fork start method")
    def test_two_processes_fit_once(self, tmp_path, tiny_corpus):
        """Cold fits for one key dedupe across OS processes.

        Both children reach ``get_or_fit`` cold at the same time (a
        ready-file barrier lines them up); the advisory file lock must
        let exactly one fit while the other blocks, re-checks, and loads
        the stored artifact.
        """
        root = tmp_path / "registry"
        fits_log = tmp_path / "fits.log"
        key = CalibrationKey("chip-x", "all", "tiny")

        def worker(index: int) -> None:
            ready = tmp_path / f"ready-{index}"
            ready.touch()
            deadline = time.monotonic() + 20.0
            while not all(
                (tmp_path / f"ready-{i}").exists() for i in range(2)
            ):
                if time.monotonic() > deadline:  # pragma: no cover
                    raise RuntimeError("barrier timed out")
                time.sleep(0.005)

            def factory():
                disc = MLRDiscriminator(epochs=4, seed=9)
                original = disc.fit

                def counting_fit(corpus, indices):
                    # O_APPEND: one atomic line per actual fit.
                    with open(fits_log, "a") as fh:
                        fh.write(f"{os.getpid()}\n")
                    time.sleep(0.3)  # widen the cross-process race window
                    return original(corpus, indices)

                disc.fit = counting_fit
                return disc

            CalibrationRegistry(root).get_or_fit(key, factory, tiny_corpus)

        ctx = multiprocessing.get_context("fork")
        children = [
            ctx.Process(target=worker, args=(index,)) for index in range(2)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=120)
        try:
            assert all(child.exitcode == 0 for child in children)
        finally:
            for child in children:
                if child.is_alive():  # pragma: no cover - hang guard
                    child.kill()
        assert key in CalibrationRegistry(root)
        fit_lines = fits_log.read_text().splitlines()
        assert len(fit_lines) == 1, (
            "process shards sharing a cold key must fit exactly once, "
            f"got fits from pids: {fit_lines}"
        )


class TestClusterReportPlacement:
    def test_report_records_feedline_placement(self, tmp_path):
        # Placement is each feedline's owning worker: one worker runs
        # every feedline on serial, two process workers take one each.
        expected = {"serial": [0, 0], "process": [0, 1]}
        for executor, owners in expected.items():
            spec = ServeSpec(
                traffic=TrafficSpec(shots=20, chunk_size=10),
                cluster=ClusterSpec(
                    feedlines=2,
                    executor=executor,
                    workers=2,
                    qubits_per_feedline=2,
                ),
                batching=BatchingSpec(batch_size=10),
                calibration=CalibrationSpec(
                    registry_dir=str(tmp_path / "registry")
                ),
            )
            with ReadoutService(spec, profile=tiny_profile()) as service:
                report = service.run()
                assert report.placement == service._runner._owners
            assert list(report.placement) == ["feedline-0", "feedline-1"]
            assert list(report.placement.values()) == owners, executor
            payload = json.loads(json.dumps(report.to_dict()))
            assert payload["placement"] == report.placement


class TestServiceStatsDriftColumns:
    def test_format_table_has_drift_alarm_recal_columns(self):
        stats = ServiceStats()
        stats.record(_fake_report(10, 0.1, accuracy=0.9), 0.1, True)
        noisy = _fake_report(
            10, 0.1, accuracy=0.8, drift_score=0.123, drift_alarm=True
        )
        stats.record(noisy, 0.1, True, recalibrated=True)
        text = stats.format_table()
        header = text.splitlines()[1]
        for column in ("drift", "alarm", "recal"):
            assert column in header, column
        rows = text.splitlines()[3:5]
        assert rows[0].split()[-3:] == ["-", "-", "-"]
        assert rows[1].split()[-3:] == ["0.123", "ALARM", "yes"]


class TestRunFailureCleanup:
    def test_failed_run_releases_pool_and_temp_registry(self, monkeypatch):
        # Satellite of the failed-warm contract: an exception escaping
        # mid-run must release the session like a failed warm() does.
        spec = ServeSpec(
            traffic=TrafficSpec(shots=20, chunk_size=10),
            cluster=ClusterSpec(
                feedlines=2, executor="process", qubits_per_feedline=2
            ),
            batching=BatchingSpec(batch_size=10),
        )
        service = ReadoutService(spec, profile=tiny_profile())
        service.warm()
        private_root = service.registry_dir
        assert private_root is not None and Path(private_root).is_dir()

        def exploding_run(runner_self, *args, **kwargs):
            raise DataError("feedline shard died mid-run")

        monkeypatch.setattr(MultiFeedlineRunner, "run", exploding_run)
        with pytest.raises(DataError):
            service.run()
        assert service._runner is None
        assert service.registry_dir is None
        assert not Path(private_root).exists()

    def test_bad_run_args_do_not_tear_down_the_session(self, tmp_path):
        spec = ServeSpec(
            traffic=TrafficSpec(shots=20, chunk_size=10),
            cluster=ClusterSpec(qubits_per_feedline=2),
            batching=BatchingSpec(batch_size=10),
            calibration=CalibrationSpec(
                registry_dir=str(tmp_path / "registry")
            ),
        )
        with ReadoutService(spec, profile=tiny_profile()) as service:
            service.warm()
            runner = service._runner
            warm_seconds = service.stats.warm_seconds
            for bad_args in ({"shots": 0}, {"seed": -1}):
                (name,) = bad_args
                with pytest.raises(ConfigurationError, match=name):
                    service.run(**bad_args)
                # Argument validation is not a serving failure: the
                # session stays warm and keeps serving, without a
                # re-warm.
                assert service.run().n_shots == 20
                assert service._runner is runner
                assert service.stats.warm_seconds == warm_seconds


class TestSharedRegistrySessions:
    """Two independent sessions over one on-disk registry root."""

    def shared_spec(self, root: Path, **traffic) -> ServeSpec:
        params = dict(shots=40, chunk_size=20, seed=4242)
        params.update(traffic)
        return ServeSpec(
            traffic=TrafficSpec(**params),
            cluster=ClusterSpec(qubits_per_feedline=2),
            batching=BatchingSpec(batch_size=20),
            calibration=CalibrationSpec(registry_dir=str(root)),
        )

    def test_concurrent_thread_sessions_fit_once(
        self, tmp_path, monkeypatch
    ):
        fits: list[int] = []
        original_fit = MLRDiscriminator.fit

        def counting_fit(disc, corpus, indices):
            fits.append(1)
            time.sleep(0.2)  # widen the cold-fit race window
            return original_fit(disc, corpus, indices)

        monkeypatch.setattr(MLRDiscriminator, "fit", counting_fit)
        spec = self.shared_spec(tmp_path / "registry")
        services = [
            ReadoutService(spec, profile=tiny_profile()) for _ in range(2)
        ]
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def warm(service):
            try:
                barrier.wait(timeout=30)
                service.warm()
            except BaseException as exc:  # pragma: no cover - surfaced
                errors.append(exc)

        threads = [
            threading.Thread(target=warm, args=(service,))
            for service in services
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        try:
            assert len(fits) == 1, (
                "two sessions racing one cold key must fit exactly once"
            )
            # Both warmed sessions serve identical seeded traffic.
            reports = [feedline_0(service.run()) for service in services]
            counts = [r.assignment_counts for r in reports]
            assert counts[0] == counts[1]
        finally:
            for service in services:
                service.close()

    @pytest.mark.skipif(not _has_fork(), reason="needs fork start method")
    def test_concurrent_fork_sessions_fit_once(self, tmp_path):
        root = tmp_path / "registry"
        spec_file = self.shared_spec(root).to_file(tmp_path / "spec.json")

        def worker(index: int) -> None:
            ready = tmp_path / f"ready-{index}"
            ready.touch()
            deadline = time.monotonic() + 20.0
            while not all(
                (tmp_path / f"ready-{i}").exists() for i in range(2)
            ):
                if time.monotonic() > deadline:  # pragma: no cover
                    raise RuntimeError("barrier timed out")
                time.sleep(0.005)
            spec = ServeSpec.from_file(spec_file)
            with ReadoutService(spec, profile=tiny_profile()) as service:
                report = feedline_0(service.run())
            out = {
                "cold_fits": service.stats.cold_fits,
                "assignment_counts": report.assignment_counts,
            }
            (tmp_path / f"out-{index}.json").write_text(json.dumps(out))

        ctx = multiprocessing.get_context("fork")
        children = [
            ctx.Process(target=worker, args=(index,)) for index in range(2)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=300)
        try:
            assert all(child.exitcode == 0 for child in children)
        finally:
            for child in children:
                if child.is_alive():  # pragma: no cover - hang guard
                    child.kill()
        outs = [
            json.loads((tmp_path / f"out-{i}.json").read_text())
            for i in range(2)
        ]
        assert sum(out["cold_fits"] for out in outs) == 1, (
            "flock dedup: exactly one process pays the cold fit"
        )
        assert outs[0]["assignment_counts"] == outs[1]["assignment_counts"]

    def test_recal_by_one_session_never_changes_the_other(self, tmp_path):
        root = tmp_path / "registry"
        quiet_spec = self.shared_spec(root)
        with ReadoutService(
            quiet_spec, profile=tiny_profile()
        ) as quiet:
            before = feedline_0(quiet.run()).assignment_counts
            assert quiet.artifact_versions() == {"feedline-0": 0}

            # A second session on the same key drifts, alarms, and hot
            # recalibrates: version 1 lands in the shared registry.
            noisy_spec = ServeSpec(
                traffic=TrafficSpec(shots=60, chunk_size=30),
                cluster=ClusterSpec(qubits_per_feedline=2),
                batching=BatchingSpec(batch_size=30),
                calibration=CalibrationSpec(registry_dir=str(root)),
                drift=DriftSpec(if_detune_ghz_per_kshot=8e-5),
                recalibration=RecalibrationSpec(
                    enabled=True,
                    threshold=1e-6,
                    min_shots=0,
                    max_recalibrations=1,
                ),
            )
            with ReadoutService(
                noisy_spec, profile=tiny_profile()
            ) as noisy:
                noisy.run()
                assert noisy.stats.recalibrations == 1
                assert noisy.artifact_versions() == {"feedline-0": 1}

            versions_on_disk = {
                key.version for key in CalibrationRegistry(root).keys()
            }
            assert versions_on_disk == {0, 1}
            # The warm first session is untouched mid-run: same served
            # artifact version, bit-identical seeded traffic results.
            assert quiet.artifact_versions() == {"feedline-0": 0}
            assert feedline_0(quiet.run()).assignment_counts == before
