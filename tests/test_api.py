"""Tests for repro.api: registry, result contract, suite runs, plugins."""

from __future__ import annotations

import json
import pkgutil

import numpy as np
import pytest

import repro.experiments
from repro.api import (
    ExperimentResult,
    ExperimentSpec,
    discover,
    experiments,
    jsonify,
    run,
    run_suite,
)
from repro.config import QUICK
from repro.discriminators import registry as disc_registry
from repro.discriminators.fnn_baseline import FNNBaseline
from repro.discriminators.mlr import MLRDiscriminator
from repro.exceptions import ConfigurationError

EXPECTED_NAMES = {
    "table1", "table2", "table4", "table5", "table6",
    "fig1c", "fig1d", "fig3", "fig5a", "fig5b",
    "sec3", "sec7b", "sec7d", "headline", "scaling", "fnn_scaling",
}


class TestExperimentRegistry:
    def test_discovery_finds_all_experiments(self):
        assert set(discover()) == EXPECTED_NAMES

    def test_every_module_registers_exactly_once(self):
        discover()
        by_module: dict[str, int] = {}
        for spec in experiments.values():
            by_module[spec.module] = by_module.get(spec.module, 0) + 1
        support = {"common", "report"}
        for info in pkgutil.iter_modules(repro.experiments.__path__):
            if info.name.startswith("_") or info.name in support:
                continue
            module = f"repro.experiments.{info.name}"
            assert by_module.get(module) == 1, module

    def test_duplicate_name_rejected(self):
        discover()
        with pytest.raises(ConfigurationError, match="already registered"):
            experiments.register(
                ExperimentSpec(name="table1", runner=lambda profile: None)
            )

    def test_every_spec_has_tags_and_paper_ref(self):
        discover()
        for spec in experiments.values():
            assert spec.tags, spec.name
            assert spec.paper_ref, spec.name
            assert spec.description, spec.name

    def test_select_by_tag(self):
        discover()
        names = {s.name for s in experiments.select(["fpga"])}
        assert names == {"fig1d", "fig5a", "sec7d", "headline"}

    def test_select_mixes_names_tags_and_dedupes(self):
        discover()
        specs = experiments.select(["fig1d", "fpga", "sec7b"])
        names = [s.name for s in specs]
        assert sorted(names) == ["fig1d", "fig5a", "headline", "sec7b", "sec7d"]
        assert len(names) == len(set(names))

    def test_select_all(self):
        discover()
        assert {s.name for s in experiments.select("all")} == EXPECTED_NAMES

    def test_select_unknown_raises_with_known_names(self):
        discover()
        with pytest.raises(ConfigurationError, match="table1"):
            experiments.select(["bogus"])

    def test_runner_exports_follow_registry(self):
        # __all__ is derived, and the dead generator-splat entry is gone.
        assert "run_table1" in repro.experiments.__all__
        assert repro.experiments.run_table1 is experiments["table1"].runner


class TestJsonify:
    def test_numpy_and_tuple_keys(self):
        payload = jsonify(
            {
                (2, 3): np.int64(7),
                "arr": np.arange(3),
                "f": np.float32(0.5),
                "t": (1, 2),
            }
        )
        assert payload == {"2,3": 7, "arr": [0, 1, 2], "f": 0.5, "t": [1, 2]}
        json.dumps(payload)

    def test_complex_arrays(self):
        payload = jsonify(np.array([1 + 2j]))
        assert payload == {"real": [1.0], "imag": [2.0]}


def _dummy_results():
    """One hand-built instance of every result class (no training)."""
    from repro.experiments.fig1c import Fig1cResult
    from repro.experiments.fig1d import Fig1dResult
    from repro.experiments.fig3 import Fig3Result
    from repro.experiments.fig5a import Fig5aResult
    from repro.experiments.fig5b import Fig5bResult
    from repro.experiments.fnn_scaling import FNNScalingResult
    from repro.experiments.headline import HeadlineResult
    from repro.experiments.scaling import ScalingResult
    from repro.experiments.sec3 import Sec3Result
    from repro.experiments.sec7b import Sec7bResult
    from repro.experiments.sec7d import Sec7dResult
    from repro.experiments.table1 import Table1Result
    from repro.experiments.table2 import Table2Result
    from repro.experiments.table4 import Table4Result
    from repro.experiments.table5 import Table5Result
    from repro.experiments.table6 import Table6Result

    fid_row = {
        "fidelities": (0.9, 0.9, 0.9, 0.9, 0.9),
        "f5q": 0.9,
        "n_parameters": 10,
    }
    spec_row = {
        "error_pct": 10.0,
        "speed": "Fast",
        "speculation_accuracy": 0.91,
        "leakage_population": 1e-3,
    }
    return {
        "table1": Table1Result(
            rows=[
                {
                    "design": design,
                    "accuracy": 0.95,
                    "leakage_population": 3e-3,
                    "true_positive_rate": 0.5,
                    "false_positive_rate": 0.1,
                }
                for design in ("ERASER", "ERASER+M")
            ]
        ),
        "table2": Table2Result(
            rows=[
                {"design": d, **fid_row} for d in ("fnn", "herqules")
            ]
        ),
        "table4": Table4Result(
            rows=[{"design": d, **fid_row} for d in ("fnn", "ours")]
        ),
        "table5": Table5Result(
            fidelities={
                q: {"lda": 0.9, "qda": 0.91, "nn": 0.92, "ours": 0.93}
                for q in (2, 3)
            }
        ),
        "table6": Table6Result(
            rows=[{"design": d, **spec_row} for d in ("lda", "ours")]
        ),
        "fig1c": Fig1cResult(inaccuracy={"ours": (0.1,) * 5}),
        "fig1d": Fig1dResult(
            utilization={"herqules": 0.3, "fnn": 4.0, "ours": 0.07}
        ),
        "fig3": Fig3Result(
            qubit=3,
            mtv=np.zeros((4, 2)),
            cluster_levels=np.zeros(4, dtype=np.int64),
            cluster_sizes=(2, 1, 1),
            detection_precision=1.0,
            detection_recall=0.9,
            state_mean_traces=np.zeros((3, 5), dtype=np.complex128),
            excitation_mean_traces={
                (0, 1): None,
                (0, 2): np.zeros(5, dtype=np.complex128),
                (1, 2): None,
            },
        ),
        "fig5a": Fig5aResult(
            resources={
                "herqules": {"lut": 4.0, "ff": 5.0, "bram": 2.0, "dsp": 2.0},
                "ours": {"lut": 1.0, "ff": 1.0, "bram": 1.0, "dsp": 1.0},
            }
        ),
        "fig5b": Fig5bResult(
            durations_ns=(500, 1000),
            mean_accuracy=(0.8, 0.9),
            truncated_accuracy=(0.7, 0.9),
        ),
        "headline": HeadlineResult(
            parameters={"fnn": 100, "herqules": 10, "ours": 1},
            luts={"fnn": 60.0, "herqules": 15.0, "ours": 1.0},
        ),
        "sec3": Sec3Result(
            n_cnots=(1, 2),
            leaked_control_population=(0.01, 0.02),
            normal_control_population=(0.001, 0.002),
            single_gate_transfer=0.017,
            growth_ratio_at_12=3.1,
        ),
        "sec7b": Sec7bResult(
            baseline_cycle_ns=1176.0, reduced_cycle_ns=976.0, reduction=0.17
        ),
        "sec7d": Sec7dResult(
            total_parameters=6505, power_mw=1.561, latency_cycles=5
        ),
        "scaling": ScalingResult(
            qubit_range=(2, 3),
            level_range=(3,),
            parameters={
                "fnn": {(2, 3): 100, (3, 3): 300},
                "herqules": {(2, 3): 50, (3, 3): 200},
                "ours": {(2, 3): 10, (3, 3): 15},
            },
        ),
        "fnn_scaling": FNNScalingResult(
            shots_per_state=(8, 16), fnn_f5q=(0.5, 0.6), ours_f5q=(0.8, 0.8)
        ),
    }


class TestResultContract:
    def test_every_experiment_has_a_result_instance(self):
        assert set(_dummy_results()) == EXPECTED_NAMES

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_to_dict_json_round_trip(self, name):
        result = _dummy_results()[name]
        assert isinstance(result, ExperimentResult)
        result._bind(name, QUICK)
        payload = result.to_dict()
        assert set(payload) == {
            "name", "profile", "seed", "measured", "paper", "deviations",
        }
        assert payload["name"] == name
        assert payload["profile"] == "quick"
        assert payload["seed"] == QUICK.seed
        assert payload["measured"]
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload
        # to_json agrees with to_dict.
        assert json.loads(result.to_json()) == json.loads(
            json.dumps(payload, sort_keys=True)
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_format_table_still_works(self, name):
        assert _dummy_results()[name].format_table()

    def test_deviations_align_measured_and_paper(self):
        result = _dummy_results()["table1"]
        devs = result.deviations()
        assert "ERASER.accuracy" in devs
        entry = devs["ERASER.accuracy"]
        assert entry["paper"] == 0.957
        assert entry["measured"] == 0.95
        assert entry["delta"] == pytest.approx(-0.007)

    def test_deviations_compare_sequences_elementwise(self):
        devs = _dummy_results()["table2"].deviations()
        assert "fnn.fidelities.1" in devs

    def test_deviations_skip_unmatched_and_non_numeric(self):
        devs = _dummy_results()["table6"].deviations()
        # Only the lda/ours rows exist in this dummy; qda/fnn are skipped,
        # and the string "speed" never produces an entry.
        assert any(k.startswith("lda.") for k in devs)
        assert not any(k.startswith("qda.") for k in devs)
        assert not any(k.endswith(".speed") for k in devs)

    def test_to_json_writes_file(self, tmp_path):
        path = tmp_path / "r.json"
        _dummy_results()["sec7b"].to_json(path)
        assert json.loads(path.read_text())["measured"]["reduction"] == 0.17

    def test_run_binds_name_and_profile(self):
        result = run("sec7b", profile="quick", seed=123)
        assert result.name == "sec7b"
        assert result.profile_name == "quick"
        assert result.profile_seed == 123

    def test_run_unknown_experiment_raises(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run("nope")


class TestRunSuite:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = run_suite(tags=["fpga"], workers=1)
        parallel = run_suite(tags=["fpga"], workers=2)
        assert set(serial.results) == {"fig1d", "fig5a", "sec7d", "headline"}
        a = json.dumps(serial.to_dict(include_timings=False), sort_keys=True)
        b = json.dumps(parallel.to_dict(include_timings=False), sort_keys=True)
        assert a == b

    def test_reports_per_experiment_wall_time(self):
        suite = run_suite(["sec7b", "sec7d"], workers=2)
        assert set(suite.results) == {"sec7b", "sec7d"}
        assert all(e.seconds >= 0.0 for e in suite.entries)
        assert suite.total_seconds >= 0.0
        assert "total wall time" in suite.format_table()

    def test_positional_selector_string(self):
        suite = run_suite("sec7b")
        assert set(suite.results) == {"sec7b"}

    def test_seed_override_propagates(self):
        suite = run_suite(["sec7b"], seed=99)
        assert suite.seed == 99
        assert suite.results["sec7b"].profile_seed == 99

    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            run_suite(["sec7b"], workers=0)

    def test_on_result_streams_entries_as_they_complete(self):
        streamed = []
        suite = run_suite(
            ["sec7b", "sec7d"], on_result=lambda e: streamed.append(e.name)
        )
        assert sorted(streamed) == ["sec7b", "sec7d"]
        assert [e.name for e in suite.entries] == ["sec7b", "sec7d"]


class TestDiscriminatorRegistry:
    def test_registered_design_names(self):
        assert set(disc_registry.names()) >= {"ours", "herqules", "fnn", "hmm"}

    def test_alias_resolves_to_canonical(self):
        assert disc_registry.get("mlr").cls is MLRDiscriminator
        assert disc_registry.get("mlr").name == "ours"

    def test_build_sizes_from_profile(self):
        ours = disc_registry.build("ours", QUICK)
        assert isinstance(ours, MLRDiscriminator)
        assert ours.epochs == QUICK.nn_epochs
        assert ours.learning_rate == disc_registry.NN_LEARNING_RATE
        fnn = disc_registry.build("fnn", QUICK)
        assert isinstance(fnn, FNNBaseline)
        assert fnn.epochs == QUICK.fnn_epochs

    def test_unknown_design_raises(self):
        with pytest.raises(ConfigurationError, match="unknown discriminator"):
            disc_registry.build("nope", QUICK)

    def test_artifact_classes_tracked(self):
        assert disc_registry.artifact_class("MLRDiscriminator") is MLRDiscriminator
        assert disc_registry.artifact_class("NoSuchClass") is None

    def test_get_trained_uses_registry_names(self):
        # The experiments layer resolves designs through the registry, so
        # an unknown design surfaces the registry's error.
        from repro.experiments.common import get_trained

        with pytest.raises(ConfigurationError, match="unknown discriminator"):
            get_trained(QUICK, "not-a-design")


class TestRunPipelineApi:
    """The one turnkey run: ``repro.serve.serve_once(ServeSpec)``."""

    @staticmethod
    def _tiny_profile():
        from repro.config import Profile

        return Profile(
            name="tiny", shots_per_state=10, calibration_shots=100,
            nn_epochs=8, fnn_epochs=2, batch_size=64, qec_shots=10,
            qudit_shots=10, spectral_max_points=100, seed=611,
        )

    def test_single_feedline_returns_cluster_report(self):
        from repro.pipeline import ClusterReport
        from repro.serve import (
            BatchingSpec, ClusterSpec, ServeSpec, TrafficSpec, serve_once,
        )

        spec = ServeSpec(
            traffic=TrafficSpec(shots=40, chunk_size=20),
            cluster=ClusterSpec(qubits_per_feedline=2),
            batching=BatchingSpec(batch_size=20),
        )
        report = serve_once(spec, profile=self._tiny_profile())
        assert isinstance(report, ClusterReport)
        assert report.n_feedlines == 1
        assert report.n_shots == 40
        assert report.feedline_reports["feedline-0"].n_shots == 40

    def test_multi_feedline_returns_cluster_report(self):
        from repro.pipeline import ClusterReport
        from repro.serve import (
            BatchingSpec, ClusterSpec, ServeSpec, TrafficSpec, serve_once,
        )

        spec = ServeSpec(
            traffic=TrafficSpec(shots=30, chunk_size=15),
            cluster=ClusterSpec(
                feedlines=2, executor="serial", qubits_per_feedline=2
            ),
            batching=BatchingSpec(batch_size=15),
        )
        report = serve_once(spec, profile=self._tiny_profile())
        assert isinstance(report, ClusterReport)
        assert report.n_feedlines == 2
        assert report.n_shots == 60

    def test_rejects_bad_feedline_count(self):
        from repro.exceptions import ConfigurationError
        from repro.serve import ClusterSpec

        with pytest.raises(ConfigurationError):
            ClusterSpec(feedlines=0)
