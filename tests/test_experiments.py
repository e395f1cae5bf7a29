"""Tests for the experiment runners and the CLI (fast paths + mini profile)."""

import numpy as np
import pytest

from repro.api import experiments
from repro.config import QUICK, Profile
from repro.experiments.common import clear_caches, get_readout_bundle, get_trained
from repro.experiments.fig1d import run_fig1d
from repro.experiments.fig5a import run_fig5a
from repro.experiments.headline import run_headline
from repro.experiments.report import format_rows
from repro.experiments.sec3 import run_sec3_cnot_leakage
from repro.experiments.sec7b import run_sec7b_cycle_time
from repro.experiments.sec7d import run_sec7d_power

#: Small profile for training-path tests: full architecture, tiny corpus.
MINI = Profile(
    name="mini",
    shots_per_state=6,
    calibration_shots=600,
    nn_epochs=40,
    fnn_epochs=3,
    batch_size=128,
    qec_shots=40,
    qudit_shots=500,
    spectral_max_points=600,
    seed=77,
)


@pytest.fixture(scope="module", autouse=True)
def _clean_caches():
    clear_caches()
    yield
    clear_caches()


class TestFastRunners:
    def test_fig1d_ratios(self):
        result = run_fig1d(QUICK)
        assert result.fnn_over_ours == pytest.approx(60, rel=0.05)
        assert result.herqules_over_ours == pytest.approx(4, rel=0.05)
        assert "LUT" in result.format_table()

    def test_fig5a_ratios(self):
        result = run_fig5a(QUICK)
        assert result.ratio("lut") == pytest.approx(4, rel=0.05)
        assert result.ratio("ff") == pytest.approx(5, rel=0.05)

    def test_sec7b_cycle_time(self):
        result = run_sec7b_cycle_time(QUICK)
        assert result.reduction == pytest.approx(0.17, abs=0.005)

    def test_sec7d_power(self):
        result = run_sec7d_power(QUICK)
        assert result.power_mw == pytest.approx(1.561, abs=1e-3)
        assert result.latency_cycles == 5
        assert result.total_parameters == 6505

    def test_headline_model_size(self):
        result = run_headline(QUICK)
        assert result.model_size_vs_fnn == pytest.approx(105.6, rel=0.02)
        assert 4 < result.model_size_vs_herqules < 12

    def test_sec3_cnot_leakage(self):
        result = run_sec3_cnot_leakage(QUICK)
        assert 0.015 <= result.single_gate_transfer <= 0.02
        assert result.growth_ratio_at_12 == pytest.approx(3.0, abs=0.6)
        # Leakage grows monotonically with gate count.
        curve = result.leaked_control_population
        assert all(b > a for a, b in zip(curve, curve[1:]))

    def test_experiment_registry_complete(self):
        expected = {
            "table1", "table2", "table4", "table5", "table6",
            "fig1c", "fig1d", "fig3", "fig5a", "fig5b",
            "sec3", "sec7b", "sec7d", "headline", "scaling", "fnn_scaling",
        }
        assert set(experiments) == expected


class TestTrainingRunners:
    """Mini-profile smoke tests of the corpus-driven runners."""

    def test_bundle_is_cached(self):
        a = get_readout_bundle(MINI)
        b = get_readout_bundle(MINI)
        assert a is b
        assert a.corpus.n_traces == 243 * MINI.shots_per_state
        assert np.intersect1d(a.train_idx, a.test_idx).size == 0

    def test_trained_design_scores(self):
        trained = get_trained(MINI, "ours")
        assert trained.f5q > 0.75
        assert trained.n_parameters == 6505
        # Cached on second call.
        assert get_trained(MINI, "ours") is trained

    def test_ours_beats_herqules_at_mini_scale(self):
        ours = get_trained(MINI, "ours")
        herq = get_trained(MINI, "herqules")
        assert ours.f5q > herq.f5q

    def test_table1_orderings(self):
        result = experiments["table1"].run(MINI)
        by_name = {r["design"]: r for r in result.rows}
        assert (
            by_name["ERASER+M"]["accuracy"] >= by_name["ERASER"]["accuracy"] - 0.01
        )
        assert "Table I" in result.format_table()

    def test_fig5b_accuracy_improves_with_duration(self):
        result = experiments["fig5b"].run(
            MINI, durations_ns=(500, 1000)
        )
        assert result.accuracy_at(1000) > result.accuracy_at(500) - 0.02
        assert len(result.truncated_accuracy) == 2

    def test_fig3_detects_leakage(self):
        result = experiments["fig3"].run(MINI)
        assert result.detection_recall > 0.5
        assert sum(result.cluster_sizes) == MINI.calibration_shots
        assert result.state_mean_traces.shape[0] == 3


class TestReportAndCLI:
    def test_format_rows_alignment(self):
        table = format_rows(("A", "BB"), [(1, 2.5), ("x", "y")], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "2.5000" in table

    def test_cli_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out

    def test_cli_runs_fast_experiment(self, capsys):
        from repro.cli import main

        assert main(["run", "sec7b", "--profile", "quick"]) == 0
        out = capsys.readouterr().out
        assert "17" in out

    def test_cli_rejects_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["run", "table99"]) == 2

    def test_cli_rejects_unknown_profile(self):
        from repro.cli import main
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["run", "sec7b", "--profile", "mega"])
