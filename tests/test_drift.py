"""Drift-aware serving: injection, online detection, versioned artifacts,
and hot recalibration of long-lived sessions."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Profile
from repro.exceptions import ConfigurationError
from repro.physics.device import default_five_qubit_chip, make_feedline_chip
from repro.physics.drift import DEMO_DRIFT, DriftModel
from repro.pipeline import (
    CalibrationKey,
    CalibrationRegistry,
    DriftingTraceSource,
    DriftMonitor,
    PipelineConfig,
    SimulatorTraceSource,
)
from repro.serve import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    DriftSpec,
    ReadoutService,
    RecalibrationSpec,
    ServeSpec,
    TrafficSpec,
)
from tests.conftest import serve_one_feedline


def tiny_profile(**overrides) -> Profile:
    """Small but properly trained sizing (QUICK-grade epoch budget)."""
    params = dict(
        name="tiny",
        shots_per_state=40,
        calibration_shots=100,
        nn_epochs=150,
        fnn_epochs=2,
        batch_size=64,
        qec_shots=10,
        qudit_shots=10,
        spectral_max_points=100,
        seed=701,
    )
    params.update(overrides)
    return Profile(**params)


def fast_profile(**overrides) -> Profile:
    """Minimal sizing for mechanics-only tests (accuracy irrelevant)."""
    return tiny_profile(shots_per_state=10, nn_epochs=8, **overrides)


class TestDriftModel:
    def test_null_model_returns_the_same_chip(self):
        chip = default_five_qubit_chip()
        model = DriftModel()
        assert model.is_null
        assert model.chip_at(chip, 10_000) is chip

    def test_zero_clock_returns_the_same_chip(self):
        chip = default_five_qubit_chip()
        assert DEMO_DRIFT.chip_at(chip, 0) is chip

    def test_detuning_and_decay_math(self):
        chip = default_five_qubit_chip()
        model = DriftModel(
            if_detune_ghz_per_kshot=2e-4,
            t1_decay_per_kshot=0.1,
            amplitude_decay_per_kshot=0.05,
        )
        drifted = model.chip_at(chip, 2000)  # 2 kshots
        for before, after in zip(chip.qubits, drifted.qubits):
            assert after.if_frequency_ghz == pytest.approx(
                before.if_frequency_ghz + 4e-4
            )
            assert after.t1_ns == pytest.approx(
                before.t1_ns * np.exp(-0.2)
            )
            assert after.t1_2_ns == pytest.approx(
                before.t1_2_ns * np.exp(-0.2)
            )
            assert after.amplitude == pytest.approx(
                before.amplitude * np.exp(-0.1)
            )

    def test_detuning_clamps_inside_nyquist(self):
        chip = default_five_qubit_chip()
        nyquist = chip.adc.sample_rate_ghz / 2.0
        # An absurd session must degrade, not produce an invalid device.
        drifted = DriftModel(if_detune_ghz_per_kshot=0.1).chip_at(
            chip, 1_000_000
        )
        for qubit in drifted.qubits:
            assert abs(qubit.if_frequency_ghz) < nyquist

    def test_rejects_negative_clock_and_bad_rates(self):
        with pytest.raises(ConfigurationError, match="shots_elapsed"):
            DriftModel().chip_at(default_five_qubit_chip(), -1)
        with pytest.raises(ConfigurationError, match="t1_decay"):
            DriftModel(t1_decay_per_kshot=-0.1)
        with pytest.raises(ConfigurationError, match="amplitude_decay"):
            DriftModel(amplitude_decay_per_kshot=-0.1)
        with pytest.raises(ConfigurationError, match="if_detune"):
            DriftModel(if_detune_ghz_per_kshot="fast")

    def test_dict_round_trip(self):
        assert DriftModel.from_dict(DEMO_DRIFT.to_dict()) == DEMO_DRIFT

    def test_deterministic_snapshots(self):
        chip = default_five_qubit_chip()
        a = DEMO_DRIFT.chip_at(chip, 1234)
        b = DEMO_DRIFT.chip_at(chip, 1234)
        assert a.to_dict() == b.to_dict()


class TestDriftingTraceSource:
    def test_null_drift_matches_simulator_source(self):
        chip = make_feedline_chip(0, n_qubits=2)
        plain = SimulatorTraceSource(chip, 80, chunk_size=40, seed=5)
        drifting = DriftingTraceSource(
            chip, DriftModel(), 80, chunk_size=40, seed=5
        )
        for a, b in zip(plain.chunks(), drifting.chunks()):
            assert np.array_equal(a.feedline, b.feedline)
            assert np.array_equal(a.prepared_levels, b.prepared_levels)

    def test_drift_changes_the_traces(self):
        chip = make_feedline_chip(0, n_qubits=2)
        plain = np.concatenate(
            [c.feedline for c in
             SimulatorTraceSource(chip, 80, chunk_size=40, seed=5).chunks()]
        )
        drifted = np.concatenate(
            [c.feedline for c in
             DriftingTraceSource(
                 chip, DEMO_DRIFT, 80, chunk_size=40, seed=5,
                 shot_offset=5000,
             ).chunks()]
        )
        assert not np.array_equal(plain, drifted)

    def test_shot_offset_continues_the_session_clock(self):
        chip = make_feedline_chip(0, n_qubits=2)

        def stream(offset):
            return np.concatenate([
                c.feedline
                for c in DriftingTraceSource(
                    chip, DEMO_DRIFT, 60, chunk_size=30, seed=5,
                    shot_offset=offset,
                ).chunks()
            ])

        assert not np.array_equal(stream(0), stream(3000))

    def test_rejects_negative_offset(self):
        chip = make_feedline_chip(0, n_qubits=2)
        with pytest.raises(ConfigurationError, match="shot_offset"):
            DriftingTraceSource(chip, DEMO_DRIFT, 10, shot_offset=-1)


class TestDriftMonitor:
    def test_validation(self):
        ref = np.full(9, 1 / 9)
        with pytest.raises(ConfigurationError, match="reference_assignment"):
            DriftMonitor(np.zeros((3, 3)))
        with pytest.raises(ConfigurationError, match="distribution"):
            DriftMonitor(np.zeros(9))
        with pytest.raises(ConfigurationError, match="threshold"):
            DriftMonitor(ref, threshold=0.0)
        with pytest.raises(ConfigurationError, match="alpha"):
            DriftMonitor(ref, alpha=1.5)
        with pytest.raises(ConfigurationError, match="min_shots"):
            DriftMonitor(ref, min_shots=-1)
        with pytest.raises(ConfigurationError, match="power of"):
            DriftMonitor(np.full(5, 0.2))  # 5 is not a power of 3

    def test_matching_traffic_scores_low(self):
        rng = np.random.default_rng(0)
        monitor = DriftMonitor(
            np.full(9, 1 / 9), reference_margin=0.9, threshold=0.25,
            min_shots=0,
        )
        for _ in range(10):
            monitor.observe(rng.integers(0, 9, 200), 0.9)
        assert monitor.drift_score < 0.1
        assert monitor.alarm is False

    def test_distribution_shift_raises_the_score(self):
        monitor = DriftMonitor(
            np.full(9, 1 / 9), threshold=0.25, min_shots=0
        )
        for _ in range(10):
            monitor.observe(np.zeros(200, dtype=np.int64))
        assert monitor.drift_score > 1.0
        assert monitor.alarm is True

    def test_margin_erosion_alone_trips_the_alarm(self):
        rng = np.random.default_rng(0)
        monitor = DriftMonitor(
            np.full(9, 1 / 9), reference_margin=0.8, threshold=0.25,
            min_shots=0,
        )
        for _ in range(10):
            monitor.observe(rng.integers(0, 9, 200), 0.3)
        assert monitor.drift_score >= 0.5
        assert monitor.alarm is True

    def test_min_shots_gates_the_alarm(self):
        monitor = DriftMonitor(
            np.full(9, 1 / 9), threshold=0.25, min_shots=500
        )
        monitor.observe(np.zeros(100, dtype=np.int64))
        assert monitor.drift_score > 0.25
        assert monitor.alarm is False, "not enough evidence yet"
        monitor.observe(np.zeros(400, dtype=np.int64))
        assert monitor.alarm is True

    @settings(max_examples=80, deadline=None)
    @given(
        n_qubits=st.integers(min_value=1, max_value=5),
        n_levels=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_projection_marginals_match_reshape_sums(
        self, n_qubits, n_levels, seed
    ):
        """One matvec against the cached 0/1 projection lists each
        qubit's marginal as summing the joint grid over every other
        qubit's axis does, and the divergence matches the per-qubit
        loop over those marginals."""
        rng = np.random.default_rng(seed)
        size = n_levels**n_qubits

        def distribution():
            dist = rng.random(size) * (rng.random(size) < 0.6)
            dist[rng.integers(size)] += 1.0
            return dist / dist.sum()

        def reshape_sums(dist):
            grid = dist.reshape((n_levels,) * n_qubits)
            return np.stack([
                grid.sum(axis=tuple(a for a in range(n_qubits) if a != q))
                for q in range(n_qubits)
            ])

        def smoothed(marginal):
            marginal = marginal + 1e-4
            return marginal / marginal.sum()

        reference = distribution()
        monitor = DriftMonitor(reference, n_levels=n_levels, min_shots=0)
        assert monitor._projection is DriftMonitor(
            distribution(), n_levels=n_levels
        )._projection
        np.testing.assert_allclose(
            monitor._marginals(monitor.reference),
            reshape_sums(monitor.reference),
            rtol=1e-12,
            atol=1e-15,
        )
        monitor.observe(rng.integers(0, size, 64))
        worst = 0.0
        for p, q in zip(
            reshape_sums(monitor._ewma_dist), reshape_sums(monitor.reference)
        ):
            p, q = smoothed(p), smoothed(q)
            symmetric = np.sum(p * np.log(p / q)) + np.sum(q * np.log(q / p))
            worst = max(worst, 0.5 * float(symmetric))
        assert monitor.summary()["assignment_divergence"] == pytest.approx(
            worst, rel=1e-9, abs=1e-15
        )

    @settings(max_examples=80, deadline=None)
    @given(
        n_qubits=st.integers(min_value=1, max_value=4),
        n_levels=st.integers(min_value=2, max_value=3),
        alpha=st.floats(min_value=0.01, max_value=1.0),
        n_shots=st.integers(min_value=1, max_value=600),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_counts_fold_is_bit_identical_to_fresh_blends(
        self, n_qubits, n_levels, alpha, n_shots, seed
    ):
        """Folding each batch's histogram in place leaves the EWMA bit
        for bit where blending fresh arrays, ``alpha * p + (1 - alpha)
        * e``, does: over random label streams cut at random points,
        with the histogram taken by ``observe`` or handed to it."""
        rng = np.random.default_rng(seed)
        size = n_levels**n_qubits
        reference = rng.random(size) + 0.01
        skew = rng.random(size) ** 3
        stream = rng.choice(size, n_shots, p=skew / skew.sum())
        n_cuts = int(rng.integers(0, min(n_shots, 40)))
        cuts = np.sort(rng.choice(np.arange(1, n_shots), n_cuts, replace=False))
        batches = np.split(stream, cuts)
        margins = rng.random(len(batches))
        by_labels, by_counts = (
            DriftMonitor(reference, alpha=alpha, n_levels=n_levels, min_shots=0)
            for _ in range(2)
        )
        ewma = margin = None
        for batch, batch_margin in zip(batches, margins):
            by_labels.observe(batch, batch_margin)
            by_counts.observe(
                batch, batch_margin, counts=np.bincount(batch, minlength=size)
            )
            counts = np.bincount(batch, minlength=size).astype(np.float64)
            p = counts / counts.sum()
            ewma = p if ewma is None else alpha * p + (1.0 - alpha) * ewma
            margin = (
                batch_margin
                if margin is None
                else alpha * batch_margin + (1.0 - alpha) * margin
            )
        for monitor in (by_labels, by_counts):
            assert monitor._ewma_dist.tobytes() == ewma.tobytes()
            assert monitor._ewma_margin == margin
            assert monitor.n_shots == n_shots
        assert by_labels.summary() == by_counts.summary()

    def test_summary_is_json_able(self):
        monitor = DriftMonitor(np.full(9, 1 / 9), min_shots=0)
        monitor.observe(np.arange(9))
        summary = json.loads(json.dumps(monitor.summary()))
        assert set(summary) >= {
            "drift_score", "assignment_divergence", "margin_erosion",
            "threshold", "n_shots", "alarm",
        }
        assert summary["n_shots"] == 9


class TestCalibrationReferences:
    def test_fit_records_reference_distribution_and_margin(self, tiny_corpus):
        from repro.discriminators.mlr import MLRDiscriminator

        disc = MLRDiscriminator(epochs=4, seed=9)
        disc.fit(tiny_corpus, np.arange(tiny_corpus.n_traces))
        assert disc.reference_assignment_ is not None
        assert disc.reference_assignment_.shape == (
            tiny_corpus.n_levels ** tiny_corpus.n_qubits,
        )
        assert disc.reference_assignment_.sum() == pytest.approx(1.0)
        assert 0.0 <= disc.reference_margin_ <= 1.0

    def test_references_round_trip_through_artifacts(
        self, tiny_corpus, tmp_path
    ):
        from repro.discriminators.base import Discriminator
        from repro.discriminators.mlr import MLRDiscriminator

        disc = MLRDiscriminator(epochs=4, seed=9)
        disc.fit(tiny_corpus, np.arange(tiny_corpus.n_traces))
        path = tmp_path / "artifact.npz"
        disc.save_artifacts(path)
        loaded = Discriminator.load_artifacts(path)
        np.testing.assert_allclose(
            loaded.reference_assignment_, disc.reference_assignment_
        )
        assert loaded.reference_margin_ == pytest.approx(
            disc.reference_margin_
        )

    def test_pre_reference_artifacts_still_load(self, tiny_corpus, tmp_path):
        # Artifacts written before drift detection carry no references;
        # they must load (and serve) with the monitor disabled.
        from repro.discriminators.base import Discriminator
        from repro.discriminators.mlr import MLRDiscriminator

        disc = MLRDiscriminator(epochs=4, seed=9)
        disc.fit(tiny_corpus, np.arange(tiny_corpus.n_traces))
        disc.reference_assignment_ = None
        disc.reference_margin_ = None
        path = tmp_path / "legacy.npz"
        disc.save_artifacts(path)
        loaded = Discriminator.load_artifacts(path)
        assert loaded.reference_assignment_ is None
        assert loaded.reference_margin_ is None


class TestRegistryVersioning:
    def test_version_zero_keeps_the_legacy_path(self):
        key = CalibrationKey("dev", "all", "prof")
        assert key.relative_path.name == "all.npz"
        assert key.with_version(3).relative_path.name == "all.v3.npz"

    def test_version_validation(self):
        with pytest.raises(ConfigurationError, match="version"):
            CalibrationKey("dev", "all", "prof", version=-1)
        with pytest.raises(ConfigurationError, match="version"):
            CalibrationKey("dev", "all", "prof", version=True)
        with pytest.raises(ConfigurationError, match="collides"):
            CalibrationKey("dev", "all.v2", "prof")

    def test_keys_enumerate_versions(self, tmp_path, tiny_corpus):
        from repro.discriminators.mlr import MLRDiscriminator

        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("dev", "all", "tiny")
        fitted, _ = registry.get_or_fit(
            key, lambda: MLRDiscriminator(epochs=4, seed=9), tiny_corpus
        )
        assert registry.latest_version(key) == 0
        first, second = key.with_version(1), key.with_version(2)
        registry.save(first, fitted)
        registry.save(second, fitted)
        assert registry.latest_version(key) == 2
        assert set(registry.keys()) == {key, first, second}
        assert key in registry and first in registry and second in registry

    def test_fit_once_holds_per_version(self, tmp_path, tiny_corpus):
        from repro.discriminators.mlr import MLRDiscriminator

        registry = CalibrationRegistry(tmp_path)
        fits = []

        def factory():
            fits.append(1)
            return MLRDiscriminator(epochs=4, seed=9)

        base = CalibrationKey("dev", "all", "tiny")
        for version in (0, 1, 0, 1):
            registry.get_or_fit(
                base.with_version(version), factory, tiny_corpus
            )
        assert len(fits) == 2, "one fit per version, ever"


class TestPipelineDriftDetection:
    def test_stationary_run_reports_low_drift(self, tmp_path, two_qubit_chip):
        report = serve_one_feedline(
            fast_profile(),
            two_qubit_chip,
            120,
            config=PipelineConfig(batch_size=40),
            chunk_size=60,
            registry_dir=tmp_path,
            device="drift-test",
        )
        assert report.drift_score is not None
        assert report.drift_alarm is False
        assert "drift" in report.details
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["drift_alarm"] is False

    def test_report_scores_drift_once_per_run(
        self, tmp_path, two_qubit_chip, monkeypatch
    ):
        calls = []
        divergence = DriftMonitor._divergence

        def counting_divergence(self):
            calls.append(1)
            return divergence(self)

        monkeypatch.setattr(DriftMonitor, "_divergence", counting_divergence)
        report = serve_one_feedline(
            fast_profile(),
            two_qubit_chip,
            120,
            config=PipelineConfig(batch_size=40),
            chunk_size=60,
            registry_dir=tmp_path,
            device="drift-test",
        )
        assert len(calls) == 1
        drift = report.details["drift"]
        assert report.drift_score == drift["drift_score"]
        assert report.drift_alarm is drift["alarm"]
        assert drift["drift_score"] == max(
            drift["assignment_divergence"], drift["margin_erosion"]
        )

    def test_detection_can_be_disabled(self, tmp_path, two_qubit_chip):
        report = serve_one_feedline(
            fast_profile(),
            two_qubit_chip,
            60,
            chunk_size=60,
            registry_dir=tmp_path,
            device="drift-test",
            config=PipelineConfig(batch_size=60, drift_detection=False),
        )
        assert report.drift_score is None
        assert report.drift_alarm is None
        assert "drift" not in report.details

    def test_drifted_traffic_raises_the_score(self, tmp_path):
        chip = make_feedline_chip(0, n_qubits=2)
        kwargs = dict(
            config=PipelineConfig(batch_size=100),
            chunk_size=200,
            registry_dir=tmp_path,
            device="drift-scored",
        )
        profile = tiny_profile()
        calm = serve_one_feedline(profile, chip, 400, **kwargs)
        stormy = serve_one_feedline(
            profile,
            chip,
            400,
            drift_model=DriftModel(if_detune_ghz_per_kshot=8e-5),
            drift_shot_offset=2500,
            **kwargs,
        )
        assert stormy.drift_score > calm.drift_score
        assert stormy.accuracy < calm.accuracy

    def test_config_validates_drift_knobs(self):
        with pytest.raises(ConfigurationError) as excinfo:
            PipelineConfig(
                drift_threshold=0.0, drift_ewma_alpha=2.0, drift_min_shots=-1
            )
        message = str(excinfo.value)
        assert "drift_threshold" in message
        assert "drift_ewma_alpha" in message
        assert "drift_min_shots" in message


def _drift_spec(
    recalibrate: bool,
    drifting: bool = True,
    feedlines: int = 1,
    shots: int = 500,
    threshold: float = 0.035,
    cooldown_runs: int = 1,
    **recal_overrides,
) -> ServeSpec:
    return ServeSpec(
        traffic=TrafficSpec(shots=shots, chunk_size=max(1, shots // 2)),
        cluster=ClusterSpec(
            feedlines=feedlines, executor="serial", qubits_per_feedline=2
        ),
        batching=BatchingSpec(batch_size=max(1, shots // 4)),
        calibration=CalibrationSpec(),
        drift=(
            DriftSpec(if_detune_ghz_per_kshot=8e-5)
            if drifting
            else DriftSpec()
        ),
        recalibration=RecalibrationSpec(
            enabled=recalibrate,
            threshold=threshold,
            cooldown_runs=cooldown_runs,
            **recal_overrides,
        ),
    )


class TestDriftSpecSections:
    def test_round_trip_with_drift_sections(self):
        spec = _drift_spec(True)
        assert ServeSpec.from_dict(spec.to_dict()) == spec
        assert ServeSpec.from_file is not None
        payload = json.loads(json.dumps(spec.to_dict()))
        assert payload["drift"]["if_detune_ghz_per_kshot"] == 8e-5
        assert payload["recalibration"]["enabled"] is True

    def test_sections_validate_exhaustively(self):
        with pytest.raises(ConfigurationError) as excinfo:
            ServeSpec.from_dict({
                "drift": {"t1_decay_per_kshot": -1, "bogus": 2},
                "recalibration": {"threshold": 0, "cooldown_runs": -1},
            })
        message = str(excinfo.value)
        for fragment in (
            "drift.t1_decay_per_kshot",
            "drift.bogus",
            "recalibration.threshold",
            "recalibration.cooldown_runs",
        ):
            assert fragment in message, fragment

    def test_null_drift_spec_builds_no_model(self):
        assert DriftSpec().model() is None
        model = DriftSpec(if_detune_ghz_per_kshot=1e-4).model()
        assert isinstance(model, DriftModel)
        assert model.if_detune_ghz_per_kshot == 1e-4

    def test_recal_threshold_reaches_pipeline_config(self):
        spec = _drift_spec(True, threshold=0.123, min_shots=7)
        config = spec.pipeline_config()
        assert config.drift_threshold == 0.123
        assert config.drift_min_shots == 7


class TestDriftServiceEndToEnd:
    """The acceptance scenario: degrade without recal, recover with it."""

    @pytest.fixture(scope="class")
    def scenario(self):
        profile = tiny_profile()
        with ReadoutService(
            _drift_spec(False, drifting=False), profile=profile
        ) as service:
            baseline = service.run().accuracy

        with ReadoutService(_drift_spec(False), profile=profile) as service:
            degraded = [service.run() for _ in range(6)]
            degraded_stats = dataclasses.replace(service.stats)

        with ReadoutService(_drift_spec(True), profile=profile) as service:
            recovered = []
            for _ in range(6):
                recovered.append(service.run())
                if service.stats.runs[-1].recalibrated:
                    break
            final = service.run()
            recovered.append(final)
            recal_stats = service.stats
            versions = service.artifact_versions()
            registry_keys = list(
                CalibrationRegistry(service.registry_dir).keys()
            )
        return {
            "baseline": baseline,
            "degraded": degraded,
            "degraded_stats": degraded_stats,
            "recovered": recovered,
            "recal_stats": recal_stats,
            "versions": versions,
            "registry_keys": registry_keys,
        }

    def test_without_recal_accuracy_degrades(self, scenario):
        accuracies = [r.accuracy for r in scenario["degraded"]]
        assert scenario["baseline"] - accuracies[-1] > 0.05
        assert accuracies[-1] == min(accuracies[0], accuracies[-1])
        assert scenario["degraded_stats"].recalibrations == 0

    def test_drift_score_rises_and_alarms(self, scenario):
        reports = scenario["degraded"]
        assert reports[-1].drift_score > reports[0].drift_score
        assert reports[-1].drift_alarm is True

    def test_alarm_triggers_recal_and_accuracy_recovers(self, scenario):
        stats = scenario["recal_stats"]
        assert stats.recalibrations >= 1
        assert stats.recal_seconds > 0
        assert any(run.recalibrated for run in stats.runs)
        # Zero dropped runs: every attempted run completed and scored.
        assert stats.n_runs == len(scenario["recovered"])
        # The freshly recalibrated final run is back within 1% of the
        # cold-calibrated baseline (the acceptance criterion).
        final = scenario["recovered"][-1].accuracy
        assert scenario["baseline"] - final <= 0.01
        # And it beats the no-recal arm at the same point by a lot.
        assert final > scenario["degraded"][
            len(scenario["recovered"]) - 1
        ].accuracy

    def test_recal_hot_swaps_a_new_artifact_version(self, scenario):
        assert scenario["versions"]["feedline-0"] >= 1
        versions_on_disk = {key.version for key in scenario["registry_keys"]}
        assert 0 in versions_on_disk, "cold artifact keeps serving history"
        assert max(versions_on_disk) >= 1, "superseding version stored"

    def test_run_stats_surface_drift_fields(self, scenario):
        payload = scenario["recal_stats"].to_dict()
        run0 = payload["runs"][0]
        assert {"drift_score", "drift_alarm", "recalibrated"} <= set(run0)
        assert payload["recalibrations"] == scenario[
            "recal_stats"
        ].recalibrations


class TestDriftServiceMechanics:
    def test_recal_respects_cooldown_and_cap(self):
        # A threshold of ~0 alarms every run; cooldown and the cap must
        # still pace the refits.
        spec = _drift_spec(
            True,
            shots=60,
            threshold=1e-6,
            cooldown_runs=2,
            max_recalibrations=1,
            min_shots=0,
        )
        with ReadoutService(spec, profile=fast_profile()) as service:
            for _ in range(5):
                service.run()
            stats = service.stats
        assert stats.recalibrations == 1, "cap respected"
        flags = [run.recalibrated for run in stats.runs]
        assert flags[0] is True, "first alarming run recalibrates"
        assert sum(flags) == 1

    def test_multi_feedline_recal_through_the_pool(self, monkeypatch):
        from repro.discriminators.mlr import MLRDiscriminator

        fits = []
        original_fit = MLRDiscriminator.fit

        def counting_fit(self, corpus, indices):
            fits.append(1)
            return original_fit(self, corpus, indices)

        monkeypatch.setattr(MLRDiscriminator, "fit", counting_fit)
        # The ~0 threshold alarms every run; cap recals at one so the
        # second run isolates pure serving of the new versions.
        spec = _drift_spec(
            True, feedlines=2, shots=60, threshold=1e-6, min_shots=0,
            max_recalibrations=1,
        )
        with ReadoutService(spec, profile=fast_profile()) as service:
            service.run()  # alarms -> recalibrates both feedlines
            assert service.stats.recalibrations == 1
            assert service.artifact_versions() == {
                "feedline-0": 1,
                "feedline-1": 1,
            }
            registry = CalibrationRegistry(service.registry_dir)
            versions = {key.version for key in registry.keys()}
            assert versions == {0, 1}
            fits_after_recal = len(fits)
            report = service.run()  # serves the new versions, no refit
            assert len(fits) == fits_after_recal, (
                "post-recal runs must serve the recalibrated artifacts "
                "without fitting"
            )
        assert fits_after_recal == 4, "2 warm fits + 2 recal fits"
        assert report.n_shots == 120

    def test_recal_shot_budget_shrinks_the_refit_corpus(self, monkeypatch):
        from repro.data import synthetic

        sizes = []
        original = synthetic.generate_corpus

        def recording(chip, shots_per_state, **kwargs):
            sizes.append(shots_per_state)
            return original(chip, shots_per_state=shots_per_state, **kwargs)

        monkeypatch.setattr(synthetic, "generate_corpus", recording)
        monkeypatch.setattr(
            "repro.pipeline.runner.generate_corpus", recording
        )
        spec = _drift_spec(
            True, shots=60, threshold=1e-6, min_shots=0, shot_budget=5
        )
        with ReadoutService(spec, profile=fast_profile()) as service:
            service.run()
            assert service.stats.recalibrations == 1
        assert sizes[0] == 10, "warm-up uses the profile's sizing"
        assert sizes[-1] == 5, "recal uses the spec's shot budget"

    def test_stationary_session_with_recal_enabled_never_refits(self):
        # Needs the properly trained profile: an undertrained model's
        # live behavior genuinely diverges from its training-time
        # reference, which the monitor rightly reports as drift.
        spec = _drift_spec(True, drifting=False, shots=200, threshold=0.1)
        with ReadoutService(spec, profile=tiny_profile()) as service:
            for _ in range(3):
                report = service.run()
            stats = service.stats
        assert stats.recalibrations == 0
        assert report.drift_alarm is False
        assert service.artifact_versions() == {"feedline-0": 0}

    def test_cold_and_closed_cluster_reports_every_feedline(self):
        spec = _drift_spec(True, feedlines=2, shots=60)
        service = ReadoutService(spec, profile=fast_profile())
        expected = {"feedline-0": 0, "feedline-1": 0}
        assert service.artifact_versions() == expected
        service.warm()
        service.close()
        assert service.artifact_versions() == expected

    def test_closed_session_reports_what_the_next_warm_serves(self):
        spec = _drift_spec(
            True, shots=60, threshold=1e-6, min_shots=0,
            max_recalibrations=1,
        )
        service = ReadoutService(spec, profile=fast_profile())
        with service:
            service.run()  # alarms -> recalibrates to version 1
            assert service.artifact_versions() == {"feedline-0": 1}
        assert service.artifact_versions() == {"feedline-0": 0}
        with service:  # a fresh warm cycle serves version 0 again
            assert service.artifact_versions() == {"feedline-0": 0}

    def test_recal_never_serves_a_stale_version_across_sessions(
        self, tmp_path, monkeypatch
    ):
        # Regression: with a persistent registry, session 2's first
        # recalibration used to pick version (in-memory 0) + 1 = 1 —
        # which session 1 already stored — and get_or_fit served
        # session 1's artifact as a warm hit instead of refitting
        # against the device as it has drifted *now*.
        from repro.discriminators.mlr import MLRDiscriminator

        fits = []
        original_fit = MLRDiscriminator.fit

        def counting_fit(self, corpus, indices):
            fits.append(1)
            return original_fit(self, corpus, indices)

        monkeypatch.setattr(MLRDiscriminator, "fit", counting_fit)
        spec = dataclasses.replace(
            _drift_spec(True, shots=60, threshold=1e-6, min_shots=0),
            calibration=CalibrationSpec(
                registry_dir=str(tmp_path / "registry")
            ),
        )
        with ReadoutService(spec, profile=fast_profile()) as service:
            service.run()
            assert service.stats.recalibrations == 1
        assert len(fits) == 2, "session 1: cold fit + recal fit"

        with ReadoutService(spec, profile=fast_profile()) as service:
            service.run()
            assert service.stats.recalibrations == 1
            registry = CalibrationRegistry(service.registry_dir)
            versions = {key.version for key in registry.keys()}
        assert len(fits) == 3, (
            "session 2's recalibration must fit a fresh snapshot, not "
            "serve session 1's stored version as a warm hit"
        )
        assert versions == {0, 1, 2}

    def test_session_shots_clock_accumulates_and_resets(self):
        spec = _drift_spec(False, drifting=True, shots=60)
        service = ReadoutService(spec, profile=fast_profile())
        try:
            service.run()
            service.run(shots=40)
            assert service.session_shots == 100
            service.close()
            service.run()
            assert service.session_shots == 60, "re-warm restarts the clock"
        finally:
            service.close()
