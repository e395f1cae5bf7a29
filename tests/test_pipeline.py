"""Tests for the streaming readout runtime (repro.pipeline)."""

from __future__ import annotations

import math
import os
import threading
import time

import numpy as np
import pytest

from repro.config import Profile
from repro.data import digits_to_state, generate_corpus
from repro.data.basis import place_values
from repro.discriminators import MLRDiscriminator
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.fpga.latency import check_cycle_budget, decision_budget_ns
from repro.ml import stratified_split
from repro.pipeline import (
    BatchDiscriminationEngine,
    CalibrationKey,
    CalibrationRegistry,
    CollectingSink,
    CorpusTraceSource,
    EraserSpeculationSink,
    LatencyStats,
    MicroBatcher,
    PipelineConfig,
    QueueingSink,
    ReadoutPipeline,
    ResultSink,
    ShotChunk,
    SimulatorTraceSource,
)
from repro.qec.eraser import EraserConfig, LevelStreamSpeculator
from repro.serve import CalibrationSpec, ServeSpec, serve_once
from tests.conftest import make_two_qubit_chip, serve_one_feedline


def tiny_profile(**overrides) -> Profile:
    """A fast sizing profile for pipeline tests (not a named CLI profile)."""
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
        seed=501,
    )
    params.update(overrides)
    return Profile(**params)


@pytest.fixture(scope="module")
def pipeline_mlr(tiny_corpus):
    train, _ = stratified_split(tiny_corpus.labels, 0.5, seed=21)
    return MLRDiscriminator(epochs=10, learning_rate=3e-3, seed=22).fit(
        tiny_corpus, train
    )


class TestSources:
    def test_simulator_source_streams_exact_total(self, two_qubit_chip):
        source = SimulatorTraceSource(two_qubit_chip, n_shots=50, chunk_size=16, seed=1)
        chunks = list(source.chunks())
        assert [c.n_shots for c in chunks] == [16, 16, 16, 2]
        assert [c.chunk_id for c in chunks] == [0, 1, 2, 3]
        assert all(c.feedline.shape[1] == two_qubit_chip.trace_len for c in chunks)

    def test_simulator_source_is_seeded(self, two_qubit_chip):
        a = next(SimulatorTraceSource(two_qubit_chip, 8, seed=3).chunks())
        b = next(SimulatorTraceSource(two_qubit_chip, 8, seed=3).chunks())
        assert np.array_equal(a.feedline, b.feedline)
        assert np.array_equal(a.prepared_levels, b.prepared_levels)

    def test_simulator_source_restricted_states(self, two_qubit_chip):
        computational = np.array([0, 1, 3, 4])  # digits < 2 in base 3
        source = SimulatorTraceSource(
            two_qubit_chip, 30, chunk_size=30, states=computational, seed=4
        )
        chunk = next(source.chunks())
        labels = chunk.joint_labels(two_qubit_chip.n_levels)
        assert set(np.unique(labels)) <= set(computational.tolist())

    def test_simulator_source_rejects_bad_states(self, two_qubit_chip):
        with pytest.raises(ConfigurationError):
            SimulatorTraceSource(two_qubit_chip, 10, states=np.array([99]))

    def test_corpus_source_replays_in_order(self, tiny_corpus):
        source = CorpusTraceSource(tiny_corpus, chunk_size=70)
        feed = np.concatenate([c.feedline for c in source.chunks()], axis=0)
        assert np.array_equal(feed, tiny_corpus.feedline)

    def test_corpus_source_shuffle_preserves_multiset(self, tiny_corpus):
        source = CorpusTraceSource(tiny_corpus, chunk_size=64, shuffle=True, seed=5)
        labels = np.concatenate(
            [c.joint_labels(tiny_corpus.n_levels) for c in source.chunks()]
        )
        assert sorted(labels.tolist()) == sorted(tiny_corpus.labels.tolist())

    @pytest.mark.parametrize("n_levels", [2, 3, 4])
    @pytest.mark.parametrize("n_qubits", [1, 2, 5])
    def test_joint_labels_pack_like_digits_to_state(self, n_levels, n_qubits):
        """Recorded labels (int8 on disk) and the engine's int64 levels
        pack to the same joint states ``digits_to_state`` gives."""
        rng = np.random.default_rng(10 * n_levels + n_qubits)
        levels = rng.integers(0, n_levels, (200, n_qubits))
        expected = digits_to_state(levels, n_levels)
        for dtype in (np.int8, np.int64):
            chunk = ShotChunk(
                np.zeros((200, 4), np.complex64), levels.astype(dtype), 0
            )
            joint = chunk.joint_labels(n_levels)
            assert joint.dtype == np.int64
            np.testing.assert_array_equal(joint, expected)
        np.testing.assert_array_equal(
            levels.T.copy().T @ place_values(n_qubits, n_levels), expected
        )

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_recorded_labels_raise(self, bad):
        levels = np.zeros((4, 2), dtype=np.int8)
        levels[2, 1] = bad
        chunk = ShotChunk(np.zeros((4, 3), np.complex64), levels, 0)
        with pytest.raises(ConfigurationError, match="prepared levels"):
            chunk.joint_labels(3)

    def test_shot_chunk_validates_shapes(self):
        with pytest.raises(ValueError):
            ShotChunk(np.zeros(4, dtype=complex), None, 0)
        with pytest.raises(ValueError):
            ShotChunk(
                np.zeros((4, 8), dtype=complex),
                np.zeros((3, 2), dtype=np.int8),
                0,
            )


class TestMicroBatcher:
    def _chunks(self, sizes, n_qubits=2, trace_len=6, labels=True):
        out = []
        offset = 0
        for i, size in enumerate(sizes):
            feed = (np.arange(offset, offset + size)[:, None]) * np.ones(
                (1, trace_len)
            )
            levels = (
                np.full((size, n_qubits), i, dtype=np.int8) if labels else None
            )
            out.append(ShotChunk(feed.astype(complex), levels, i))
            offset += size
        return out

    def test_rebatches_to_uniform_sizes(self):
        batches = list(MicroBatcher(10).rebatch(self._chunks([7, 7, 7, 7])))
        assert [b.n_shots for b in batches] == [10, 10, 8]
        assert [b.chunk_id for b in batches] == [0, 1, 2]
        feed = np.concatenate([b.feedline for b in batches], axis=0)
        assert np.array_equal(feed[:, 0], np.arange(28, dtype=complex))

    def test_splits_oversized_chunks(self):
        batches = list(MicroBatcher(4).rebatch(self._chunks([11])))
        assert [b.n_shots for b in batches] == [4, 4, 3]

    def test_carries_labels_through(self):
        batches = list(MicroBatcher(5).rebatch(self._chunks([3, 4])))
        levels = np.concatenate([b.prepared_levels for b in batches], axis=0)
        assert levels[:, 0].tolist() == [0, 0, 0, 1, 1, 1, 1]

    def test_drops_labels_when_any_contributing_chunk_lacks_them(self):
        chunks = self._chunks([3]) + self._chunks([3], labels=False)
        batches = list(MicroBatcher(6).rebatch(chunks))
        assert batches[0].prepared_levels is None

    def test_labels_resume_after_unlabeled_shots_flush(self):
        chunks = self._chunks([4], labels=False) + self._chunks([4])
        batches = list(MicroBatcher(4).rebatch(chunks))
        assert batches[0].prepared_levels is None
        assert batches[1].prepared_levels is not None

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(0)


class TestLatencyStats:
    def test_percentiles(self):
        stats = LatencyStats("demo")
        for v in [0.001, 0.002, 0.003, 0.100]:
            stats.record(v, n_shots=10)
        assert stats.p50_ms == pytest.approx(2.5)
        assert stats.p99_ms > stats.p50_ms
        assert stats.mean_per_shot_us == pytest.approx(106.0 / 40 * 1e3)

    def test_summary_percentiles_equal_single_quantile_reads(self):
        stats = LatencyStats("demo")
        rng = np.random.default_rng(3)
        for seconds in rng.exponential(1e-3, size=101):
            stats.record(float(seconds), n_shots=4)
        summary = stats.summary()
        assert summary["p50_ms"] == stats.p50_ms
        assert summary["p99_ms"] == stats.p99_ms

    def test_empty_stats_report_nan_not_zero(self):
        # Regression: an empty stage used to be reportable as 0.0 ms,
        # which made a stalled/empty stage look infinitely fast. NaN is
        # the honest "no data" answer (rendered as "-" in tables); the
        # JSON summary maps it to None (strict JSON has no NaN literal).
        stats = LatencyStats("empty")
        assert math.isnan(stats.percentile(50))
        assert math.isnan(stats.p50_ms)
        assert math.isnan(stats.p99_ms)
        assert math.isnan(stats.mean_per_shot_us)
        summary = stats.summary()
        assert summary["batches"] == 0
        assert summary["p50_ms"] is None
        assert summary["p99_ms"] is None
        assert summary["mean_per_shot_us"] is None

    def test_empty_stage_renders_dash_in_table(self):
        from repro.pipeline.metrics import PipelineReport

        report = PipelineReport(
            n_shots=0,
            n_batches=0,
            wall_seconds=0.0,
            shots_per_second=0.0,
            stage_summaries={"demod": LatencyStats("demod").summary()},
        )
        row = [
            line for line in report.format_table().splitlines()
            if line.startswith("demod")
        ][0]
        assert "-" in row
        assert "nan" not in row

    def test_rejects_bad_samples(self):
        with pytest.raises(ConfigurationError):
            LatencyStats().record(-1.0)
        with pytest.raises(ConfigurationError):
            LatencyStats().record(1.0, n_shots=0)


class TestBudgetCheck:
    def test_paper_operating_point_budget(self):
        # 3-layer OURS head: 5-cycle NN + 3-cycle filter flush at 1 GHz.
        assert decision_budget_ns((45, 22, 11, 3)) == pytest.approx(8.0)

    def test_slowdown_and_within_budget(self):
        check = check_cycle_budget(16.0, (45, 22, 11, 3))
        assert check.slowdown == pytest.approx(2.0)
        assert not check.within_budget
        assert check_cycle_budget(4.0, (45, 22, 11, 3)).within_budget


class TestCalibrationRegistry:
    def test_key_rejects_unsafe_slugs(self):
        with pytest.raises(ConfigurationError):
            CalibrationKey(device="../escape")
        with pytest.raises(ConfigurationError):
            CalibrationKey(device="dev", profile="")

    def test_save_load_contains(self, tmp_path, pipeline_mlr, tiny_corpus):
        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-a", "all", "tiny")
        assert key not in registry
        registry.save(key, pipeline_mlr)
        assert key in registry
        assert list(registry.keys()) == [key]
        loaded = registry.load(key)
        assert np.array_equal(
            loaded.predict(tiny_corpus), pipeline_mlr.predict(tiny_corpus)
        )

    def test_load_missing_key_raises(self, tmp_path):
        with pytest.raises(DataError):
            CalibrationRegistry(tmp_path).load(CalibrationKey("chip-a"))

    def test_get_or_fit_recovers_from_corrupt_artifact(
        self, tmp_path, tiny_corpus
    ):
        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-a", "all", "tiny")
        path = registry.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"truncated by a crash")
        disc, cached = registry.get_or_fit(
            key, lambda: MLRDiscriminator(epochs=4, seed=9), tiny_corpus
        )
        # The poisoned file is a cache miss: refit, re-store, serve.
        assert cached is False
        assert np.array_equal(
            registry.load(key).predict(tiny_corpus), disc.predict(tiny_corpus)
        )

    def test_keys_skips_foreign_files(self, tmp_path, pipeline_mlr):
        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-a", "all", "tiny")
        registry.save(key, pipeline_mlr)
        foreign = tmp_path / "my device" / "quick"
        foreign.mkdir(parents=True)
        (foreign / "all.npz").write_bytes(b"junk")
        assert list(registry.keys()) == [key]

    def test_get_or_fit_fits_exactly_once(self, tmp_path, tiny_corpus):
        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-a", "all", "tiny")
        fits = []

        def factory():
            disc = MLRDiscriminator(epochs=4, seed=9)
            original = disc.fit

            def counting_fit(corpus, indices):
                fits.append(1)
                return original(corpus, indices)

            disc.fit = counting_fit
            return disc

        first, cached_first = registry.get_or_fit(key, factory, tiny_corpus)
        second, cached_second = registry.get_or_fit(key, factory, tiny_corpus)
        assert (cached_first, cached_second) == (False, True)
        assert len(fits) == 1
        assert np.array_equal(
            first.predict(tiny_corpus), second.predict(tiny_corpus)
        )


class TestRegistryPrune:
    @staticmethod
    def _populated(tmp_path, pipeline_mlr, profiles=("p1", "p2", "p3")):
        registry = CalibrationRegistry(tmp_path)
        keys = [CalibrationKey("chip-a", "all", p) for p in profiles]
        for i, key in enumerate(keys):
            path = registry.save(key, pipeline_mlr)
            os.utime(path, (1000.0 + i, 1000.0 + i))  # distinct mtimes
        return registry, keys

    def test_no_bounds_is_a_noop(self, tmp_path, pipeline_mlr):
        registry, keys = self._populated(tmp_path, pipeline_mlr)
        report = registry.prune()
        assert report.removed == ()
        assert report.n_remaining == len(keys)
        assert report.bytes_remaining > 0
        assert set(registry.keys()) == set(keys)

    def test_age_eviction_removes_old_artifacts(self, tmp_path, pipeline_mlr):
        registry, keys = self._populated(tmp_path, pipeline_mlr)
        # At now=1101.5, ages are 101.5/100.5/99.5 s: two exceed 100 s.
        report = registry.prune(max_age_s=100.0, now=1101.5)
        assert set(report.removed) == set(keys[:2])
        assert report.bytes_freed > 0
        assert set(registry.keys()) == {keys[2]}

    def test_age_zero_clears_everything(self, tmp_path, pipeline_mlr):
        registry, keys = self._populated(tmp_path, pipeline_mlr)
        report = registry.prune(max_age_s=0.0)
        assert set(report.removed) == set(keys)
        assert report.n_remaining == 0
        assert list(registry.keys()) == []
        # Emptied device/profile directories are cleaned up too.
        assert list(registry.root.iterdir()) == []

    def test_size_eviction_drops_oldest_first(self, tmp_path, pipeline_mlr):
        registry, keys = self._populated(tmp_path, pipeline_mlr)
        sizes = [registry.path_for(k).stat().st_size for k in keys]
        # Budget for exactly the newest two artifacts.
        report = registry.prune(max_bytes=sizes[1] + sizes[2])
        assert report.removed == (keys[0],)
        assert set(registry.keys()) == set(keys[1:])
        assert report.bytes_remaining <= sizes[1] + sizes[2]

    def test_size_zero_clears_everything(self, tmp_path, pipeline_mlr):
        registry, keys = self._populated(tmp_path, pipeline_mlr)
        report = registry.prune(max_bytes=0)
        assert set(report.removed) == set(keys)
        assert report.bytes_remaining == 0

    def test_age_and_size_compose(self, tmp_path, pipeline_mlr):
        registry, keys = self._populated(tmp_path, pipeline_mlr)
        size = registry.path_for(keys[2]).stat().st_size
        report = registry.prune(max_age_s=100.0, max_bytes=size, now=1101.5)
        # Age pass removes the two oldest, size pass fits the rest.
        assert set(report.removed) == set(keys[:2])
        assert set(registry.keys()) == {keys[2]}

    def test_rejects_negative_bounds(self, tmp_path):
        registry = CalibrationRegistry(tmp_path)
        with pytest.raises(ConfigurationError):
            registry.prune(max_age_s=-1.0)
        with pytest.raises(ConfigurationError):
            registry.prune(max_bytes=-1)

    def test_report_format_lists_removed_keys(self, tmp_path, pipeline_mlr):
        registry, keys = self._populated(tmp_path, pipeline_mlr, ("p1",))
        report = registry.prune(max_age_s=0.0)
        text = report.format_table()
        assert "removed 1 artifact(s)" in text
        assert "chip-a/p1/all" in text


class TestDesignSelection:
    def test_non_default_design_gets_its_own_registry_key(self):
        from repro.pipeline.runner import _profile_slug

        profile = tiny_profile()
        assert _profile_slug(profile) == "tiny-s501"
        assert _profile_slug(profile, "ours") == "tiny-s501"
        # A different design can never collide with the default's artifact.
        assert _profile_slug(profile, "fnn") == "fnn.tiny-s501"

    @staticmethod
    def _serve_design(design):
        spec = ServeSpec(calibration=CalibrationSpec(design=design))
        return serve_once(spec, profile=tiny_profile())

    def test_streaming_rejects_non_mlr_design(self):
        with pytest.raises(ConfigurationError, match="cannot stream"):
            self._serve_design("fnn")

    def test_streaming_rejects_unknown_design(self):
        with pytest.raises(ConfigurationError, match="unknown discriminator"):
            self._serve_design("nope")


class TestDiscriminationEngine:
    def test_streaming_matches_offline_predict(self, tiny_corpus, pipeline_mlr):
        engine = BatchDiscriminationEngine(pipeline_mlr, tiny_corpus.chip)
        result = engine.process(tiny_corpus.feedline)
        assert np.array_equal(result.joint, pipeline_mlr.predict(tiny_corpus))
        assert np.array_equal(
            result.levels, pipeline_mlr.predict_qubit_levels(tiny_corpus)
        )
        assert set(result.stage_seconds) == {"matched_filter", "discriminate"}

    def test_sharded_execution_matches_inline(self, tiny_corpus, pipeline_mlr):
        """A batch split into shards decides like the whole batch: no
        engine state carries from one call to the next, whatever the
        batch sizes."""
        engine = BatchDiscriminationEngine(pipeline_mlr, tiny_corpus.chip)
        feed = tiny_corpus.feedline[:40]
        inline = engine.process(feed).joint
        shards = [engine.process(feed[a:b]).joint for a, b in
                  ((0, 7), (7, 32), (32, 40))]
        assert np.array_equal(np.concatenate(shards), inline)

    def test_requires_fitted_discriminator(self, two_qubit_chip):
        with pytest.raises(NotFittedError):
            BatchDiscriminationEngine(MLRDiscriminator(), two_qubit_chip)

    def test_rejects_mismatched_chip(self, pipeline_mlr, five_qubit_chip):
        with pytest.raises(DataError):
            BatchDiscriminationEngine(pipeline_mlr, five_qubit_chip)


class TestLevelStreamSpeculator:
    def test_repeated_leakage_evidence_triggers_flag(self):
        spec = LevelStreamSpeculator(
            2, EraserConfig(window=3, activity_threshold=1, direct_evidence_cycles=2)
        )
        levels = np.array([[2, 0], [2, 0], [0, 0], [2, 1]])
        flags = spec.update(levels)
        # Qubit 0 leaks twice in the window -> flag on the second read;
        # the flag clears its evidence so the fourth read alone cannot fire.
        assert flags[:, 0].tolist() == [False, True, False, False]
        assert not flags[:, 1].any()
        assert spec.total_flags == 1
        assert spec.summary()["shots_seen"] == 4

    def test_window_expires_old_evidence(self):
        spec = LevelStreamSpeculator(
            1, EraserConfig(window=2, activity_threshold=1, direct_evidence_cycles=2)
        )
        flags = spec.update(np.array([[2], [0], [2], [0]]))
        assert not flags.any()

    def test_rejects_bad_shapes(self):
        spec = LevelStreamSpeculator(2)
        with pytest.raises(ConfigurationError):
            spec.update(np.zeros((4, 3), dtype=int))


class _SlowSink(ResultSink):
    def __init__(self, delay_s=0.02):
        self.delay_s = delay_s
        self.batches = []

    def consume(self, levels, joint, batch_id):
        time.sleep(self.delay_s)
        self.batches.append(batch_id)

    def close(self):
        return {"batches": len(self.batches)}


class _FailingSink(ResultSink):
    def consume(self, levels, joint, batch_id):
        raise RuntimeError("downstream exploded")


class _GatedSink(ResultSink):
    """Holds each batch until ``gate`` opens; ``started`` marks the first."""

    def __init__(self, gate):
        self.gate = gate
        self.started = threading.Event()
        self.batches = []

    def consume(self, levels, joint, batch_id):
        self.started.set()
        self.gate.wait(timeout=10)
        self.batches.append(batch_id)

    def close(self):
        return {"batches": len(self.batches)}


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestSinks:
    def test_collecting_sink_accumulates(self):
        sink = CollectingSink()
        sink.consume(np.zeros((3, 2), int), np.zeros(3, int), 0)
        sink.consume(np.ones((2, 2), int), np.ones(2, int), 1)
        assert sink.levels.shape == (5, 2)
        assert sink.close() == {"shots_seen": 5}

    def test_queueing_sink_processes_everything(self):
        inner = _SlowSink(delay_s=0.001)
        sink = QueueingSink(inner, max_pending=2)
        for i in range(10):
            sink.consume(np.zeros((1, 2), int), np.zeros(1, int), i)
        summary = sink.close()
        assert inner.batches == list(range(10))
        assert summary == {"batches": 10, "max_pending": 2}

    def test_queueing_sink_applies_backpressure(self):
        inner = _SlowSink(delay_s=0.05)
        sink = QueueingSink(inner, max_pending=1)
        blocked = []

        def producer():
            for i in range(4):
                sink.consume(np.zeros((1, 1), int), np.zeros(1, int), i)
            blocked.append(False)

        thread = threading.Thread(target=producer)
        thread.start()
        thread.join(timeout=0.03)
        # With a 1-batch queue and a 50 ms consumer, four consumes cannot
        # finish in 30 ms: the producer must be blocked on the queue.
        assert thread.is_alive()
        assert sink.pending <= 1
        thread.join()
        sink.close()

    def test_queueing_sink_surfaces_consumer_errors(self):
        sink = QueueingSink(_FailingSink(), max_pending=2)
        sink.consume(np.zeros((1, 1), int), np.zeros(1, int), 0)
        with pytest.raises(RuntimeError, match="downstream exploded"):
            sink.close()

    def test_queueing_sink_close_is_idempotent(self):
        sink = QueueingSink(CollectingSink(), max_pending=2)
        sink.consume(np.zeros((2, 2), int), np.zeros(2, int), 0)
        summary = sink.close()
        assert summary == {"shots_seen": 2, "max_pending": 2}
        assert sink.close() is summary
        with pytest.raises(ConfigurationError, match="closed"):
            sink.consume(np.zeros((1, 2), int), np.zeros(1, int), 1)

    def test_queueing_sink_keeps_draining_after_an_error(self):
        """A failed inner sink never stalls the producer: every queued
        batch still frees its slot, and each close re-raises."""
        sink = QueueingSink(_FailingSink(), max_pending=1)
        for i in range(6):
            sink.consume(np.zeros((1, 1), int), np.zeros(1, int), i)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="downstream exploded"):
                sink.close()

    def test_queueing_sink_close_takes_no_slot(self):
        """close() on a full queue does not wait for a slot: its sentinel
        bypasses the bound, and close returns once the consumer drains."""
        gate = threading.Event()
        inner = _GatedSink(gate)
        sink = QueueingSink(inner, max_pending=1)
        assert sink.max_pending == 1
        sink.consume(np.zeros((1, 1), int), np.zeros(1, int), 0)
        assert inner.started.wait(timeout=5)  # the consumer holds batch 0
        sink.consume(np.zeros((1, 1), int), np.zeros(1, int), 1)
        assert sink.pending == sink.max_pending == 1  # the queue is full
        summaries = []
        closer = threading.Thread(target=lambda: summaries.append(sink.close()))
        closer.start()
        try:
            # The sentinel is queued past the bound while batch 1 waits.
            _wait_for(lambda: sink.pending == 2)
            assert closer.is_alive()  # joining the gated consumer
        finally:
            gate.set()
            closer.join(timeout=5)
        assert not closer.is_alive()
        assert summaries == [{"batches": 2, "max_pending": 1}]
        assert inner.batches == [0, 1]

    def test_eraser_sink_summary(self):
        sink = EraserSpeculationSink(
            2, EraserConfig(window=3, activity_threshold=1, direct_evidence_cycles=2)
        )
        sink.consume(np.array([[2, 0], [2, 0]]), np.array([8, 8]), 0)
        summary = sink.close()
        assert summary["lrc_requests"] == 1
        assert summary["shots_seen"] == 2


class TestPipelineEndToEnd:
    def test_streaming_run_matches_offline_predict(
        self, tiny_corpus, pipeline_mlr
    ):
        sink = CollectingSink()
        pipeline = ReadoutPipeline(
            pipeline_mlr,
            tiny_corpus.chip,
            PipelineConfig(batch_size=17),
            sink=sink,
        )
        report = pipeline.run(CorpusTraceSource(tiny_corpus, chunk_size=23))
        assert np.array_equal(sink.joint, pipeline_mlr.predict(tiny_corpus))
        assert report.n_shots == tiny_corpus.n_traces
        assert report.shots_per_second > 0
        assert report.accuracy is not None
        assert list(report.stage_summaries) == [
            "matched_filter", "discriminate", "sink"
        ]
        assert report.budget is not None and report.budget.slowdown > 0
        assert "streaming readout pipeline" in report.format_table()

    def test_default_pipeline_is_reusable_across_runs(
        self, tiny_corpus, pipeline_mlr
    ):
        pipeline = ReadoutPipeline(
            pipeline_mlr, tiny_corpus.chip, PipelineConfig(batch_size=64)
        )
        first = pipeline.run(CorpusTraceSource(tiny_corpus))
        second = pipeline.run(CorpusTraceSource(tiny_corpus))
        assert first.n_shots == second.n_shots == tiny_corpus.n_traces
        assert first.accuracy == second.accuracy

    def test_reused_pipeline_keeps_no_source_memory_after_a_run(
        self, tiny_corpus, pipeline_mlr
    ):
        import dataclasses
        import gc
        import weakref

        # A private copy of the traces: nothing else references it.
        feedline = np.array(tiny_corpus.feedline)
        corpus = dataclasses.replace(tiny_corpus, feedline=feedline)
        traces = weakref.ref(feedline)
        pipeline = ReadoutPipeline(
            pipeline_mlr, tiny_corpus.chip, PipelineConfig(batch_size=30)
        )
        # Every 30-shot batch lies inside a 30-shot chunk, so each is a
        # view of the traces lent to the pipeline's kept ring.
        first = pipeline.run(CorpusTraceSource(corpus, chunk_size=30))
        del corpus, feedline
        gc.collect()
        # A view kept past the run would pin a replay segment's mapping.
        assert traces() is None
        second = pipeline.run(CorpusTraceSource(tiny_corpus, chunk_size=30))
        assert second.assignment_counts == first.assignment_counts

    def test_engine_construction_error_does_not_leak_sink(
        self, pipeline_mlr, five_qubit_chip
    ):
        # The default sink owns no thread, and a caller's QueueingSink is
        # started by the caller: a run that fails before its first batch
        # must leave the thread count where it found it.
        before = threading.active_count()
        pipeline = ReadoutPipeline(pipeline_mlr, five_qubit_chip)
        with pytest.raises(DataError):
            pipeline.run(SimulatorTraceSource(five_qubit_chip, 8, seed=1))
        assert threading.active_count() == before

    def test_report_is_json_serializable(self, tiny_corpus, pipeline_mlr):
        import json

        pipeline = ReadoutPipeline(
            pipeline_mlr, tiny_corpus.chip, PipelineConfig(batch_size=64)
        )
        report = pipeline.run(CorpusTraceSource(tiny_corpus))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_shots"] == tiny_corpus.n_traces
        assert payload["budget"]["slowdown_vs_fpga"] > 0

    def test_warm_registry_skips_refit(self, tmp_path, two_qubit_chip, monkeypatch):
        fits = []
        original_fit = MLRDiscriminator.fit

        def counting_fit(self, corpus, indices):
            fits.append(1)
            return original_fit(self, corpus, indices)

        monkeypatch.setattr(MLRDiscriminator, "fit", counting_fit)
        profile = tiny_profile()
        kwargs = dict(
            config=PipelineConfig(batch_size=24),
            chunk_size=30,
            registry_dir=tmp_path,
            device="two-qubit-test",
        )
        cold = serve_one_feedline(profile, two_qubit_chip, 60, **kwargs)
        warm = serve_one_feedline(profile, two_qubit_chip, 60, **kwargs)
        assert len(fits) == 1, "warm run must not refit"
        assert cold.calibration_cached is False
        assert warm.calibration_cached is True
        assert warm.accuracy == cold.accuracy

    def test_distinct_profiles_get_distinct_artifacts(
        self, tmp_path, two_qubit_chip
    ):
        kwargs = dict(
            config=PipelineConfig(batch_size=30),
            registry_dir=tmp_path,
            device="two-qubit-test",
        )
        serve_one_feedline(tiny_profile(), two_qubit_chip, 30, **kwargs)
        serve_one_feedline(
            tiny_profile(name="tiny2"), two_qubit_chip, 30, **kwargs
        )
        registry = CalibrationRegistry(tmp_path)
        profiles = {key.profile for key in registry.keys()}
        assert profiles == {"tiny-s501", "tiny2-s501"}

    def test_seed_override_gets_its_own_artifact(self, tmp_path, two_qubit_chip):
        kwargs = dict(
            config=PipelineConfig(batch_size=30),
            registry_dir=tmp_path,
            device="two-qubit-test",
        )
        cold = serve_one_feedline(tiny_profile(), two_qubit_chip, 30, **kwargs)
        reseeded = serve_one_feedline(
            tiny_profile().with_seed(777), two_qubit_chip, 30, **kwargs
        )
        # A different calibration seed must not hit the base-seed cache.
        assert cold.calibration_cached is False
        assert reseeded.calibration_cached is False
        profiles = {key.profile for key in CalibrationRegistry(tmp_path).keys()}
        assert profiles == {"tiny-s501", "tiny-s777"}

    def test_different_chip_gets_its_own_artifact(self, tmp_path, two_qubit_chip):
        kwargs = dict(
            config=PipelineConfig(batch_size=30),
            registry_dir=tmp_path,
            device="dev",
        )
        serve_one_feedline(tiny_profile(), two_qubit_chip, 30, **kwargs)
        other = serve_one_feedline(
            tiny_profile(), make_two_qubit_chip(noise_std=5.0), 30, **kwargs
        )
        # Same device name, different chip parameters: the chip hash in
        # the key must force a fresh calibration, not serve stale kernels.
        assert other.calibration_cached is False
        devices = {key.device for key in CalibrationRegistry(tmp_path).keys()}
        assert len(devices) == 2

    def test_rejects_bad_shot_count(self, two_qubit_chip):
        with pytest.raises(ConfigurationError):
            serve_one_feedline(
                tiny_profile(), two_qubit_chip, 0, device="two-qubit-test"
            )

    def test_pipeline_config_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(max_pending=0)

    def test_sink_closed_when_a_stage_fails(self, tiny_corpus, pipeline_mlr):
        closed = []

        class _Sink(ResultSink):
            def consume(self, levels, joint, batch_id):
                pass

            def close(self):
                closed.append(True)
                return {}

        pipeline = ReadoutPipeline(
            pipeline_mlr, tiny_corpus.chip, PipelineConfig(), sink=_Sink()
        )
        # A longer window than the calibrated banks makes the matched
        # filter stage raise mid-run.
        long_feed = np.concatenate([tiny_corpus.feedline] * 2, axis=1)
        chunk = ShotChunk(long_feed, None, 0)

        class _Source:
            chip = tiny_corpus.chip
            n_shots = long_feed.shape[0]

            def chunks(self):
                yield chunk

        with pytest.raises(DataError):
            pipeline.run(_Source())
        assert closed == [True], "sink must be closed on the failure path"


class TestInlineDefaultSink:
    """A default run feeds ERASER+M on the thread that runs the batch loop."""

    CONFIG = PipelineConfig(batch_size=40)  # 9 batches of tiny_corpus

    def test_default_sink_runs_on_the_calling_thread(
        self, tiny_corpus, pipeline_mlr, monkeypatch
    ):
        consume = EraserSpeculationSink.consume
        seen = []

        def recording(sink, levels, joint, batch_id):
            seen.append((threading.get_ident(), threading.active_count()))
            return consume(sink, levels, joint, batch_id)

        monkeypatch.setattr(EraserSpeculationSink, "consume", recording)
        pipeline = ReadoutPipeline(pipeline_mlr, tiny_corpus.chip, self.CONFIG)
        before = threading.active_count()
        report = pipeline.run(CorpusTraceSource(tiny_corpus))
        assert len(seen) == report.n_batches == 9
        assert {ident for ident, _ in seen} == {threading.get_ident()}
        assert {count for _, count in seen} == {before}, "a run started a thread"
        assert report.sink_summary["shots_seen"] == tiny_corpus.n_traces
        assert "max_pending" not in report.sink_summary

    def test_default_sink_error_raises_at_its_batch(
        self, tiny_corpus, pipeline_mlr, monkeypatch
    ):
        fail_at = 3
        reached, decided = [], []
        consume = EraserSpeculationSink.consume
        process = BatchDiscriminationEngine.process

        def failing(sink, levels, joint, batch_id):
            reached.append(batch_id)
            if batch_id == fail_at:
                raise RuntimeError("speculation exploded")
            return consume(sink, levels, joint, batch_id)

        def counting(engine, *args, **kwargs):
            decided.append(1)
            return process(engine, *args, **kwargs)

        monkeypatch.setattr(EraserSpeculationSink, "consume", failing)
        monkeypatch.setattr(BatchDiscriminationEngine, "process", counting)
        pipeline = ReadoutPipeline(pipeline_mlr, tiny_corpus.chip, self.CONFIG)
        with pytest.raises(RuntimeError, match="speculation exploded"):
            pipeline.run(CorpusTraceSource(tiny_corpus))
        # Raised by that batch's consume, not deferred to close(): the
        # loop decided no later batch, and none reached the sink.
        assert reached == list(range(fail_at + 1))
        assert len(decided) == fail_at + 1
        monkeypatch.undo()
        again = pipeline.run(CorpusTraceSource(tiny_corpus))
        fresh = ReadoutPipeline(
            pipeline_mlr, tiny_corpus.chip, self.CONFIG
        ).run(CorpusTraceSource(tiny_corpus))
        assert again.n_shots == fresh.n_shots == tiny_corpus.n_traces
        assert again.assignment_counts == fresh.assignment_counts
        assert again.sink_summary == fresh.sink_summary
        assert again.drift_score == fresh.drift_score

    def test_queueing_wrapper_serves_what_the_inline_sink_serves(
        self, tiny_corpus, pipeline_mlr
    ):
        inline = ReadoutPipeline(
            pipeline_mlr, tiny_corpus.chip, self.CONFIG
        ).run(CorpusTraceSource(tiny_corpus))
        queued = ReadoutPipeline(
            pipeline_mlr,
            tiny_corpus.chip,
            self.CONFIG,
            sink=QueueingSink(
                EraserSpeculationSink(tiny_corpus.chip.n_qubits), max_pending=2
            ),
        ).run(CorpusTraceSource(tiny_corpus))
        assert queued.assignment_counts == inline.assignment_counts
        assert queued.accuracy == inline.accuracy
        assert inline.sink_summary["lrc_requests"] > 0
        summary = dict(queued.sink_summary)
        assert summary.pop("max_pending") == 2
        assert summary == inline.sink_summary


class TestPipelineConfigValidation:
    """PipelineConfig reports every invalid knob in one error."""

    @pytest.mark.parametrize("field_name", ["batch_size", "max_pending"])
    @pytest.mark.parametrize("value", [0, -1, -64])
    def test_rejects_non_positive_values(self, field_name, value):
        with pytest.raises(ConfigurationError, match=field_name):
            PipelineConfig(**{field_name: value})

    def test_reports_all_invalid_fields_at_once(self):
        with pytest.raises(ConfigurationError) as err:
            PipelineConfig(batch_size=0, max_pending=-1, drift_threshold=0.0)
        message = str(err.value)
        for field_name in ("batch_size", "max_pending", "drift_threshold"):
            assert field_name in message, message
        # One combined error, not the first violation alone.
        assert message.count("must be >= 1") == 2

    def test_valid_config_roundtrips_every_knob(self):
        config = PipelineConfig(
            batch_size=32,
            max_pending=4,
            drift_detection=False,
            drift_threshold=0.2,
            drift_ewma_alpha=0.5,
            drift_min_shots=10,
        )
        assert config.batch_size == 32
        assert config.max_pending == 4
        assert config.drift_detection is False
        assert config.drift_threshold == 0.2
        assert config.drift_ewma_alpha == 0.5
        assert config.drift_min_shots == 10
