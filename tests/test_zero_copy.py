"""Tests for the zero-copy hot path: fused kernels, buffer reuse,
shared-memory replay, and the hot-path bugfix sweep that rode along."""

from __future__ import annotations

import copy
import errno
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import Profile
from repro.data import generate_corpus
from repro.discriminators import MLRDiscriminator
from repro.dsp.demod import demod_tone, demodulate
from repro.dsp.filters import boxcar_decimate
from repro.dsp.matched_filter import FusedKernelBank, fuse_demod_decimation
from repro.exceptions import ConfigurationError, DataError, ShapeError
from repro.ml import stratified_split
from repro.physics.device import multi_feedline_chips
from repro.pipeline import shm as shm_module
from repro.pipeline import (
    EXECUTOR_NAMES,
    BatchDiscriminationEngine,
    BufferRing,
    CorpusTraceSource,
    LatencyStats,
    MicroBatcher,
    MultiFeedlineRunner,
    PipelineConfig,
    ReadoutPipeline,
    SharedMemoryTraceSource,
    SharedTraceBlock,
    ShotChunk,
)


def tiny_profile(**overrides) -> Profile:
    """A fast sizing profile for zero-copy tests (not a named profile)."""
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


@pytest.fixture(scope="module")
def fitted(tiny_corpus):
    train, _ = stratified_split(tiny_corpus.labels, 0.5, seed=31)
    return MLRDiscriminator(epochs=10, learning_rate=3e-3, seed=32).fit(
        tiny_corpus, train
    )


class TestFusedKernelMath:
    def test_fused_weights_reproduce_legacy_chain(self, rng):
        """One weight row == demod -> boxcar -> Re<K, .> exactly (to fp)."""
        n_shots, trace_len, factor = 7, 60, 4
        n_bins = trace_len // factor
        kernels = rng.normal(size=(3, n_bins)) + 1j * rng.normal(
            size=(3, n_bins)
        )
        times = np.arange(trace_len) * 0.5
        tone = demod_tone(-0.17, times)
        feed = rng.normal(size=(n_shots, trace_len)) + 1j * rng.normal(
            size=(n_shots, trace_len)
        )

        demodulated = demodulate(feed, -0.17, times)
        decimated = boxcar_decimate(demodulated, factor)
        legacy = np.real(decimated @ np.conj(kernels).T)

        weights = fuse_demod_decimation(kernels, tone, factor)
        fused = np.real(feed @ weights.T)
        np.testing.assert_allclose(fused, legacy, rtol=1e-12, atol=1e-12)

    def test_fused_weights_drop_trailing_partial_boxcar_group(self, rng):
        """trace_len not divisible by factor: trailing samples drop out,
        exactly like boxcar_decimate."""
        trace_len, factor = 61, 4
        n_bins = trace_len // factor
        kernels = rng.normal(size=(2, n_bins)) + 1j * rng.normal(
            size=(2, n_bins)
        )
        times = np.arange(trace_len) * 0.5
        feed = rng.normal(size=(5, trace_len)) + 1j * rng.normal(
            size=(5, trace_len)
        )
        tone = demod_tone(0.21, times)[: n_bins * factor]
        weights = fuse_demod_decimation(kernels, tone, factor)
        assert weights.shape == (2, n_bins * factor)
        legacy = np.real(
            boxcar_decimate(demodulate(feed, 0.21, times), factor)
            @ np.conj(kernels).T
        )
        np.testing.assert_allclose(
            np.real(feed[:, : n_bins * factor] @ weights.T),
            legacy,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_tone_length_mismatch_rejected(self, rng):
        kernels = rng.normal(size=(2, 10)) * (1 + 0j)
        with pytest.raises(ShapeError):
            fuse_demod_decimation(kernels, np.ones(39, dtype=complex), 4)

    def test_bank_scores_into_preallocated_buffers(self, rng):
        weights = rng.normal(size=(6, 40)) + 1j * rng.normal(size=(6, 40))
        bank = FusedKernelBank(
            weights=weights, filters_per_qubit=3, decimation=4
        )
        feed = rng.normal(size=(9, 40)) + 1j * rng.normal(size=(9, 40))
        expected = bank.scores(feed)
        out = np.empty((9, 6))
        got = bank.scores(feed, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)

    @staticmethod
    def _bank_and_feed(rng, n_shots=9, trace_len=40):
        weights = rng.normal(size=(6, 40)) + 1j * rng.normal(size=(6, 40))
        bank = FusedKernelBank(
            weights=weights, filters_per_qubit=3, decimation=4
        )
        feed = rng.normal(size=(n_shots, trace_len)) + 1j * rng.normal(
            size=(n_shots, trace_len)
        )
        return bank, feed

    @staticmethod
    def _assert_rel_close(got, expected):
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    def test_real_weights_interleave_re_and_minus_im(self, rng):
        bank, _ = self._bank_and_feed(rng)
        assert bank.real_weights.shape == (80, 6)
        assert bank.real_weights.dtype == np.float64
        np.testing.assert_array_equal(
            bank.real_weights[0::2], bank.weights.real.T
        )
        np.testing.assert_array_equal(
            bank.real_weights[1::2], -bank.weights.imag.T
        )

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_real_gemm_matches_complex_product(self, rng, dtype):
        """Re(feed @ W.T) computed as one real GEMM over the (re, im)
        pair view, for both trace precisions the stream carries."""
        bank, feed = self._bank_and_feed(rng, n_shots=33)
        feed = feed.astype(dtype)
        expected = np.real(feed.astype(np.complex128) @ bank.weights.T)
        self._assert_rel_close(bank.scores(feed), expected)
        out = np.empty((33, 6))
        assert bank.scores(feed, out=out) is out
        self._assert_rel_close(out, expected)

    def test_real_gemm_on_slot_wider_than_window(self, rng):
        """Truncated serving: a ring slot wider than the fused window
        is scored on its first ``n_samples`` columns only."""
        bank, feed = self._bank_and_feed(rng, n_shots=12, trace_len=57)
        slot = np.empty((16, 64), dtype=np.complex128)
        view = slot[:12, :57]
        view[...] = feed
        expected = np.real(feed[:, :40] @ bank.weights.T)
        self._assert_rel_close(bank.scores(view), expected)
        self._assert_rel_close(bank.scores(feed), expected)

    def test_real_gemm_accepts_real_and_strided_traces(self, rng):
        bank, feed = self._bank_and_feed(rng, n_shots=5, trace_len=80)
        strided = feed[:, ::2]
        self._assert_rel_close(
            bank.scores(strided), np.real(strided @ bank.weights.T)
        )
        self._assert_rel_close(
            bank.scores(feed.real[:, :40]),
            np.real(feed.real[:, :40] @ bank.weights.T),
        )

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((9, 5)),
            np.empty((8, 6)),
            np.empty((9, 6), dtype=np.int64),
            np.empty((9, 6), dtype=np.complex128),
        ],
        ids=["short-row", "short-batch", "int", "complex"],
    )
    def test_bad_out_buffer_raises_shape_error(self, rng, out):
        bank, feed = self._bank_and_feed(rng)
        with pytest.raises(ShapeError):
            bank.scores(feed, out=out)


class TestFusedEngineInvariance:
    """The correctness gate: fused assignments == the offline oracle.

    Offline ``predict`` scores every qubit channel through the per-channel
    demod -> decimate -> matched-filter chain that the fused bank replaced
    (the chain the retired ``legacy`` engine ran), so it checks the fused
    algebra through an independent code path.
    """

    @staticmethod
    def _assert_matches_oracle(fitted, corpus):
        result = BatchDiscriminationEngine(fitted, corpus.chip).process(
            corpus.feedline
        )
        np.testing.assert_array_equal(
            result.levels, fitted.predict_qubit_levels(corpus)
        )
        np.testing.assert_array_equal(result.joint, fitted.predict(corpus))

    def test_fused_matches_legacy_assignments(self, fitted, tiny_corpus):
        self._assert_matches_oracle(fitted, tiny_corpus.subset(np.arange(300)))

    def test_fused_matches_legacy_on_truncated_window(
        self, fitted, tiny_corpus
    ):
        """Truncated-window serving: a shorter raw window uses a prefix
        bank and must still agree with the per-channel chain on that
        window (offline ``predict`` truncates its kernels the same way)."""
        self._assert_matches_oracle(
            fitted, tiny_corpus.subset(np.arange(200)).truncated(150)
        )

    def test_fused_stage_schema_and_zero_demod(self, fitted, tiny_corpus):
        """Demodulation is folded into the kernels: no demod stage."""
        result = BatchDiscriminationEngine(fitted, tiny_corpus.chip).process(
            tiny_corpus.feedline[:32]
        )
        assert set(result.stage_seconds) == {"matched_filter", "discriminate"}
        assert result.stage_seconds["matched_filter"] > 0.0

    def test_window_longer_than_fitted_rejected(self, fitted, tiny_corpus):
        chip = tiny_corpus.chip
        engine = BatchDiscriminationEngine(fitted, chip)
        long_feed = np.zeros(
            (4, tiny_corpus.feedline.shape[1] + 8), dtype=complex
        )
        with pytest.raises(DataError):
            engine.process(long_feed)

    def test_empty_batch_raises_shape_error(self, fitted, tiny_corpus):
        """No shots is a shape error, not a division by zero in the
        stacked heads' mean margin."""
        engine = BatchDiscriminationEngine(fitted, tiny_corpus.chip)
        with pytest.raises(ShapeError):
            engine.process(tiny_corpus.feedline[:0])
        with pytest.raises(ShapeError):
            fitted.head_levels_and_margin(np.empty((0, engine.n_features)))

    def test_fused_bank_cached_per_window(self, fitted, tiny_corpus):
        engine = BatchDiscriminationEngine(fitted, tiny_corpus.chip)
        engine.process(tiny_corpus.feedline[:8])
        engine.process(tiny_corpus.feedline[:8, :150])
        engine.process(tiny_corpus.feedline[:8])
        assert sorted(engine._fused_banks) == [
            150,
            tiny_corpus.feedline.shape[1],
        ]


class TestStackedHeads:
    """The serving head stack against the per-head networks it merges.

    Reference: each head's own ``MLPClassifier.predict_proba`` on its
    feature block, then ``np.argmax`` and the sort-based top-2 margin.
    """

    @pytest.fixture(scope="class", params=[True, False],
                    ids=["neighbors", "own-qubit"])
    def disc(self, request, tiny_corpus):
        train, _ = stratified_split(tiny_corpus.labels, 0.5, seed=31)
        return MLRDiscriminator(
            neighbor_features=request.param,
            epochs=10,
            learning_rate=3e-3,
            seed=33,
        ).fit(tiny_corpus, train)

    @staticmethod
    def _per_head(disc, x):
        levels, margins = [], []
        for q, model in enumerate(disc.models):
            proba = model.predict_proba(disc._head_features(x, q))
            levels.append(np.argmax(proba, axis=1))
            top2 = np.sort(proba, axis=1)[:, -2:]
            margins.append(top2[:, 1] - top2[:, 0])
        return np.stack(levels, axis=1), float(np.mean(margins))

    @staticmethod
    def _scaled(disc, corpus, n_shots):
        return disc.scaler.transform(
            disc.extractor.transform(corpus, np.arange(n_shots))
        )

    @pytest.mark.parametrize("n_shots", [1, 16, 256])
    def test_matches_per_head_argmax_and_margin(
        self, disc, tiny_corpus, n_shots
    ):
        x = self._scaled(disc, tiny_corpus, n_shots)
        levels, margin = disc.head_levels_and_margin(x)
        expected_levels, expected_margin = self._per_head(disc, x)
        assert levels.shape == (n_shots, tiny_corpus.n_qubits)
        assert levels.dtype == np.int64
        np.testing.assert_array_equal(levels, expected_levels)
        assert abs(margin - expected_margin) <= 1e-12

    def test_exact_logit_ties_keep_the_first_level(self, disc, tiny_corpus):
        """Level 1's output unit copied from level 0's: every logit pair
        ties exactly, and both paths pick level 0 wherever it wins."""
        tied = copy.deepcopy(disc)
        for model in tied.models:
            last = model.network.layers[-1]
            last.weights[:, 1] = last.weights[:, 0]
            last.bias[1] = last.bias[0]
        tied._stack_heads()
        x = self._scaled(tied, tiny_corpus, 256)
        levels, margin = tied.head_levels_and_margin(x)
        expected_levels, expected_margin = self._per_head(tied, x)
        np.testing.assert_array_equal(levels, expected_levels)
        assert np.any(levels == 0) and not np.any(levels == 1)
        assert abs(margin - expected_margin) <= 1e-12

    def test_running_max_rule_on_handmade_logits(self):
        from repro.discriminators.mlr import _top2_levels_and_margins

        logits = np.array(
            [[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [3.0, 3.0, 3.0],
             [0.0, -1.0, 5.0], [2.0, 0.5, 1.0]]
        )
        levels, margins = _top2_levels_and_margins(logits)
        np.testing.assert_array_equal(levels, np.argmax(logits, axis=1))
        proba = np.exp(logits - logits.max(axis=1, keepdims=True))
        proba /= proba.sum(axis=1, keepdims=True)
        top2 = np.sort(proba, axis=1)[:, -2:]
        np.testing.assert_allclose(
            margins, top2[:, 1] - top2[:, 0], rtol=0, atol=1e-15
        )

    def test_artifact_round_trip_rebuilds_the_stack(self, disc, tiny_corpus):
        loaded = type(disc)._from_artifacts(
            disc._artifact_meta(), disc._artifact_arrays()
        )
        x = self._scaled(disc, tiny_corpus, 64)
        got_levels, got_margin = loaded.head_levels_and_margin(x)
        levels, margin = disc.head_levels_and_margin(x)
        np.testing.assert_array_equal(got_levels, levels)
        assert got_margin == margin


class TestRebatchLinearity:
    """Regression: list.pop(0) made fine-grained rebatching quadratic."""

    @staticmethod
    def _one_shot_chunks(n, trace_len=4):
        feed = np.zeros((1, trace_len), dtype=complex)
        levels = np.zeros((1, 2), dtype=np.int64)
        return [
            ShotChunk(feedline=feed, prepared_levels=levels, chunk_id=i)
            for i in range(n)
        ]

    def test_ten_thousand_one_shot_chunks_stay_linear(self):
        n = 10_000
        chunks = self._one_shot_chunks(n)
        start = time.perf_counter()
        batches = list(MicroBatcher(256).rebatch(chunks))
        elapsed = time.perf_counter() - start
        assert sum(b.n_shots for b in batches) == n
        assert all(b.n_shots == 256 for b in batches[:-1])
        # Generous absolute bound: linear drains in well under a second
        # even on a loaded CI box; the old quadratic path took minutes.
        assert elapsed < 5.0

    def test_rebatch_splits_and_labels_unchanged(self, rng):
        """Behavioral pin against the deque rewrite: same batches, same
        label carriage, same remainder flush."""
        sizes = [3, 7, 1, 12, 5, 2]
        chunks = []
        cursor = 0
        for i, size in enumerate(sizes):
            feed = (cursor + np.arange(size))[:, None] * (1 + 0j) * np.ones(4)
            levels = (
                None
                if i == 2
                else np.full((size, 2), i, dtype=np.int64)
            )
            chunks.append(
                ShotChunk(feedline=feed, prepared_levels=levels, chunk_id=i)
            )
            cursor += size
        batches = list(MicroBatcher(8).rebatch(chunks))
        assert [b.n_shots for b in batches] == [8, 8, 8, 6]
        merged = np.concatenate([b.feedline for b in batches])
        np.testing.assert_array_equal(
            merged[:, 0].real, np.arange(sum(sizes))
        )
        # The unlabeled chunk (shots 10..10) lands in batch 1 only.
        assert batches[0].prepared_levels is not None
        assert batches[1].prepared_levels is None
        assert batches[2].prepared_levels is not None
        assert batches[3].prepared_levels is not None


class TestCorpusSourceViews:
    """Regression: unshuffled replay copied every chunk via fancy
    indexing; it must yield contiguous views."""

    def test_unshuffled_chunks_are_views(self, tiny_corpus):
        source = CorpusTraceSource(tiny_corpus, chunk_size=64)
        for chunk in source.chunks():
            assert np.shares_memory(chunk.feedline, tiny_corpus.feedline)
            assert np.shares_memory(
                chunk.prepared_levels, tiny_corpus.prepared_levels
            )

    def test_shuffled_chunks_still_copy_and_permute(self, tiny_corpus):
        source = CorpusTraceSource(tiny_corpus, chunk_size=64, shuffle=True,
                                   seed=5)
        chunks = list(source.chunks())
        assert not any(
            np.shares_memory(c.feedline, tiny_corpus.feedline)
            for c in chunks
        )
        merged = np.concatenate([c.feedline for c in chunks])
        assert merged.shape == tiny_corpus.feedline.shape
        assert not np.array_equal(merged, tiny_corpus.feedline)
        np.testing.assert_array_equal(
            np.sort(merged.view(np.float64).ravel()),
            np.sort(tiny_corpus.feedline.view(np.float64).ravel()),
        )


class TestBoundedLatencyStats:
    """Regression: per-batch samples accumulated forever."""

    def test_totals_exact_past_the_window(self):
        stats = LatencyStats("demod", window=16)
        n = 100
        for i in range(n):
            stats.record(0.001 * (i + 1), n_shots=3)
        assert stats.count == n
        assert stats.total_shots == 3 * n
        assert stats.total_seconds == pytest.approx(
            0.001 * n * (n + 1) / 2
        )
        assert stats.window_count == 16
        # Percentiles reflect the bounded recent window only.
        assert stats.percentile(0.0) == pytest.approx(0.001 * (n - 15))
        assert stats.percentile(100.0) == pytest.approx(0.001 * n)

    def test_memory_is_bounded(self):
        stats = LatencyStats(window=8)
        for _ in range(10_000):
            stats.record(0.5)
        assert stats.window_count == 8
        assert stats.count == 10_000

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LatencyStats(window=0)


class TestBufferRing:
    def test_slots_are_reused_round_robin(self):
        ring = BufferRing(max_batch=32, n_features=6, slots=2)
        a = ring.acquire(16, 40)
        b = ring.acquire(16, 40)
        c = ring.acquire(16, 40)
        assert a.base is not b.base
        assert c.base is a.base  # wrapped around
        assert ring.acquired == 3

    def test_paired_features_matches_by_buffer_identity(self):
        ring = BufferRing(max_batch=32, n_features=6)
        feed = ring.acquire(10, 40)
        features = ring.paired_features(feed)
        assert features.shape == (10, 6)
        foreign = np.zeros((10, 40), dtype=complex)
        assert ring.paired_features(foreign) is None

    def test_oversized_batch_falls_back(self):
        ring = BufferRing(max_batch=8, n_features=6)
        assert ring.acquire(9, 40) is None

    def test_rebatch_assembles_into_ring_slots(self, rng):
        ring = BufferRing(max_batch=8, n_features=6)
        feed = rng.normal(size=(20, 10)) + 1j * rng.normal(size=(20, 10))
        chunks = [
            ShotChunk(
                feedline=feed[i : i + 5],
                prepared_levels=None,
                chunk_id=i,
            )
            for i in range(0, 20, 5)
        ]
        batches = []
        for batch in MicroBatcher(8).rebatch(chunks, ring=ring):
            assert ring.paired_features(batch.feedline) is not None
            batches.append(batch.feedline.copy())
        np.testing.assert_array_equal(np.concatenate(batches), feed)

    def test_results_never_alias_live_buffers(self, fitted, tiny_corpus):
        """Pipeline outputs must survive the ring wrapping: levels and
        joint are fresh arrays, not views of the reused ring slots."""
        chip = tiny_corpus.chip
        engine = BatchDiscriminationEngine(fitted, chip)
        ring = BufferRing(max_batch=16, n_features=engine.n_features)
        source = CorpusTraceSource(tiny_corpus, chunk_size=16)
        results = []
        slots = []
        for batch in MicroBatcher(16).rebatch(source.chunks(), ring=ring):
            out = ring.paired_features(batch.feedline)
            slots.append(out)
            results.append(engine.process(batch.feedline, out_features=out))
        # Re-run and check the retained outputs were not clobbered.
        joints = [r.joint.copy() for r in results]
        for batch in MicroBatcher(16).rebatch(
            CorpusTraceSource(tiny_corpus, chunk_size=16).chunks(), ring=ring
        ):
            engine.process(
                batch.feedline,
                out_features=ring.paired_features(batch.feedline),
            )
        for kept, again in zip(results, joints):
            np.testing.assert_array_equal(kept.joint, again)
            for slot in slots:
                assert not np.shares_memory(kept.joint, slot)
                assert not np.shares_memory(kept.levels, slot)


class TestPipelineEngineParity:
    """End-to-end: the served pipeline report equals the offline oracle."""

    def _run(self, fitted, corpus, **config_kw):
        config = PipelineConfig(batch_size=48, **config_kw)
        pipeline = ReadoutPipeline(fitted, corpus.chip, config)
        return pipeline.run(CorpusTraceSource(corpus, chunk_size=64))

    @staticmethod
    def _oracle_counts(fitted, corpus):
        return np.bincount(
            fitted.predict(corpus), minlength=corpus.n_levels**corpus.n_qubits
        ).tolist()

    def test_fused_and_legacy_reports_agree(self, fitted, tiny_corpus):
        """The served report agrees with the per-channel chain, run
        offline: same assignment counts, same accuracy."""
        report = self._run(fitted, tiny_corpus)
        oracle = fitted.predict(tiny_corpus)
        assert report.assignment_counts == self._oracle_counts(
            fitted, tiny_corpus
        )
        assert report.accuracy == pytest.approx(
            float(np.mean(oracle == tiny_corpus.labels))
        )

    def test_fused_with_adaptive_batching(self, fitted, tiny_corpus):
        report = self._run(
            fitted, tiny_corpus, adaptive_batching=True, max_batch_size=128
        )
        assert report.assignment_counts == self._oracle_counts(
            fitted, tiny_corpus
        )


class TestSharedMemoryReplay:
    def test_block_round_trip_and_views(self, tiny_corpus):
        block = SharedTraceBlock.from_corpus(tiny_corpus)
        try:
            source = SharedMemoryTraceSource(
                block.descriptor, tiny_corpus.chip, chunk_size=64
            )
            chunks = list(source.chunks())
            assert sum(c.n_shots for c in chunks) == tiny_corpus.n_traces
            # Zero-copy: every chunk is a view into the attached mapping.
            for chunk in chunks:
                assert np.shares_memory(chunk.feedline, source.feedline)
            np.testing.assert_array_equal(
                np.concatenate([c.feedline for c in chunks]),
                tiny_corpus.feedline,
            )
            np.testing.assert_array_equal(
                np.concatenate([c.prepared_levels for c in chunks]),
                tiny_corpus.prepared_levels,
            )
            source.close()
            source.close()  # idempotent
        finally:
            block.unlink()
            block.unlink()  # idempotent

    def test_descriptor_is_small_and_picklable(self, tiny_corpus):
        import pickle

        block = SharedTraceBlock.from_corpus(tiny_corpus)
        try:
            payload = pickle.dumps(block.descriptor)
            # The whole point: descriptor bytes << trace bytes.
            assert len(payload) < 1024
            assert tiny_corpus.feedline.nbytes > 100 * len(payload)
            clone = pickle.loads(payload)
            assert clone == block.descriptor
        finally:
            block.unlink()

    def test_qubit_mismatch_rejected(self, tiny_corpus, five_qubit_chip):
        block = SharedTraceBlock.from_corpus(tiny_corpus)
        try:
            with pytest.raises(ShapeError):
                SharedMemoryTraceSource(block.descriptor, five_qubit_chip)
        finally:
            block.unlink()

    def test_failed_publish_unlinks_its_segment(self, tiny_corpus, monkeypatch):
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm to count")
        before = set(shm_dir.glob("psm_*"))

        def no_space(fd, data, offset):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shm_module.os, "pwrite", no_space)
        with pytest.raises(OSError):
            SharedTraceBlock.from_corpus(tiny_corpus)
        assert set(shm_dir.glob("psm_*")) == before


class TestClusterReplay:
    """run_replay must agree with in-process replay on every executor."""

    @pytest.fixture(scope="class")
    def feedline_chips(self):
        return multi_feedline_chips(2, n_qubits=2, trace_len=120)

    @pytest.fixture(scope="class")
    def replay_corpora(self, feedline_chips):
        return [
            generate_corpus(chip, shots_per_state=8, seed=811 + i)
            for i, chip in enumerate(feedline_chips)
        ]

    @pytest.fixture(scope="class")
    def warm_registry(self, tmp_path_factory, feedline_chips):
        registry_dir = tmp_path_factory.mktemp("replay-registry")
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="serial",
            registry_dir=registry_dir,
        ) as runner:
            runner.prefit()
        return registry_dir

    def test_replay_matches_direct_run_across_executors(
        self, feedline_chips, replay_corpora, warm_registry, fitted
    ):
        del fitted  # unused; keeps fixture ordering obvious
        reference = None
        for executor in EXECUTOR_NAMES:
            with MultiFeedlineRunner(
                feedline_chips,
                tiny_profile(),
                executor=executor,
                workers=2,
                config=PipelineConfig(batch_size=32),
                registry_dir=warm_registry,
            ) as runner:
                report = runner.run_replay(replay_corpora)
            counts = {
                name: fl.assignment_counts
                for name, fl in report.feedline_reports.items()
            }
            assert report.n_shots == sum(
                c.n_traces for c in replay_corpora
            )
            for fl in report.feedline_reports.values():
                assert fl.accuracy is not None
            if reference is None:
                reference = counts
            else:
                assert counts == reference

    def test_replay_accepts_name_keyed_corpora(
        self, feedline_chips, replay_corpora, warm_registry
    ):
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="serial",
            registry_dir=warm_registry,
        ) as runner:
            by_name = {
                spec.name: corpus
                for spec, corpus in zip(runner.feedlines, replay_corpora)
            }
            report = runner.run_replay(by_name)
        assert report.n_shots == sum(c.n_traces for c in replay_corpora)

    def test_replay_count_mismatch_rejected(
        self, feedline_chips, replay_corpora, warm_registry
    ):
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="serial",
            registry_dir=warm_registry,
        ) as runner:
            with pytest.raises(ConfigurationError):
                runner.run_replay(replay_corpora[:1])
