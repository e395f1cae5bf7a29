"""Tests for the zero-copy hot path: fused kernels, buffer reuse,
shared-memory replay, and the hot-path bugfix sweep that rode along."""

from __future__ import annotations

import copy
import errno
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import RecordingBackend, SimulatorBackend, load_corpus
from repro.config import Profile
from repro.data import ReadoutCorpus, generate_corpus
from repro.data.basis import digits_to_state
from repro.discriminators import MLRDiscriminator
from repro.dsp.demod import demod_tone, demodulate
from repro.dsp.filters import boxcar_decimate
from repro.analysis.sanitizers import ENV_FLAG as SANITIZE_FLAG
from repro.analysis.sanitizers.ring import GuardedBufferRing
from repro.dsp.matched_filter import (
    FusedKernelBank,
    fuse_demod_decimation,
    padded_width,
)
from repro.exceptions import ConfigurationError, DataError, ShapeError
from repro.ml import stratified_split
from repro.ml.nn.activations import get_activation
from repro.physics.device import multi_feedline_chips
from repro.pipeline import shm as shm_module
from repro.pipeline.metrics import STAGE_ORDER, StageTimings
from repro.pipeline import (
    EXECUTOR_NAMES,
    BatchDiscriminationEngine,
    BufferRing,
    CollectingSink,
    CorpusTraceSource,
    EraserSpeculationSink,
    LatencyStats,
    MicroBatcher,
    MultiFeedlineRunner,
    PipelineConfig,
    ReadoutPipeline,
    SharedMemoryTraceSource,
    SharedTraceBlock,
    ShotChunk,
)
from tests.conftest import replay_once


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


def publish(corpus) -> SharedTraceBlock:
    """Publish an in-memory corpus's traces and labels to one segment."""
    return SharedTraceBlock(corpus.feedline, corpus.prepared_levels)


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
        out = np.empty((9, 8))  # six filters, padded to the GEMM's 8
        got = bank.scores(feed, out=out)
        assert got.base is out and got.shape == (9, 6)
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
    def _assert_within_sgemm_bound(bank, feed, got, expected):
        """``|got - expected| <= n * eps32 * (|pairs| @ |real_weights|)``.

        Each score is a length ``n = 2 * n_samples`` dot product of the
        window's ``(re, im)`` pairs with one ``real_weights`` column.
        Accumulating it in float32 errs by at most ``gamma_n = n *
        eps32 / 2`` times ``|pairs| @ |real_weights|`` (any summation
        order, FMA or not), and rounding the traces and the weights to
        float32 adds ``eps32 / 2`` of it each: ``n * eps32`` covers all
        three for ``n >= 2``. ``expected`` is the float64 product.
        """
        window = np.asarray(feed)[:, : bank.n_samples]
        pairs = window.astype(np.complex128).view(np.float64)
        n = pairs.shape[1]
        eps32 = np.finfo(np.float32).eps
        weights = bank.real_weights[:, : bank.n_filters].astype(np.float64)
        bound = n * eps32 * (np.abs(pairs) @ np.abs(weights))
        assert np.all(np.abs(got - expected) <= bound)

    def test_real_weights_interleave_re_and_minus_im(self, rng):
        bank, _ = self._bank_and_feed(rng)
        assert bank.real_weights.shape == (80, 8)  # 6 filters, 2 pad
        assert bank.real_weights.dtype == np.float32
        np.testing.assert_array_equal(
            bank.real_weights[0::2, :6],
            bank.weights.real.T.astype(np.float32),
        )
        np.testing.assert_array_equal(
            bank.real_weights[1::2, :6],
            -bank.weights.imag.T.astype(np.float32),
        )

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_real_gemm_matches_complex_product(self, rng, dtype):
        """Re(feed @ W.T) computed as one real GEMM over the (re, im)
        pair view, for both trace precisions the stream carries."""
        bank, feed = self._bank_and_feed(rng, n_shots=33)
        feed = feed.astype(dtype)
        expected = np.real(feed.astype(np.complex128) @ bank.weights.T)
        self._assert_within_sgemm_bound(
            bank, feed, bank.scores(feed), expected
        )
        out = np.empty((33, 8))
        assert bank.scores(feed, out=out).base is out
        self._assert_within_sgemm_bound(bank, feed, out[:, :6], expected)

    def test_real_gemm_on_slot_wider_than_window(self, rng):
        """Truncated serving: a ring slot wider than the fused window
        is scored on its first ``n_samples`` columns only."""
        bank, feed = self._bank_and_feed(rng, n_shots=12, trace_len=57)
        slot = np.empty((16, 64), dtype=np.complex128)
        view = slot[:12, :57]
        view[...] = feed
        expected = np.real(feed[:, :40] @ bank.weights.T)
        self._assert_within_sgemm_bound(
            bank, feed, bank.scores(view), expected
        )
        self._assert_within_sgemm_bound(
            bank, feed, bank.scores(feed), expected
        )

    def test_real_gemm_accepts_real_and_strided_traces(self, rng):
        bank, feed = self._bank_and_feed(rng, n_shots=5, trace_len=80)
        strided = feed[:, ::2]
        self._assert_within_sgemm_bound(
            bank,
            strided,
            bank.scores(strided),
            np.real(strided @ bank.weights.T),
        )
        real = feed.real[:, :40]
        self._assert_within_sgemm_bound(
            bank,
            real,
            bank.scores(real),
            np.real(real @ bank.weights.T),
        )

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((9, 5)),
            np.empty((9, 6)),
            np.empty((8, 8)),
            np.empty((9, 8), dtype=np.int64),
            np.empty((9, 8), dtype=np.complex128),
        ],
        ids=["short-row", "unpadded-row", "short-batch", "int", "complex"],
    )
    def test_bad_out_buffer_raises_shape_error(self, rng, out):
        bank, feed = self._bank_and_feed(rng)
        with pytest.raises(ShapeError):
            bank.scores(feed, out=out)


class TestPaddedBank:
    """The fused bank's GEMM runs at the BLAS kernel's width.

    Zero weight columns pad the score block to a multiple of 4; scores
    are the first ``n_filters`` columns and equal the unpadded product.
    Below ``padded_from`` shots (OpenBLAS's small-matrix kernel, and
    numpy's matrix-vector product at one shot) the GEMM runs on the
    unpadded view. On OpenBLAS 0.3.31 every score is bit-for-bit; the
    check allows 1 ulp, so another BLAS kernel cannot make it flaky.
    """

    @staticmethod
    def _bank(rng, n_filters, n_samples):
        weights = rng.normal(size=(n_filters, n_samples)) + 1j * rng.normal(
            size=(n_filters, n_samples)
        )
        return FusedKernelBank(
            weights=weights, filters_per_qubit=n_filters, decimation=1
        )

    @pytest.mark.parametrize("n_filters", range(3, 46))
    def test_pad_columns_are_zero_at_every_served_width(self, rng, n_filters):
        bank = self._bank(rng, n_filters, 20)
        width = padded_width(n_filters)
        assert width % 4 == 0 and n_filters <= width < n_filters + 4
        assert bank.real_weights.shape == (40, width)
        assert not np.any(bank.real_weights[:, n_filters:])
        assert np.all(np.any(bank.real_weights[:, :n_filters], axis=0))

    def test_padded_from_is_the_first_batch_over_the_small_gemm_bound(
        self, rng
    ):
        # 45 filters over 500 complex samples: 45,000 multiply-adds a
        # shot, so 22 shots (990,000) still fit OpenBLAS's 100**3.
        assert self._bank(rng, 45, 500).padded_from == 23
        # Never a one-shot batch: numpy runs that as a matrix-vector
        # product whatever its size.
        assert self._bank(rng, 45, 12000).padded_from == 2

    @pytest.mark.parametrize("n_shots", [1, 2, 16, 21, 22, 23, 255, 256, 300])
    def test_scores_are_the_unpadded_product(self, rng, n_shots):
        bank = self._bank(rng, 45, 500)
        feed = (
            rng.normal(size=(n_shots, 500)) + 1j * rng.normal(size=(n_shots, 500))
        ).astype(np.complex64)
        unpadded = np.ascontiguousarray(bank.real_weights[:, :45])
        expected = feed.view(np.float32) @ unpadded
        block = np.full((n_shots, 48), np.nan, dtype=np.float32)
        got = bank.scores(feed, out=block)
        assert got.shape == (n_shots, 45) and got.base is block
        np.testing.assert_array_max_ulp(got, expected, maxulp=1)
        np.testing.assert_array_max_ulp(bank.scores(feed), expected, maxulp=1)
        if n_shots >= bank.padded_from:
            assert not np.any(block[:, 45:])  # the GEMM filled the pad
        else:
            assert np.isnan(block[:, 45:]).all()  # the unpadded view ran

    def test_ring_feature_blocks_have_the_padded_width(
        self, fitted, tiny_corpus, monkeypatch
    ):
        """Plain and sanitizer rings alike: the pipeline sizes its ring
        from ``engine.feature_width``, 18 features padded to 20."""
        for armed in (False, True):
            if armed:
                monkeypatch.setenv(SANITIZE_FLAG, "1")
            else:
                monkeypatch.delenv(SANITIZE_FLAG, raising=False)
            pipeline = ReadoutPipeline(
                fitted, tiny_corpus.chip, PipelineConfig(batch_size=32)
            )
            pipeline.run(CorpusTraceSource(tiny_corpus, chunk_size=48))
            engine, ring = pipeline._engine, pipeline._ring
            assert isinstance(ring, GuardedBufferRing) is armed
            assert (engine.n_features, engine.feature_width) == (18, 20)
            assert ring.n_features == engine.feature_width
            assert ring._lent_features.shape == (32, 20)
            assert all(slot.features.shape == (32, 20) for slot in ring._slots)


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
    """The serving head stack against the scaler and per-head networks
    it merges.

    The stack takes raw matched-filter scores (the scaler is folded into
    its layer 1). Reference: the float64 scaler, then each head's own
    ``MLPClassifier.predict_proba`` on its feature block, then
    ``np.argmax`` and the sort-based top-2 margin.
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
    def _raw_and_scaled(disc, corpus, n_shots):
        raw = disc.extractor.transform(corpus, np.arange(n_shots))
        return raw, disc.scaler.transform(raw)

    @staticmethod
    def _margin_tolerance(disc, x):
        """Bound on the float32 stack's mean-margin error, from eps32.

        Per head, the logit error is bounded layer by layer the way the
        fused GEMM's is: rounding ``x`` to float32 errs by ``eps32 *
        |x|``; a layer's length-``n_in`` dot products add ``n_in * eps32
        * (|h| @ |W| + |b|)`` (accumulation, weight and bias rounding)
        and carry the incoming error through ``|W|`` (ReLU and the
        identity are 1-Lipschitz). A top-2 softmax margin moves by at
        most the largest logit error (its gradient has L1 norm <= 1),
        and evaluating it in float32 (``n_levels`` exps of a few ulp
        each, their sum, a difference, a division) adds under ``8 *
        n_levels * eps32``. The mean of the per-decision bounds bounds
        the mean margin.
        """
        eps32 = np.finfo(np.float32).eps
        bounds = []
        for q, model in enumerate(disc.models):
            h = disc._head_features(x, q)
            err = eps32 * np.abs(h)
            for layer in model.network.layers:
                weights = np.abs(layer.weights)
                n_in = weights.shape[0]
                err = err @ weights + n_in * eps32 * (
                    np.abs(h) @ weights + np.abs(layer.bias)
                )
                h = layer.forward(h)
            n_levels = h.shape[1]
            bounds.append(err.max(axis=1) + 8 * n_levels * eps32)
        return float(np.mean(bounds))

    @pytest.mark.parametrize("n_shots", [1, 16, 256])
    def test_matches_per_head_argmax_and_margin(
        self, disc, tiny_corpus, n_shots
    ):
        raw, x = self._raw_and_scaled(disc, tiny_corpus, n_shots)
        levels, margin = disc.head_levels_and_margin(raw)
        expected_levels, expected_margin = self._per_head(disc, x)
        assert levels.shape == (n_shots, tiny_corpus.n_qubits)
        assert levels.dtype == np.int64
        np.testing.assert_array_equal(levels, expected_levels)
        assert abs(margin - expected_margin) <= self._margin_tolerance(
            disc, x
        )

    def test_exact_logit_ties_keep_the_first_level(self, disc, tiny_corpus):
        """Level 1's output unit copied from level 0's: every logit pair
        ties exactly, and both paths pick level 0 wherever it wins."""
        tied = copy.deepcopy(disc)
        for model in tied.models:
            last = model.network.layers[-1]
            last.weights[:, 1] = last.weights[:, 0]
            last.bias[1] = last.bias[0]
        tied._stack_heads()
        raw, x = self._raw_and_scaled(tied, tiny_corpus, 256)
        levels, margin = tied.head_levels_and_margin(raw)
        expected_levels, expected_margin = self._per_head(tied, x)
        np.testing.assert_array_equal(levels, expected_levels)
        assert np.any(levels == 0) and not np.any(levels == 1)
        assert abs(margin - expected_margin) <= self._margin_tolerance(
            tied, x
        )

    def test_running_max_rule_on_handmade_logits(self):
        from repro.discriminators.mlr import _top2_levels_and_margins

        logits = np.array(
            [[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [3.0, 3.0, 3.0],
             [0.0, -1.0, 5.0], [2.0, 0.5, 1.0]]
        )
        # Level-major (n_levels, n_shots); the epilogue overwrites it.
        levels, margins = _top2_levels_and_margins(logits.T.copy())
        np.testing.assert_array_equal(levels, np.argmax(logits, axis=1))
        proba = np.exp(logits - logits.max(axis=1, keepdims=True))
        proba /= proba.sum(axis=1, keepdims=True)
        top2 = np.sort(proba, axis=1)[:, -2:]
        np.testing.assert_allclose(
            margins, top2[:, 1] - top2[:, 0], rtol=0, atol=1e-15
        )

    @staticmethod
    def _float64_top2(logits):
        """``np.argmax`` and the sort-based top-2 softmax margin, in
        float64, over the level axis of level-major logits."""
        wide = logits.astype(np.float64)
        proba = np.exp(wide - wide.max(axis=-2, keepdims=True))
        proba /= proba.sum(axis=-2, keepdims=True)
        top2 = np.sort(proba, axis=-2)[..., -2:, :]
        return np.argmax(wide, axis=-2), top2[..., 1, :] - top2[..., 0, :]

    @settings(max_examples=150, deadline=None)
    @given(
        n_heads=st.integers(min_value=1, max_value=6),
        n_levels=st.integers(min_value=2, max_value=5),
        n_shots=st.integers(min_value=1, max_value=300),
        spread=st.sampled_from([1e-3, 1.0, 8.0, 40.0]),
        tie_rate=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_epilogue_property(
        self, n_heads, n_levels, n_shots, spread, tie_rate, seed
    ):
        """Float32 level-major logits with forced exact ties: levels are
        ``np.argmax``'s (first max), margins within the float32
        evaluation bound ``8 * n_levels * eps32`` of float64."""
        from repro.discriminators.mlr import _top2_levels_and_margins

        rng = np.random.default_rng(seed)
        shape = (n_heads, n_levels, n_shots)
        logits = (rng.standard_normal(shape) * spread).astype(np.float32)
        heads, shots = np.nonzero(rng.random((n_heads, n_shots)) < tie_rate)
        # Copy the top logit (or a random level's) onto another level,
        # and flatten every level of a quarter of the tied decisions.
        source = np.where(
            rng.random(heads.size) < 0.5,
            logits.argmax(axis=1)[heads, shots],
            rng.integers(0, n_levels, heads.size),
        )
        target = rng.integers(0, n_levels, heads.size)
        logits[heads, target, shots] = logits[heads, source, shots]
        flat = rng.random(heads.size) < 0.25
        logits[heads[flat], :, shots[flat]] = logits[
            heads[flat], :1, shots[flat]
        ]
        expected_levels, expected_margins = self._float64_top2(logits)

        levels, margins = _top2_levels_and_margins(logits.copy())
        np.testing.assert_array_equal(levels, expected_levels)
        assert margins.dtype == np.float32
        bound = 8 * n_levels * np.finfo(np.float32).eps
        assert np.abs(margins - expected_margins).max() <= bound

    def test_recalibrated_clone_serves_through_its_own_scaler(
        self, disc, tiny_corpus
    ):
        """The refit scaler is folded into the clone's own stack: served
        decisions on the shortened window are the clone's offline ones,
        not what the parent's stack would make of the new scores."""
        train, _ = stratified_split(tiny_corpus.labels, 0.5, seed=31)
        short = tiny_corpus.truncated(120)
        clone = disc.with_recalibrated_scaler(short, train)
        result = BatchDiscriminationEngine(clone, short.chip).process(
            short.feedline
        )
        oracle = clone.predict_qubit_levels(short)
        assert int(np.count_nonzero(result.levels != oracle)) == 0
        np.testing.assert_array_equal(result.joint, clone.predict(short))

    @staticmethod
    def _allocating_pass(disc, x):
        """The served pass as it was before ReLUs ran in place: a fresh
        array per activation and the running first-max rule (``>`` and
        ``putmask``), on the same float32 stack."""
        (n_heads, width), layers = disc._head_stack
        (weights, bias), *deeper = layers
        h = weights @ x.T
        h += bias
        h = np.maximum(h, 0.0).reshape(n_heads, width, x.shape[0])
        for depth, (weights, bias) in enumerate(deeper, start=2):
            h = np.matmul(weights, h)
            h += bias
            if depth < len(layers):
                h = np.maximum(h, 0.0)
        first, *rows = [h[..., j, :] for j in range(h.shape[-2])]
        levels = (rows[0] > first).astype(np.int64)
        top = np.maximum(first, rows[0])
        second = np.minimum(first, rows[0])
        for level, row in enumerate(rows[1:], start=2):
            np.putmask(levels, row > top, level)
            np.maximum(second, np.minimum(row, top), out=second)
            np.maximum(top, row, out=top)
        h -= top[..., None, :]
        norm = np.exp(h, out=h).sum(axis=-2)
        second -= top
        margins = np.subtract(1.0, np.exp(second, out=second), out=second)
        margins /= norm
        return levels.T, float(margins.sum(dtype=np.float64)) / margins.size

    @pytest.mark.parametrize("n_shots", [1, 16, 256])
    def test_serves_the_allocating_pass_bit_for_bit(
        self, disc, tiny_corpus, n_shots
    ):
        """In-place ReLUs change no bit: levels and the mean margin equal
        the allocating pass exactly (at one shot numpy takes its
        matrix-vector path)."""
        raw, _ = self._raw_and_scaled(disc, tiny_corpus, 300)
        for start in range(0, 300 - n_shots + 1, max(n_shots, 37)):
            x = np.ascontiguousarray(raw[start : start + n_shots], np.float32)
            levels, margin = disc.head_levels_and_margin(x)
            expected_levels, expected_margin = self._allocating_pass(disc, x)
            np.testing.assert_array_equal(levels, expected_levels)
            assert margin == expected_margin

    def test_rejects_heads_the_stack_cannot_serve(self, disc):
        odd = copy.deepcopy(disc)
        odd.models[0].network.layers[0].activation = get_activation("tanh")
        with pytest.raises(ConfigurationError, match="ReLU"):
            odd._stack_heads()

    def test_artifact_round_trip_rebuilds_the_stack(self, disc, tiny_corpus):
        loaded = type(disc)._from_artifacts(
            disc._artifact_meta(), disc._artifact_arrays()
        )
        raw, _ = self._raw_and_scaled(disc, tiny_corpus, 64)
        got_levels, got_margin = loaded.head_levels_and_margin(raw)
        levels, margin = disc.head_levels_and_margin(raw)
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
    """Regression: in-order replay once copied every chunk via fancy
    indexing; it must yield contiguous views."""

    def test_unshuffled_chunks_are_views(self, tiny_corpus):
        source = CorpusTraceSource(tiny_corpus, chunk_size=64)
        for chunk in source.chunks():
            assert np.shares_memory(chunk.feedline, tiny_corpus.feedline)
            assert np.shares_memory(
                chunk.prepared_levels, tiny_corpus.prepared_levels
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

    @pytest.mark.parametrize("window", [1, 2, 16, 4096])
    def test_percentiles_match_numpy(self, window):
        """Summary and ``percentile`` interpolate as ``np.percentile``
        does over the window, ties included."""
        rng = np.random.default_rng(window)
        samples = np.round(rng.lognormal(-7.0, 1.0, window + 37), 5)
        stats = LatencyStats(window=window)
        for seconds in samples:
            stats.record(float(seconds))
        recent = samples[-window:]
        summary = stats.summary()
        for q, key in ((50.0, "p50_ms"), (99.0, "p99_ms")):
            expected = np.percentile(recent, q)
            assert summary[key] == pytest.approx(expected * 1e3, rel=1e-12)
            assert stats.percentile(q) == pytest.approx(expected, rel=1e-12)

    def test_memory_is_bounded(self):
        stats = LatencyStats(window=8)
        for _ in range(10_000):
            stats.record(0.5)
        assert stats.window_count == 8
        assert stats.count == 10_000

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LatencyStats(window=0)

    def test_record_batch_leaves_what_per_stage_records_leave(self):
        """One ``record_batch`` per batch fills every stage's window,
        count and totals as a checked ``LatencyStats.record`` per stage
        does, in report order; no batch, no stages."""
        rng = np.random.default_rng(5)
        timings = StageTimings()
        assert timings.ordered() == []
        reference = {name: LatencyStats(name) for name in STAGE_ORDER}
        for _ in range(50):
            seconds = tuple(float(s) for s in rng.random(3) * 1e-3)
            n_shots = int(rng.integers(1, 300))
            timings.record_batch(seconds, n_shots)
            for name, value in zip(STAGE_ORDER, seconds):
                reference[name].record(value, n_shots)
        assert [stats.name for stats in timings.ordered()] == list(STAGE_ORDER)
        for name in STAGE_ORDER:
            assert timings[name].summary() == reference[name].summary()
            assert list(timings[name]._samples) == list(
                reference[name]._samples
            )


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
        """3-shot chunks under 8-shot batches: every batch (8, 8, then
        the 4-shot flush over shots 16..19) spans chunks, so each is
        assembled into a complex64 ring slot."""
        ring = BufferRing(max_batch=8, n_features=6)
        feed = (
            rng.normal(size=(20, 10)) + 1j * rng.normal(size=(20, 10))
        ).astype(np.complex64)
        chunks = [
            ShotChunk(
                feedline=feed[i : i + 3],
                prepared_levels=None,
                chunk_id=i,
            )
            for i in range(0, 20, 3)
        ]
        batches = []
        for batch in MicroBatcher(8).rebatch(chunks, ring=ring):
            assert ring.paired_features(batch.feedline) is not None
            assert not np.shares_memory(batch.feedline, feed)
            batches.append(batch.feedline.copy())
        assert ring.acquired == len(batches) == 3
        np.testing.assert_array_equal(np.concatenate(batches), feed)

    @staticmethod
    def _aligned_batches(feed, ring, size=8):
        """Batches of ``size`` shots over chunks of ``size`` shots."""
        chunks = [
            ShotChunk(
                feedline=feed[i : i + size],
                prepared_levels=None,
                chunk_id=i // size,
            )
            for i in range(0, feed.shape[0], size)
        ]
        return MicroBatcher(size).rebatch(chunks, ring=ring)

    def test_aligned_batch_is_a_read_only_view_of_its_chunk(self, rng):
        ring = BufferRing(max_batch=8, n_features=6)
        feed = (
            rng.normal(size=(24, 10)) + 1j * rng.normal(size=(24, 10))
        ).astype(np.complex64)
        for i, batch in enumerate(self._aligned_batches(feed, ring)):
            assert np.shares_memory(batch.feedline, feed)
            np.testing.assert_array_equal(
                batch.feedline, feed[8 * i : 8 * (i + 1)]
            )
            assert not batch.feedline.flags.writeable
            with pytest.raises(ValueError):
                batch.feedline[0, 0] = 0
        assert feed.flags.writeable  # only the handed-off view is sealed
        assert ring.acquired == 0  # no slot acquired, nothing copied

    def test_aligned_batch_scores_into_a_ring_owned_feature_block(
        self, fitted, tiny_corpus
    ):
        engine = BatchDiscriminationEngine(fitted, tiny_corpus.chip)
        ring = BufferRing(max_batch=16, n_features=engine.feature_width)
        corpus = tiny_corpus.subset(np.arange(64))
        blocks, levels = [], []
        for batch in self._aligned_batches(corpus.feedline, ring, size=16):
            out = ring.paired_features(batch.feedline)
            assert out is not None and out.dtype == np.float32
            out.fill(np.nan)
            result = engine.process(batch.feedline, out_features=out)
            # The engine scored into its feature columns.
            assert np.isfinite(out[:, : engine.n_features]).all()
            blocks.append(out)
            levels.append(result.levels)
        assert ring.acquired == 0
        # One reused ring-owned block serves every aligned batch.
        assert all(np.shares_memory(b, blocks[0]) for b in blocks)
        np.testing.assert_array_equal(
            np.concatenate(levels), fitted.predict_qubit_levels(corpus)
        )

    def test_paired_features_of_foreign_buffers_is_none(self, tiny_corpus):
        """Arrays over a ``bytearray`` or a shared-memory mapping end
        their ``.base`` chain at a non-array buffer object: not ring
        memory, so no paired block (and no ``AttributeError``)."""
        ring = BufferRing(max_batch=8, n_features=6)
        ring.acquire(8, 10)
        ring.acquire(8, 10)
        raw = np.frombuffer(bytearray(8 * 10 * 8), dtype=np.complex64)
        block = raw.reshape(8, 10)
        assert ring.paired_features(block) is None
        assert ring.paired_features(block[:4]) is None
        shared = SharedTraceBlock(
            tiny_corpus.feedline[:8], tiny_corpus.prepared_levels[:8]
        )
        try:
            source = SharedMemoryTraceSource(
                shared.descriptor, tiny_corpus.chip, chunk_size=4
            )
            chunk = next(iter(source.chunks()))
            assert ring.paired_features(chunk.feedline) is None
            assert ring.paired_features(source.feedline) is None
            del chunk
            source.close()
        finally:
            shared.unlink()

    def test_results_never_alias_live_buffers(self, fitted, tiny_corpus):
        """Pipeline outputs must survive the ring wrapping: levels and
        joint are fresh arrays, not views of the reused ring slots."""
        chip = tiny_corpus.chip
        engine = BatchDiscriminationEngine(fitted, chip)
        ring = BufferRing(max_batch=16, n_features=engine.feature_width)
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


class TestExactFitBatches:
    """A chunk that is exactly one batch, arriving with nothing buffered,
    is handed off as it is; every other batch takes the segment path.
    Either way the batches are what slicing the whole stream gives."""

    @staticmethod
    def _stream(rng, sizes, unlabeled, trace_len=5):
        return [
            ShotChunk(
                feedline=(
                    rng.normal(size=(size, trace_len))
                    + 1j * rng.normal(size=(size, trace_len))
                ).astype(np.complex64),
                prepared_levels=(
                    None
                    if i in unlabeled
                    else rng.integers(0, 3, (size, 2)).astype(np.int8)
                ),
                chunk_id=i,
            )
            for i, size in enumerate(sizes)
        ]

    @staticmethod
    def _reference(chunks, size):
        """Per batch: its rows, its labels (None when a contributing
        chunk has none) and the chunk holding it whole, if one does."""
        feed = np.concatenate([chunk.feedline for chunk in chunks])
        owner = np.concatenate(
            [np.full(chunk.n_shots, i) for i, chunk in enumerate(chunks)]
        )
        offsets = np.cumsum([0] + [chunk.n_shots for chunk in chunks])
        batches = []
        for start in range(0, feed.shape[0], size):
            stop = min(start + size, feed.shape[0])
            owners = sorted(set(owner[start:stop].tolist()))
            labels = None
            if all(chunks[i].prepared_levels is not None for i in owners):
                labels = np.concatenate(
                    [
                        chunks[i].prepared_levels[
                            max(start - offsets[i], 0) : stop - offsets[i]
                        ]
                        for i in owners
                    ]
                )
            whole = owners[0] if len(owners) == 1 else None
            batches.append((feed[start:stop], labels, whole))
        return batches

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=12),
        sizes=st.lists(
            st.integers(min_value=1, max_value=30), min_size=1, max_size=10
        ),
        unlabeled=st.sets(st.integers(min_value=0, max_value=9), max_size=3),
        seed=st.integers(min_value=0, max_value=2**16),
        with_ring=st.booleans(),
    )
    def test_mixed_streams_match_the_reference(
        self, size, sizes, unlabeled, seed, with_ring
    ):
        # Every other chunk is exactly one batch.
        sizes = [size if i % 2 else n for i, n in enumerate(sizes)]
        chunks = self._stream(np.random.default_rng(seed), sizes, unlabeled)
        ring = BufferRing(max_batch=size, n_features=3) if with_ring else None
        expected = self._reference(chunks, size)
        n_batches = 0
        # Checked as they come: ring slots are reused.
        for batch, (rows, labels, whole) in zip(
            MicroBatcher(size).rebatch(chunks, ring=ring), expected
        ):
            assert batch.chunk_id == n_batches
            n_batches += 1
            np.testing.assert_array_equal(batch.feedline, rows)
            if labels is None:
                assert batch.prepared_levels is None
            else:
                np.testing.assert_array_equal(batch.prepared_levels, labels)
            if whole is not None:
                assert np.shares_memory(batch.feedline, chunks[whole].feedline)
                assert not batch.feedline.flags.writeable
        assert n_batches == len(expected)
        assert all(chunk.feedline.flags.writeable for chunk in chunks)

    def test_exact_fit_is_lent_to_the_ring_uncopied(self, rng):
        """Chunks 0 and 3 arrive as exact fits with nothing buffered; the
        8-shot chunk 5 arrives behind 4 buffered shots, so it is split."""
        chunks = self._stream(rng, [8, 5, 3, 8, 4, 8, 4], unlabeled=())
        ring = BufferRing(max_batch=8, n_features=3)
        whole = {0: 0, 2: 3}
        for batch in MicroBatcher(8).rebatch(chunks, ring=ring):
            features = ring.paired_features(batch.feedline)
            if batch.chunk_id in whole:
                chunk = chunks[whole[batch.chunk_id]]
                assert batch.feedline.base is chunk.feedline
                assert batch.prepared_levels is chunk.prepared_levels
                assert not batch.feedline.flags.writeable
                assert np.shares_memory(features, ring._lent_features)
            else:
                assert not np.shares_memory(features, ring._lent_features)
        assert ring.acquired == 3  # the three spanning batches only
        assert all(chunk.feedline.flags.writeable for chunk in chunks)


class TestDecideCallBudget:
    """The engine spends a fixed, small number of calls per batch.

    Counted with ``sys.setprofile`` inside one
    :meth:`BatchDiscriminationEngine.process` on a ring-lent batch:
    ``call`` events are Python frames, ``c_call`` events builtin and
    method calls (numpy ufunc calls and operators raise neither). Set on
    CPython 3.11 with numpy 2.4.6, where 5 Python-level and 8 C-level
    calls land at every batch size (the pass before them made 27 and
    30); the budget leaves one call of headroom on each.
    """

    PYTHON_CALLS = 6
    C_CALLS = 9

    @staticmethod
    def _calls(engine, feedline, out):
        counts = {"call": 0, "c_call": 0}

        def profile(frame, event, arg):
            if event in counts and arg is not sys.setprofile:
                counts[event] += 1

        sys.setprofile(profile)
        try:
            engine.process(feedline, out_features=out)
        finally:
            sys.setprofile(None)
        return counts

    def test_same_small_count_at_every_batch_size(self, fitted, tiny_corpus):
        engine = BatchDiscriminationEngine(fitted, tiny_corpus.chip)
        feed = np.ascontiguousarray(tiny_corpus.feedline, dtype=np.complex64)
        counts = []
        for n_shots in (1, 16, 256):
            ring = BufferRing(
                max_batch=n_shots, n_features=engine.feature_width
            )
            batch = feed[:n_shots]
            ring.lend(batch)
            out = ring.paired_features(batch)
            engine.process(batch, out_features=out)  # builds the fused bank
            counts.append(self._calls(engine, batch, out))
        assert counts[0] == counts[1] == counts[2], counts
        assert counts[0]["call"] <= self.PYTHON_CALLS, counts
        assert counts[0]["c_call"] <= self.C_CALLS, counts


class TestRunnerCallBudget:
    """The serving loop spends a fixed number of Python calls per batch.

    Counted with ``sys.setprofile`` over whole :meth:`ReadoutPipeline
    .run` calls of 10 and 20 sixteen-shot batches cut from 16-shot
    chunks (the exact-fit hand-off ``paced-b16`` serves); the
    difference over 10 is the per-batch count, free of per-run set-up.
    ``call`` events are Python frames, generator resumptions included.
    Set on CPython 3.11 with numpy 2.4.6, where 21 land per batch (26
    while each stage's time took two calls); the budget leaves one call
    of headroom. It holds the unarmed loop: the sanitizer ring's checks
    are Python calls of their own.
    """

    PYTHON_CALLS = 22

    def test_per_batch_python_calls(self, fitted, tiny_corpus, monkeypatch):
        monkeypatch.delenv(SANITIZE_FLAG, raising=False)
        pipeline = ReadoutPipeline(
            fitted, tiny_corpus.chip, PipelineConfig(batch_size=16)
        )

        def calls(n_batches):
            corpus = tiny_corpus.subset(np.arange(16 * n_batches))
            source = CorpusTraceSource(corpus, chunk_size=16)
            count = 0

            def profile(frame, event, arg):
                nonlocal count
                count += event == "call"

            sys.setprofile(profile)
            try:
                pipeline.run(source)
            finally:
                sys.setprofile(None)
            return count

        calls(1)  # builds the engine, its fused bank and the ring
        per_batch = (calls(20) - calls(10)) / 10
        assert per_batch <= self.PYTHON_CALLS, per_batch


class TestPipelineEngineParity:
    """End-to-end: the served pipeline report equals the offline oracle."""

    def _run(self, fitted, corpus, batch_size=48):
        config = PipelineConfig(batch_size=batch_size)
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
        """Adaptive batching is retired: a config asking for it is
        refused, and the fused run at its old 128-shot bound serves
        fixed 128-shot batches with the oracle's counts."""
        with pytest.raises(TypeError, match="adaptive_batching"):
            PipelineConfig(
                batch_size=48, adaptive_batching=True, max_batch_size=128
            )
        report = self._run(fitted, tiny_corpus, batch_size=128)
        assert report.n_batches == -(-tiny_corpus.n_traces // 128)
        assert report.assignment_counts == self._oracle_counts(
            fitted, tiny_corpus
        )


class _EraserCollectingSink(CollectingSink):
    """Keeps every label, and feeds the ERASER sink whose summary it
    reports: one run then yields both the served levels and the
    summary the default sink would give."""

    def __init__(self, n_qubits: int) -> None:
        super().__init__()
        self.eraser = EraserSpeculationSink(n_qubits)

    def consume(self, levels, joint, batch_id):
        super().consume(levels, joint, batch_id)
        self.eraser.consume(levels, joint, batch_id)

    def close(self) -> dict:
        return self.eraser.close()


class TestServingFlipBound:
    """Served per-qubit decisions against the float64 offline oracle.

    Serving is float32 from the source chunk to the decision; offline
    ``predict_qubit_levels`` runs the float64 per-channel chain. The
    ceiling is the paper's own fixed-point datapath, which ROADMAP
    measured flipping 0.43 % of per-qubit decisions (``HLSNetworkModel``
    at its default ``ap_fixed<8,3>`` weights and ``ap_fixed<16,8>``
    activations). Serving is held to 0 flips, the standard CI's
    ``counts_identical`` and perfbench's per-shot check already apply,
    for any batch and chunk size: one-shot batches, batches that are
    whole chunks (uncopied views), batches inside a chunk and batches
    spanning chunks (assembled in ring slots). How the stream is cut
    into batches must not change what is served either.
    """

    @pytest.fixture(scope="class")
    def recorded(self, two_qubit_chip, tmp_path_factory):
        path = tmp_path_factory.mktemp("flip-bound") / "corpus"
        inner = SimulatorBackend(two_qubit_chip, chunk_size=256)
        with RecordingBackend(inner, path) as backend:
            for _ in backend.acquire(2048, seed=907):
                pass
        corpus = load_corpus(path)
        levels = corpus.prepared_levels
        return ReadoutCorpus(
            feedline=corpus.feedline,
            labels=digits_to_state(
                levels.astype(np.int64), two_qubit_chip.n_levels
            ),
            prepared_levels=levels,
            initial_levels=levels,
            final_levels=levels,
            chip=two_qubit_chip,
        )

    @staticmethod
    def _serve(fitted, corpus, batch_size, chunk_size):
        """One run; returns its report and the served per-qubit levels."""
        sink = _EraserCollectingSink(corpus.chip.n_qubits)
        pipeline = ReadoutPipeline(
            fitted,
            corpus.chip,
            PipelineConfig(batch_size=batch_size),
            sink=sink,
        )
        report = pipeline.run(CorpusTraceSource(corpus, chunk_size=chunk_size))
        return report, sink.levels

    @pytest.fixture(scope="class")
    def oracle(self, fitted, recorded):
        return fitted.predict_qubit_levels(recorded)

    @pytest.fixture(scope="class")
    def reference(self, fitted, recorded):
        return self._serve(fitted, recorded, 256, 256)[0]

    def _check(
        self, fitted, recorded, oracle, reference, batch_size, chunk_size
    ):
        """Serve one partition; hold it to the oracle and the reference."""
        report, levels = self._serve(fitted, recorded, batch_size, chunk_size)
        assert report.n_shots == recorded.n_traces
        # Every batch is batch_size shots but the end-of-stream flush.
        assert report.n_batches == -(-recorded.n_traces // batch_size)
        assert levels.shape == oracle.shape
        assert int(np.count_nonzero(levels != oracle)) == 0
        # Any partition of the stream serves what the reference serves.
        # (Drift fields are left out: the monitor folds one EWMA step
        # per batch, so its score still follows the batch size.)
        assert report.assignment_counts == reference.assignment_counts
        assert report.accuracy == reference.accuracy
        assert report.sink_summary == reference.sink_summary

    @pytest.mark.parametrize(
        "batch_size, chunk_size",
        [(1, 100), (16, 16), (256, 100)],
        ids=["b1", "b16-whole-chunks", "b256-spanning-chunks"],
    )
    def test_no_per_qubit_flips(
        self, fitted, recorded, oracle, reference, batch_size, chunk_size
    ):
        self._check(
            fitted, recorded, oracle, reference, batch_size, chunk_size
        )

    @settings(max_examples=60, deadline=None)
    @given(
        batch_size=st.integers(min_value=1, max_value=300),
        chunk_size=st.integers(min_value=1, max_value=300),
    )
    def test_no_per_qubit_flips_at_any_partition(
        self, fitted, recorded, oracle, reference, batch_size, chunk_size
    ):
        self._check(
            fitted, recorded, oracle, reference, batch_size, chunk_size
        )


class TestSharedMemoryReplay:
    def test_block_round_trip_and_views(self, tiny_corpus):
        block = publish(tiny_corpus)
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

        block = publish(tiny_corpus)
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
        block = publish(tiny_corpus)
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
            publish(tiny_corpus)
        assert set(shm_dir.glob("psm_*")) == before


class TestClusterReplay:
    """Shared-memory replay must agree across executors."""

    @pytest.fixture(scope="class")
    def feedline_chips(self):
        return multi_feedline_chips(2, n_qubits=2, trace_len=120)

    @pytest.fixture(scope="class")
    def replay_corpus(self, feedline_chips):
        # Generated on feedline 0's chip and broadcast to both feedlines.
        return generate_corpus(feedline_chips[0], shots_per_state=8, seed=811)

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

    @staticmethod
    def _runner(feedline_chips, registry_dir, executor="serial"):
        return MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor=executor,
            workers=2,
            config=PipelineConfig(batch_size=32),
            registry_dir=registry_dir,
        )

    @staticmethod
    def _segments() -> set:
        return set(Path("/dev/shm").glob("psm_*"))

    def test_replay_matches_direct_run_across_executors(
        self, feedline_chips, replay_corpus, warm_registry, fitted
    ):
        del fitted  # unused; keeps fixture ordering obvious
        reference = None
        for executor in EXECUTOR_NAMES:
            with self._runner(
                feedline_chips, warm_registry, executor
            ) as runner:
                report = replay_once(runner, replay_corpus)
            counts = {
                name: fl.assignment_counts
                for name, fl in report.feedline_reports.items()
            }
            assert report.n_shots == 2 * replay_corpus.n_traces
            for fl in report.feedline_reports.values():
                assert fl.accuracy is not None
            if reference is None:
                reference = counts
            else:
                assert counts == reference

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_one_block_serves_every_feedline(
        self, executor, feedline_chips, replay_corpus, warm_registry
    ):
        before = self._segments()
        with self._runner(feedline_chips, warm_registry, executor) as runner:
            block = publish(replay_corpus)
            try:
                segment = Path("/dev/shm") / block.descriptor.name
                assert self._segments() - before == {segment}
                # Every run re-streams the one published segment.
                first, second = (
                    runner.dispatch_replay(block) for _ in range(2)
                )
                assert self._segments() - before == {segment}
            finally:
                runner.close()
                block.unlink()
        assert self._segments() == before
        for name, report in first.feedline_reports.items():
            assert report.n_shots == replay_corpus.n_traces
            assert (
                second.feedline_reports[name].assignment_counts
                == report.assignment_counts
            )
