"""Differential tests for the streaming ERASER+M consumer.

``LevelStreamSpeculator.update`` walks only the |2> readouts of a batch.
``_ReferenceSpeculator`` below is the original per-cycle loop (a circular
evidence window with running per-qubit sums, one row at a time); the new
consumer must reproduce its flags and summary bit for bit on any policy,
any |2> density and any split of the stream into batches. Batches dense
in |2> hits under a one- or two-hit policy are folded in numpy instead
of walked; ``TestPairFold`` holds the fold to the per-hit loop.
"""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.pipeline.sink import EraserSpeculationSink
from repro.qec import eraser
from repro.qec.eraser import EraserConfig, LevelStreamSpeculator


class _ReferenceSpeculator:
    """The per-row reference: O(shots x qubits) work per batch."""

    def __init__(self, n_qubits, config):
        self.config = config
        self.n_qubits = n_qubits
        self._history = np.zeros((config.window, n_qubits), dtype=np.int64)
        self._sums = np.zeros(n_qubits, dtype=np.int64)
        self._pos = 0
        self.shots_seen = 0
        self.flags_per_qubit = np.zeros(n_qubits, dtype=np.int64)
        self.leaked_per_qubit = np.zeros(n_qubits, dtype=np.int64)

    def update(self, levels):
        flags = np.zeros(levels.shape, dtype=bool)
        for i, row in enumerate(levels):
            evidence = (row == 2).astype(np.int64)
            self.leaked_per_qubit += evidence
            self._sums += evidence - self._history[self._pos]
            self._history[self._pos] = evidence
            self._pos = (self._pos + 1) % self.config.window
            fired = self._sums >= self.config.direct_evidence_cycles
            flags[i] = fired
            if fired.any():
                self._history[:, fired] = 0
                self._sums[fired] = 0
        self.shots_seen += levels.shape[0]
        self.flags_per_qubit += flags.sum(axis=0)
        return flags

    # The summary format is the one under test, so share it.
    summary = LevelStreamSpeculator.summary
    total_flags = LevelStreamSpeculator.total_flags


def _levels(rng, n_shots, n_qubits, density):
    """Random labels in {0, 1} with |2> at the given density."""
    levels = rng.integers(0, 2, size=(n_shots, n_qubits))
    levels[rng.random((n_shots, n_qubits)) < density] = 2
    return levels


def _splits(rng, n_shots):
    """Random batch boundaries, with a run of 1-shot batches mixed in."""
    cuts = set(rng.integers(1, n_shots, size=8).tolist())
    start = int(rng.integers(0, n_shots - 4))
    cuts.update(range(start, start + 4))
    bounds = [0, *sorted(c for c in cuts if 0 < c < n_shots), n_shots]
    return list(zip(bounds[:-1], bounds[1:]))


_POLICIES = [
    (window, needed)
    for window, needed in itertools.product((1, 2, 3, 5), (1, 2, 3))
    if needed <= window
]


@pytest.mark.parametrize("density", [0.0, 0.02, 0.33, 0.9])
@pytest.mark.parametrize("window,needed", _POLICIES)
def test_matches_per_row_reference(window, needed, density):
    config = EraserConfig(
        window=window, activity_threshold=1, direct_evidence_cycles=needed
    )
    rng = np.random.default_rng(1000 * window + 10 * needed + int(100 * density))
    n_shots, n_qubits = 300, 4
    levels = _levels(rng, n_shots, n_qubits, density)
    fast = LevelStreamSpeculator(n_qubits, config)
    reference = _ReferenceSpeculator(n_qubits, config)
    for start, stop in _splits(rng, n_shots):
        batch = levels[start:stop]
        np.testing.assert_array_equal(fast.update(batch), reference.update(batch))
    assert fast.summary() == reference.summary()
    np.testing.assert_array_equal(fast.leaked_per_qubit, reference.leaked_per_qubit)


@pytest.mark.parametrize("density", [0.0, 0.02, 0.33, 0.9])
@pytest.mark.parametrize("window,needed", _POLICIES)
def test_sink_path_matches_update(window, needed, density):
    """The pipeline sink feeds the speculator without building flags; it
    must leave the state ``update`` leaves, fire where ``update``'s flags
    say, and summarize the same, on any policy, density and split."""
    config = EraserConfig(
        window=window, activity_threshold=1, direct_evidence_cycles=needed
    )
    rng = np.random.default_rng(2000 * window + 20 * needed + int(100 * density))
    n_shots, n_qubits = 300, 4
    levels = _levels(rng, n_shots, n_qubits, density)
    sink = EraserSpeculationSink(n_qubits, config)
    reference = LevelStreamSpeculator(n_qubits, config)
    probe = LevelStreamSpeculator(n_qubits, config)
    for batch_id, (start, stop) in enumerate(_splits(rng, n_shots)):
        batch = levels[start:stop]
        sink.consume(batch, batch[:, 0], batch_id)
        flags = reference.update(batch)
        rows, qubits = probe._advance(batch)
        assert sorted(zip(rows, qubits)) == sorted(
            zip(*np.nonzero(flags))
        )
    assert sink.close() == reference.summary() == probe.summary()
    for counter in ("leaked_per_qubit", "flags_per_qubit"):
        np.testing.assert_array_equal(
            getattr(sink.speculator, counter), getattr(reference, counter)
        )


def test_split_invariance_one_shot_batches():
    config = EraserConfig(window=5, activity_threshold=1, direct_evidence_cycles=3)
    levels = _levels(np.random.default_rng(7), 200, 5, 0.33)
    whole = LevelStreamSpeculator(5, config)
    shots = LevelStreamSpeculator(5, config)
    whole_flags = whole.update(levels)
    shot_flags = np.vstack([shots.update(levels[i : i + 1]) for i in range(200)])
    np.testing.assert_array_equal(whole_flags, shot_flags)
    assert whole.summary() == shots.summary()


def test_empty_batch_is_a_no_op():
    spec = LevelStreamSpeculator(3)
    flags = spec.update(np.zeros((0, 3), dtype=np.int64))
    assert flags.shape == (0, 3)
    assert spec.summary()["shots_seen"] == 0


class _LoopOnly:
    """Runs a speculator's calls with the pair fold switched off: the
    per-hit loop alone, the reference the fold must reproduce."""

    def __init__(self, speculator):
        self.speculator = speculator

    def __getattr__(self, name):
        method = getattr(self.speculator, name)

        def loop_only(*args):
            saved = eraser._PAIR_FOLD_MIN_HITS
            eraser._PAIR_FOLD_MIN_HITS = sys.maxsize
            try:
                return method(*args)
            finally:
                eraser._PAIR_FOLD_MIN_HITS = saved

        return loop_only


_PAIR_POLICIES = [
    (window, needed)
    for window in range(1, 6)
    for needed in (1, 2)
    if needed <= window
]


class TestPairFold:
    """Batches dense in |2> hits under a one- or two-hit policy take the
    numpy fold; sparse ones and every other policy walk the hits. The
    fold must leave exactly what the loop leaves, whichever path each
    batch of a stream takes."""

    @staticmethod
    def _stream(policy, n_qubits, n_shots, density, seed):
        window, needed = policy
        config = EraserConfig(
            window=window, activity_threshold=1, direct_evidence_cycles=needed
        )
        rng = np.random.default_rng(seed)
        return config, _levels(rng, n_shots, n_qubits, density), rng

    @settings(max_examples=120, deadline=None)
    @given(
        policy=st.sampled_from(_PAIR_POLICIES),
        n_qubits=st.integers(min_value=1, max_value=5),
        n_shots=st.integers(min_value=1, max_value=2000),
        density=st.floats(min_value=0.0, max_value=0.9),
        n_cuts=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fold_and_loop_agree_across_path_switches(
        self, policy, n_qubits, n_shots, density, n_cuts, seed
    ):
        config, levels, rng = self._stream(
            policy, n_qubits, n_shots, density, seed
        )
        cuts = rng.integers(0, n_shots + 1, size=n_cuts).tolist()
        bounds = sorted({0, n_shots, *cuts})
        folded = LevelStreamSpeculator(n_qubits, config)
        looped = LevelStreamSpeculator(n_qubits, config)
        flagged = LevelStreamSpeculator(n_qubits, config)
        flagged_loop = LevelStreamSpeculator(n_qubits, config)
        reference = _LoopOnly(looped)
        flags_reference = _LoopOnly(flagged_loop)
        for start, stop in zip(bounds[:-1], bounds[1:]):
            batch = levels[start:stop]
            rows, qubits = folded._advance(batch)
            expected_rows, expected_qubits = reference._advance(batch)
            assert list(map(int, rows)) == expected_rows
            assert list(map(int, qubits)) == expected_qubits
            assert folded._pending == looped._pending
            np.testing.assert_array_equal(
                flagged.update(batch), flags_reference.update(batch)
            )
        assert folded.summary() == looped.summary()
        assert flagged.summary() == flagged_loop.summary() == looped.summary()

    def test_a_stream_switches_paths_both_ways(self, monkeypatch):
        """Dense 300-shot and sparse 10-shot batches alternate, so the
        stream crosses the fold's bound in both directions."""
        config = EraserConfig(window=3, activity_threshold=1)
        rng = np.random.default_rng(11)
        folded = LevelStreamSpeculator(5, config)
        looped = _LoopOnly(LevelStreamSpeculator(5, config))
        folds = []
        fold = folded._fold_pairs
        monkeypatch.setattr(
            folded, "_fold_pairs", lambda *a: folds.append(1) or fold(*a)
        )
        for size in (300, 10, 300, 10, 10, 300):
            batch = _levels(rng, size, 5, 0.33)
            rows, qubits = folded._advance(batch)
            assert (list(map(int, rows)), list(map(int, qubits))) == (
                looped._advance(batch)
            )
        assert len(folds) == 3
        assert folded.summary() == looped.summary()

    def test_longer_policies_keep_the_loop(self, monkeypatch):
        config = EraserConfig(
            window=5, activity_threshold=1, direct_evidence_cycles=3
        )
        speculator = LevelStreamSpeculator(4, config)
        monkeypatch.setattr(
            speculator, "_fold_pairs", lambda *a: pytest.fail("folded")
        )
        speculator.update(_levels(np.random.default_rng(3), 400, 4, 0.5))
        assert speculator.total_flags > 0


class TestEraserConfigBounds:
    @pytest.mark.parametrize("window,needed", [(1, 2), (2, 3), (3, 5)])
    def test_direct_evidence_beyond_window_rejected(self, window, needed):
        with pytest.raises(ConfigurationError, match="direct_evidence_cycles"):
            EraserConfig(
                window=window, activity_threshold=1, direct_evidence_cycles=needed
            )

    @pytest.mark.parametrize("window,threshold", [(1, 2), (3, 4)])
    def test_activity_threshold_beyond_window_rejected(self, window, threshold):
        with pytest.raises(ConfigurationError, match="activity_threshold"):
            EraserConfig(
                window=window, activity_threshold=threshold, direct_evidence_cycles=1
            )

    def test_thresholds_equal_to_window_accepted(self):
        config = EraserConfig(window=2, activity_threshold=2, direct_evidence_cycles=2)
        assert config.window == 2
