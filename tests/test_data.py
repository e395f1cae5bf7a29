"""Tests for basis-state bookkeeping and the readout corpus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ReadoutCorpus,
    digits_to_state,
    generate_calibration_shots,
    generate_corpus,
    n_basis_states,
    state_label,
    state_to_digits,
)
from repro.data.basis import all_states, marginal_labels, place_values
from repro.exceptions import ConfigurationError, DataError


class TestBasis:
    def test_counts(self):
        assert n_basis_states(5, 3) == 243
        assert n_basis_states(5, 2) == 32

    def test_big_endian_convention(self):
        # State index 1 has qubit n-1 (least significant) at level 1.
        digits = state_to_digits(1, 3, 3)
        np.testing.assert_array_equal(digits, [0, 0, 1])
        assert state_label(9, 3, 3) == "100"

    def test_round_trip_array(self):
        states = all_states(4, 3)
        digits = state_to_digits(states, 4, 3)
        np.testing.assert_array_equal(digits_to_state(digits, 3), states)

    def test_marginal_labels(self):
        joint = np.array([0, 1, 3, 9])  # 2 qutrits... 9 invalid for 2 qutrits
        joint = np.array([0, 1, 3, 8])
        np.testing.assert_array_equal(
            marginal_labels(joint, 0, 2, 3), [0, 0, 1, 2]
        )
        np.testing.assert_array_equal(
            marginal_labels(joint, 1, 2, 3), [0, 1, 0, 2]
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            state_to_digits(243, 5, 3)
        with pytest.raises(ConfigurationError):
            digits_to_state(np.array([3]), 3)

    @staticmethod
    def _old_digits_to_state(digits, n_levels):
        """The axis-sum formula digits_to_state used before its range
        check and matmul rewrite."""
        arr = np.asarray(digits, dtype=np.int64)
        if np.any(arr < 0) or np.any(arr >= n_levels):
            raise ConfigurationError("out of range")
        powers = n_levels ** np.arange(
            arr.shape[-1] - 1, -1, -1, dtype=np.int64
        )
        return np.sum(arr * powers, axis=-1)

    @pytest.mark.parametrize("n_levels", [2, 3, 4])
    @pytest.mark.parametrize("n_qudits", [1, 5])
    def test_digits_to_state_matches_old_formula(self, n_levels, n_qudits):
        rng = np.random.default_rng(n_levels * 10 + n_qudits)
        batch = rng.integers(0, n_levels, size=(64, n_qudits))
        for digits in (batch, batch[0], batch[:0], batch.T.copy().T):
            got = digits_to_state(digits, n_levels)
            expected = self._old_digits_to_state(digits, n_levels)
            assert np.asarray(got).dtype == np.int64
            np.testing.assert_array_equal(got, expected)
        for bad in (-1, n_levels):
            digits = batch.copy()
            digits[7, -1] = bad
            with pytest.raises(ConfigurationError):
                self._old_digits_to_state(digits, n_levels)
            with pytest.raises(ConfigurationError):
                digits_to_state(digits, n_levels)
            with pytest.raises(ConfigurationError):
                digits_to_state(digits[7], n_levels)

    def test_place_values_are_cached_and_read_only(self):
        powers = place_values(5, 3)
        assert powers.tolist() == [81, 27, 9, 3, 1]
        assert powers.dtype == np.int64
        assert place_values(5, 3) is powers
        assert not powers.flags.writeable
        with pytest.raises(ConfigurationError):
            place_values(2, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        n_qudits=st.integers(min_value=1, max_value=6),
        n_levels=st.integers(min_value=2, max_value=4),
        data=st.data(),
    )
    def test_round_trip_property(self, n_qudits, n_levels, data):
        state = data.draw(
            st.integers(min_value=0, max_value=n_levels**n_qudits - 1)
        )
        digits = state_to_digits(state, n_qudits, n_levels)
        assert digits_to_state(digits, n_levels) == state
        assert np.all(digits >= 0) and np.all(digits < n_levels)


class TestCorpus:
    def test_generation_covers_all_states(self, tiny_corpus):
        assert tiny_corpus.n_traces == 9 * 40
        assert set(np.unique(tiny_corpus.labels)) == set(range(9))

    def test_labels_match_prepared_levels(self, tiny_corpus):
        digits = state_to_digits(tiny_corpus.labels, 2, 3)
        np.testing.assert_array_equal(digits, tiny_corpus.prepared_levels)

    def test_qubit_labels_marginalize(self, tiny_corpus):
        np.testing.assert_array_equal(
            tiny_corpus.qubit_labels(0), tiny_corpus.prepared_levels[:, 0]
        )

    def test_iq_features_layout(self, tiny_corpus):
        features = tiny_corpus.iq_features()
        assert features.shape == (tiny_corpus.n_traces, 2 * tiny_corpus.trace_len)
        np.testing.assert_allclose(
            features[:, : tiny_corpus.trace_len],
            tiny_corpus.feedline.real,
            atol=1e-6,
        )

    def test_subset_selects_rows(self, tiny_corpus):
        sub = tiny_corpus.subset(np.array([0, 5, 7]))
        assert sub.n_traces == 3
        np.testing.assert_array_equal(sub.labels, tiny_corpus.labels[[0, 5, 7]])

    def test_truncated_shortens_window(self, tiny_corpus):
        short = tiny_corpus.truncated(50)
        assert short.trace_len == 50
        assert short.chip.trace_len == 50
        np.testing.assert_array_equal(
            short.feedline, tiny_corpus.feedline[:, :50]
        )

    def test_truncated_rejects_longer_window(self, tiny_corpus):
        with pytest.raises(DataError):
            tiny_corpus.truncated(tiny_corpus.trace_len + 1)

    def test_save_load_round_trip(self, tiny_corpus, tmp_path):
        path = tmp_path / "corpus.npz"
        tiny_corpus.save(path)
        loaded = ReadoutCorpus.load(path)
        np.testing.assert_array_equal(loaded.feedline, tiny_corpus.feedline)
        np.testing.assert_array_equal(loaded.labels, tiny_corpus.labels)
        assert loaded.chip.n_qubits == tiny_corpus.chip.n_qubits
        assert loaded.chip.qubits[0].chi == tiny_corpus.chip.qubits[0].chi

    def test_generation_is_deterministic(self, two_qubit_chip):
        a = generate_corpus(two_qubit_chip, shots_per_state=3, seed=5)
        b = generate_corpus(two_qubit_chip, shots_per_state=3, seed=5)
        np.testing.assert_array_equal(a.feedline, b.feedline)

    def test_chunking_does_not_change_content(self, two_qubit_chip):
        a = generate_corpus(two_qubit_chip, shots_per_state=3, seed=5, chunk_states=2)
        b = generate_corpus(two_qubit_chip, shots_per_state=3, seed=5, chunk_states=9)
        # Chunking changes RNG consumption order, so only shapes/labels match.
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.feedline.shape == b.feedline.shape

    def test_state_subset_generation(self, two_qubit_chip):
        corpus = generate_corpus(
            two_qubit_chip, shots_per_state=4, states=np.array([0, 8]), seed=1
        )
        assert set(np.unique(corpus.labels)) == {0, 8}


class TestCalibrationShots:
    def test_only_computational_states_prepared(self, tiny_calibration):
        assert tiny_calibration.prepared_levels.max() <= 1

    def test_natural_leakage_present(self, tiny_calibration):
        assert np.any(tiny_calibration.initial_levels == 2)

    def test_leakage_only_from_excited_preparation(self, tiny_calibration):
        leaked = tiny_calibration.initial_levels == 2
        prepared = tiny_calibration.prepared_levels
        assert np.all(prepared[leaked] == 1)
