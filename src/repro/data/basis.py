"""Joint basis-state indexing for ``n`` qudits with ``k`` levels each.

A joint state of five 3-level qubits is one of ``3**5 = 243`` basis states.
We index them with the big-endian base-``k`` convention used throughout the
paper's figures: qubit 0 is the most significant digit, so state index
``s`` assigns qubit ``q`` the level ``(s // k**(n-1-q)) % k`` and the label
string reads left to right, e.g. ``"20110"`` for qubit 0 leaked.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "n_basis_states",
    "state_to_digits",
    "digits_to_state",
    "place_values",
    "state_label",
    "all_states",
    "marginal_labels",
]


def _validate(n_qudits: int, n_levels: int) -> None:
    if n_qudits < 1:
        raise ConfigurationError(f"n_qudits must be >= 1, got {n_qudits}")
    if n_levels < 2:
        raise ConfigurationError(f"n_levels must be >= 2, got {n_levels}")


def n_basis_states(n_qudits: int, n_levels: int) -> int:
    """Number of joint basis states, ``n_levels ** n_qudits``."""
    _validate(n_qudits, n_levels)
    return n_levels**n_qudits


def state_to_digits(
    state: int | np.ndarray, n_qudits: int, n_levels: int
) -> np.ndarray:
    """Decompose joint state indices into per-qudit levels.

    Accepts a scalar or an array of state indices; returns an array whose
    last axis has length ``n_qudits`` (most significant digit first).
    """
    _validate(n_qudits, n_levels)
    arr = np.asarray(state, dtype=np.int64)
    if np.any(arr < 0) or np.any(arr >= n_levels**n_qudits):
        raise ConfigurationError(
            f"state index out of range [0, {n_levels ** n_qudits})"
        )
    return (arr[..., None] // place_values(n_qudits, n_levels)) % n_levels


@functools.lru_cache(maxsize=32)
def place_values(n_qudits: int, n_levels: int) -> np.ndarray:
    """Read-only int64 digit weights ``(k**(n-1), ..., k, 1)``.

    ``levels @ place_values(n, k)`` packs in-range ``(..., n)`` levels
    into joint state indices in one product; cached per ``(n, k)``, so
    a serving loop builds the vector once.
    """
    _validate(n_qudits, n_levels)
    powers = n_levels ** np.arange(n_qudits - 1, -1, -1, dtype=np.int64)
    powers.flags.writeable = False
    return powers


def digits_to_state(digits: np.ndarray, n_levels: int) -> np.ndarray:
    """Combine per-qudit levels (last axis) into joint state indices.

    Checks every level lies in ``[0, n_levels)``; levels in range by
    construction can skip that pass with ``digits @ place_values(...)``.
    """
    arr = np.asarray(digits, dtype=np.int64)
    if arr.shape[-1] < 1:
        raise ConfigurationError("digits must have at least one qudit")
    if arr.size and (arr.min() < 0 or arr.max() >= n_levels):
        raise ConfigurationError(f"digits must lie in [0, {n_levels})")
    return arr @ place_values(arr.shape[-1], n_levels)


def state_label(state: int, n_qudits: int, n_levels: int) -> str:
    """Human-readable label, e.g. state 0 of 5 qutrits -> ``"00000"``."""
    digits = state_to_digits(int(state), n_qudits, n_levels)
    return "".join(str(int(d)) for d in digits)


def all_states(n_qudits: int, n_levels: int) -> np.ndarray:
    """All joint state indices, ``[0, n_levels**n_qudits)``."""
    return np.arange(n_basis_states(n_qudits, n_levels), dtype=np.int64)


def marginal_labels(
    joint: np.ndarray, qudit: int, n_qudits: int, n_levels: int
) -> np.ndarray:
    """Per-qudit level of ``qudit`` for an array of joint state indices."""
    if not 0 <= qudit < n_qudits:
        raise ConfigurationError(f"qudit must be in [0, {n_qudits})")
    digits = state_to_digits(np.asarray(joint), n_qudits, n_levels)
    return digits[..., qudit]
