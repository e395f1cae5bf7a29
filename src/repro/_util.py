"""Small shared helpers: RNG handling and array validation."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ShapeError

__all__ = [
    "check_random_state",
    "as_2d_float",
    "as_1d_int",
    "child_rng",
    "json_finite",
]


def json_finite(value):
    """Make ``value`` strict-JSON safe: non-finite floats become ``None``.

    Strict JSON has no NaN/Infinity, and several report paths compute
    percentiles or rates over possibly-empty windows. This recursively
    maps ``nan``/``±inf`` floats to ``None`` (dicts, lists and tuples are
    walked; everything else passes through), so every ``to_dict`` output
    survives ``json.dumps(..., allow_nan=False)``.
    """
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, np.floating):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_finite(item) for item in value]
    return value


def check_random_state(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_rng(rng: np.random.Generator, *tags: int) -> np.random.Generator:
    """Derive an independent child generator from ``rng`` and integer tags.

    Used to give each sub-experiment its own stream so the order in which
    experiments run does not perturb each other's draws.
    """
    seeds = rng.integers(0, 2**63 - 1, size=max(1, len(tags)), dtype=np.int64)
    material = [int(s) for s in seeds] + [int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(material))


def as_2d_float(
    x: np.ndarray | Sequence, name: str = "X", *, dtype=np.float64
) -> np.ndarray:
    """Validate and return ``x`` as a 2-D float array (n_samples, n_features).

    ``dtype`` is float64 unless a caller computes in float32; an array
    already of ``dtype`` is returned uncopied.
    """
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ShapeError(f"{name} must contain at least one sample")
    return arr


def as_1d_int(y: np.ndarray | Sequence, name: str = "y") -> np.ndarray:
    """Validate and return ``y`` as a 1-D int64 label array."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ShapeError(f"{name} must contain at least one label")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.allclose(arr, rounded):
            raise ShapeError(f"{name} must hold integer labels")
        arr = rounded
    return arr.astype(np.int64)
