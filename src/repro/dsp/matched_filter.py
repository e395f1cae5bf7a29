"""Matched filters for state discrimination (Sec V.B).

The paper defines the kernel for two trace classes as the mean difference
normalized by the variance difference,

    K(t) = (mu_1(t) - mu_0(t)) / (sigma_1^2(t) - sigma_0^2(t)),

and applies it by dot product, producing one likelihood score per trace.
The variance *difference* is singular whenever the two classes are equally
noisy (exactly the case for additive amplifier noise), so this module also
provides the standard variance-*sum* normalization and makes the choice an
explicit parameter:

- ``variance_mode="sum"`` (default): ``sigma_0^2 + sigma_1^2`` — the
  classic SNR-optimal filter for Gaussian noise.
- ``variance_mode="difference"``: the paper's formula, guarded by an
  epsilon floor. Benchmarked against "sum" in the MF ablation.
- ``variance_mode="unit"``: plain mean-difference (boxcar-weighted) filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError, DataError, ShapeError

__all__ = [
    "matched_filter_kernel",
    "apply_matched_filter",
    "fuse_demod_decimation",
    "MatchedFilterBank",
    "FusedKernelBank",
]

_VARIANCE_MODES = ("sum", "difference", "unit")


def _class_stats(traces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-time mean (complex) and total variance (real) of a trace class."""
    traces = np.asarray(traces)
    if traces.ndim != 2:
        raise ShapeError(f"traces must be 2-D, got {traces.shape}")
    if traces.shape[0] < 2:
        raise DataError("need at least 2 traces per class for variance")
    mean = traces.mean(axis=0)
    centered = traces - mean
    variance = np.mean(np.abs(centered) ** 2, axis=0)
    return mean, variance


def matched_filter_kernel(
    traces_a: np.ndarray,
    traces_b: np.ndarray,
    variance_mode: str = "sum",
    epsilon: float = 1e-9,
) -> np.ndarray:
    """Build a complex kernel separating class ``b`` (high) from ``a`` (low).

    Parameters
    ----------
    traces_a, traces_b:
        Complex trace arrays (n_shots, trace_len) for the two classes.
    variance_mode:
        Normalization of the mean difference; see module docstring.
    epsilon:
        Floor added to the denominator magnitude (relative to its median)
        to keep the paper's difference mode finite.
    """
    if variance_mode not in _VARIANCE_MODES:
        raise ConfigurationError(
            f"variance_mode must be one of {_VARIANCE_MODES}, got {variance_mode!r}"
        )
    mean_a, var_a = _class_stats(traces_a)
    mean_b, var_b = _class_stats(traces_b)
    if mean_a.shape != mean_b.shape:
        raise ShapeError("classes have different trace lengths")

    diff = mean_b - mean_a
    if variance_mode == "unit":
        return diff
    if variance_mode == "sum":
        denom = var_a + var_b
    else:
        denom = var_b - var_a
    scale = np.median(np.abs(denom))
    floor = epsilon * max(scale, 1e-300)
    guarded = np.sign(denom) * np.maximum(np.abs(denom), floor)
    guarded = np.where(guarded == 0.0, floor, guarded)
    return diff / guarded


def apply_matched_filter(kernel: np.ndarray, traces: np.ndarray) -> np.ndarray:
    """Score traces against a kernel: ``Re <K, z> = Re sum_t conj(K) z``.

    Higher scores mean "more like class b". Accepts a single trace or a
    batch; returns float scores.
    """
    kernel = np.asarray(kernel)
    traces = np.asarray(traces)
    if traces.shape[-1] != kernel.shape[0]:
        raise ShapeError(
            f"trace length {traces.shape[-1]} != kernel length {kernel.shape[0]}"
        )
    return np.real(traces @ np.conj(kernel))


def fuse_demod_decimation(
    kernels: np.ndarray, tone: np.ndarray, factor: int
) -> np.ndarray:
    """Fold demod tone and boxcar decimation into matched-filter kernels.

    The per-channel chain (offline feature extraction) computes, per
    trace ``z``,

        score_k = Re < K_k, boxcar(z * tone, factor) >,

    which is linear in ``z`` — so the whole chain collapses into one
    weight row per filter operating on the *raw* feedline:

        score_k = Re( z[:m] @ W_k ),   W_k[j] = tone[j] conj(K_k[j//d]) / d,

    with ``m = n_bins * factor`` (trailing samples beyond the last full
    boxcar group drop out, matching :func:`repro.dsp.filters
    .boxcar_decimate`). Returns the pre-conjugated weight matrix ``W``
    of shape ``(n_filters, n_bins * factor)`` — scores are
    ``np.real(feedline[:, :m] @ W.T)`` with no demodulated or decimated
    intermediates.
    """
    if factor < 1:
        raise ConfigurationError(f"factor must be >= 1, got {factor}")
    kernels = np.atleast_2d(np.asarray(kernels))
    tone = np.asarray(tone)
    n_bins = kernels.shape[1]
    if tone.shape[0] != n_bins * factor:
        raise ShapeError(
            f"tone length {tone.shape[0]} != {n_bins} bins x factor {factor}"
        )
    expanded = np.repeat(np.conj(kernels), factor, axis=1)
    return expanded * (tone / factor)


@dataclass(frozen=True)
class FusedKernelBank:
    """All channels' demod+decimate+matched-filter weights, stacked.

    One weight row per (qubit, filter), qubit-major, in the feature
    layout :class:`~repro.discriminators.features
    .MatchedFilterFeatureExtractor` defines. Only ``Re(feedline @ W.T)``
    is a feature and ``Re(z w) = Re z Re w - Im z Im w``, so scoring is
    one float32 GEMM (SGEMM) of the batch's no-copy complex64 ``(re,
    im)`` view: no per-qubit copies, no decimated intermediates, no
    imaginary half. Serving runs at the digitizer's own precision;
    ``weights`` keep the fitted complex128 values.

    Attributes
    ----------
    weights:
        Pre-conjugated complex weights ``(n_qubits * filters_per_qubit,
        n_samples)`` built by :func:`fuse_demod_decimation`.
    filters_per_qubit:
        Filters per channel (the per-qubit row block height).
    decimation:
        Boxcar factor folded into the weights.
    real_weights:
        ``(2 * n_samples, n_filters)`` float32 rows ``[Re W; -Im W]``.
    """

    weights: np.ndarray
    filters_per_qubit: int
    decimation: int
    real_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights)
        if weights.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got {weights.shape}")
        if self.filters_per_qubit < 1:
            raise ConfigurationError("filters_per_qubit must be >= 1")
        if weights.shape[0] % self.filters_per_qubit:
            raise ShapeError(
                f"{weights.shape[0]} rows not divisible by "
                f"{self.filters_per_qubit} filters per qubit"
            )
        real = np.empty((2 * weights.shape[1], weights.shape[0]), np.float32)
        real[0::2] = weights.real.T
        real[1::2] = -weights.imag.T
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "real_weights", real)

    @property
    def n_filters(self) -> int:
        return self.weights.shape[0]

    @property
    def n_samples(self) -> int:
        """Raw feedline samples consumed (``n_bins * decimation``)."""
        return self.weights.shape[1]

    def scores(self, feedline: np.ndarray, out: np.ndarray | None = None):
        """Score a raw feedline batch: ``Re(feedline[:, :m] @ W.T)``.

        ``out`` — an optional preallocated ``(n_shots, n_filters)``
        float block the scores are written into (the zero-copy serving
        path); a fresh float32 array is returned when omitted. Scores
        are float32 either way: a complex64 window is read in place,
        anything else is cast to complex64 once.
        """
        feedline = np.atleast_2d(np.asarray(feedline))
        if feedline.shape[1] < self.n_samples:
            raise ShapeError(
                f"trace length {feedline.shape[1]} shorter than fused "
                f"window {self.n_samples}"
            )
        window = feedline[:, : self.n_samples]
        unit_stride = window.strides[-1] == window.itemsize
        if window.dtype != np.complex64 or not unit_stride:
            window = window.astype(np.complex64, order="C")  # repro: allow(no-hidden-copy) only complex64 with unit element stride has a float32 (re, im) pair view; chunks and ring slots are complex64
        pairs = window.view(np.float32)
        if out is None:
            return pairs @ self.real_weights
        expected = (feedline.shape[0], self.n_filters)
        if out.shape != expected or not np.issubdtype(out.dtype, np.floating):
            raise ShapeError(
                f"out must be a float array of shape {expected}, got "
                f"{out.dtype} with shape {out.shape}"
            )
        return np.matmul(pairs, self.real_weights, out=out)


@dataclass(frozen=True)
class MatchedFilterBank:
    """An ordered set of named kernels applied together.

    The paper's per-qubit filter bank is nine kernels (three QMFs, three
    RMFs, three EMFs); :meth:`transform` turns a batch of demodulated
    traces into the (n_shots, n_filters) score block that feeds the NN.
    """

    names: tuple[str, ...]
    kernels: np.ndarray  # (n_filters, trace_len) complex

    def __post_init__(self) -> None:
        kernels = np.asarray(self.kernels)
        if kernels.ndim != 2:
            raise ShapeError(f"kernels must be 2-D, got {kernels.shape}")
        if len(self.names) != kernels.shape[0]:
            raise ShapeError(
                f"{len(self.names)} names for {kernels.shape[0]} kernels"
            )
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "kernels", kernels)

    @property
    def n_filters(self) -> int:
        return self.kernels.shape[0]

    @property
    def trace_len(self) -> int:
        return self.kernels.shape[1]

    def transform(self, traces: np.ndarray) -> np.ndarray:
        """Apply every kernel; returns (n_shots, n_filters) scores."""
        traces = np.atleast_2d(np.asarray(traces))
        return np.real(traces @ np.conj(self.kernels).T)

    def truncated(self, trace_len: int) -> "MatchedFilterBank":
        """Bank with kernels cut to a shorter readout window."""
        if not 1 <= trace_len <= self.trace_len:
            raise DataError(
                f"trace_len must be in [1, {self.trace_len}], got {trace_len}"
            )
        return MatchedFilterBank(
            self.names,
            self.kernels[:, :trace_len].copy(),  # repro: allow(no-hidden-copy) load-time kernel prep, not per-batch
        )
