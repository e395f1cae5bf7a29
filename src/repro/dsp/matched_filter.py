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
    "padded_width",
    "MatchedFilterBank",
    "FusedKernelBank",
]

_VARIANCE_MODES = ("sum", "difference", "unit")

_COMPLEX64 = np.dtype(np.complex64)

#: Column multiple of a fused bank's score block. OpenBLAS's float32
#: GEMM runs the columns past the last multiple of 4 through a slower
#: edge path: a 256 x 1000 x 45 product took 333 us at one thread and
#: 188 us at two, padded to 48 columns 284 and 157 us (46, 47, 52, 56
#: and 64 columns were all slower than 48).
_KERNEL_COLUMNS = 4

#: Largest float32 product, in multiply-adds (``M * N * K``), that
#: OpenBLAS (0.3.31) computes with its small-matrix kernel, which sums
#: in another order than its blocked GEMM. Pad columns that carry a
#: batch over this bound move its scores: at a 1000-float window, 21-
#: and 22-shot batches (945,000 and 990,000 unpadded, 1,008,000 and
#: 1,056,000 padded) moved, every other batch of 1-300 shots did not.
_SMALL_GEMM_MACS = 100**3


def padded_width(n_filters: int) -> int:
    """Columns of a fused bank's score block: ``n_filters`` rounded up
    to the BLAS kernel's multiple of 4 (45 -> 48)."""
    return -(-n_filters // _KERNEL_COLUMNS) * _KERNEL_COLUMNS


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

    Score blocks are :func:`padded_width` columns wide, and from
    ``padded_from`` shots up the GEMM runs on all of them: zero weight
    columns up to the BLAS kernel's multiple of 4, so OpenBLAS's
    blocked GEMM runs every column through its fast kernel. The pad
    columns score exactly 0 and nothing reads them; :meth:`scores`
    returns the ``n_filters`` view. Smaller batches multiply by the
    unpadded ``n_filters``-column view of the same weights: there
    OpenBLAS's small-matrix kernel (numpy's matrix-vector product at
    one shot) serves the product, gains nothing from the pad and would
    sum it in another order. On OpenBLAS 0.3.31 every score of a 1-300
    shot batch was bit-identical to the unpadded product's, at one and
    two threads; a BLAS whose kernels switch elsewhere may differ from
    it in the last bit.

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
        ``(2 * n_samples, padded_width(n_filters))`` float32 rows
        ``[Re W; -Im W]``, zero past column ``n_filters``.
    padded_from:
        Smallest batch the padded GEMM serves: the first whose unpadded
        product is over OpenBLAS's small-matrix bound (23 shots for 45
        filters over a 1000-float window), and at least 2.
    """

    weights: np.ndarray
    filters_per_qubit: int
    decimation: int
    real_weights: np.ndarray = field(init=False, repr=False, compare=False)
    padded_from: int = field(init=False, repr=False, compare=False)

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
        n_filters = weights.shape[0]
        real = np.zeros(
            (2 * weights.shape[1], padded_width(n_filters)), np.float32
        )
        real[0::2, :n_filters] = weights.real.T
        real[1::2, :n_filters] = -weights.imag.T
        macs_per_shot = max(1, n_filters * real.shape[0])
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "real_weights", real)
        object.__setattr__(
            self, "padded_from", max(2, _SMALL_GEMM_MACS // macs_per_shot + 1)
        )

    @property
    def n_filters(self) -> int:
        return self.weights.shape[0]

    @property
    def n_samples(self) -> int:
        """Raw feedline samples consumed (``n_bins * decimation``)."""
        return self.weights.shape[1]

    def scores(self, feedline: np.ndarray, out: np.ndarray | None = None):
        """Score a raw feedline batch: ``Re(feedline[:, :m] @ W.T)``.

        Returns the ``(n_shots, n_filters)`` scores, a view of a padded
        ``(n_shots, padded_width(n_filters))`` block (see the class
        docstring). ``out`` — an optional preallocated block of that
        padded shape (a ring feature block, the zero-copy serving path)
        the GEMM writes into; a fresh float32 block is used when
        omitted. Scores are float32 either way: a complex64 window is
        read in place, anything else is cast to complex64 once. The
        checks read attributes only, so a 2-D complex64 batch and a
        matching ``out`` cost one ``view`` and the GEMM.
        """
        if feedline.__class__ is not np.ndarray or feedline.ndim != 2:
            feedline = np.atleast_2d(np.asarray(feedline))
        n_filters, n_samples = self.weights.shape
        if feedline.shape[1] < n_samples:
            raise ShapeError(
                f"trace length {feedline.shape[1]} shorter than fused "
                f"window {n_samples}"
            )
        window = feedline[:, :n_samples]
        unit_stride = window.strides[-1] == window.itemsize
        if window.dtype != _COMPLEX64 or not unit_stride:
            window = window.astype(np.complex64, order="C")  # repro: allow(no-hidden-copy) only complex64 with unit element stride has a float32 (re, im) pair view; chunks and ring slots are complex64
        pairs = window.view(np.float32)
        weights = self.real_weights
        if out is not None:
            expected = (feedline.shape[0], weights.shape[1])
            if out.shape != expected or out.dtype.kind != "f":
                raise ShapeError(
                    f"out must be a float array of shape {expected}, got "
                    f"{out.dtype} with shape {out.shape}"
                )
        if feedline.shape[0] < self.padded_from:
            weights = weights[:, :n_filters]
            if out is not None:
                out = out[:, :n_filters]
        if out is None:
            return (pairs @ weights)[:, :n_filters]
        return np.matmul(pairs, weights, out=out)[:, :n_filters]


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
