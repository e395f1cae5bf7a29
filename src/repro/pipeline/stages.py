"""Vectorized discrimination stages with a fused zero-copy hot path.

The multiplexed feedline carries one frequency channel per qubit, and the
front half of discrimination — digital down-conversion, boxcar decimation,
matched-filter scoring — is linear in the raw trace. The
:class:`BatchDiscriminationEngine` exploits that: the demod tone and
boxcar weights are folded into every qubit's matched-filter kernels once
at load time (see
:meth:`~repro.discriminators.features.MatchedFilterFeatureExtractor
.fused_kernel_bank`), so one matmul over the stacked
``(n_qubits * n_filters, trace_len)`` weight bank scores *all* channels
of a micro-batch directly from the raw feedline — no per-qubit
``feedline * tone`` copies, no decimated intermediates, no
``np.concatenate`` of per-channel score blocks. Scores land in a
caller-supplied (or engine-owned, reused) feature buffer; the tiny
per-qubit networks then classify the whole batch in one vectorized pass.

The engine consumes a *fitted* :class:`~repro.discriminators.mlr
.MLRDiscriminator` — it reuses the exact kernels, scaler, and heads, so
streaming predictions match offline ``predict``. That offline path still
runs the per-channel demod → decimate → matched-filter chain the fused
bank replaces, which makes it the independent parity oracle the engine
is tested against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.data.basis import digits_to_state
from repro.discriminators.mlr import MLRDiscriminator
from repro.dsp.matched_filter import FusedKernelBank
from repro.exceptions import DataError, NotFittedError
from repro.physics.device import ChipConfig

__all__ = ["BatchResult", "BatchDiscriminationEngine"]


@dataclass(frozen=True)
class BatchResult:
    """One micro-batch's discrimination output with stage timings.

    Attributes
    ----------
    levels:
        Per-qubit predicted levels (n_shots, n_qubits).
    joint:
        Joint state labels (n_shots,), base ``n_levels``.
    stage_seconds:
        Wall time per stage for this batch: the single fused matmul
        under ``matched_filter`` (demodulation is folded into the
        kernels at load time, so it has no stage of its own) and the
        scaler, heads and label packing under ``discriminate``.
    mean_margin:
        Mean top-2 probability margin over every (shot, qubit) head
        decision in the batch — the confidence signal online drift
        detection tracks (a drifting device erodes it long before
        assignments flip en masse).
    """

    levels: np.ndarray
    joint: np.ndarray
    stage_seconds: dict[str, float]
    mean_margin: float = float("nan")

    @property
    def n_shots(self) -> int:
        return self.levels.shape[0]


class BatchDiscriminationEngine:
    """Runs fitted-discriminator stages over raw feedline batches.

    Parameters
    ----------
    discriminator:
        A fitted :class:`MLRDiscriminator` whose kernels/scaler/heads are
        served unchanged.
    chip:
        The device the stream comes from (provides IFs and sample times).

    The fused weight bank is cached per raw trace length and the matmul
    scratch grows once to the largest batch, so a warm serving loop
    recomputes none of it per batch.
    """

    def __init__(
        self, discriminator: MLRDiscriminator, chip: ChipConfig
    ) -> None:
        if not getattr(discriminator, "_fitted", False):
            raise NotFittedError(
                "BatchDiscriminationEngine requires a fitted discriminator"
            )
        extractor = discriminator.extractor
        if extractor.banks_ is None:
            raise NotFittedError("discriminator's feature extractor is not fitted")
        if len(extractor.banks_) != chip.n_qubits:
            raise DataError(
                f"discriminator calibrated for {len(extractor.banks_)} "
                f"qubits, chip has {chip.n_qubits}"
            )
        self.discriminator = discriminator
        self.chip = chip
        self.n_features = chip.n_qubits * extractor.filters_per_qubit
        # Per-trace-length cache (typically one entry; truncated-window
        # serving adds one per distinct window).
        self._fused_banks: dict[int, FusedKernelBank] = {}
        # Reused per-batch workspaces, grown once to the largest batch.
        self._complex_scratch: np.ndarray | None = None
        self._feature_scratch: np.ndarray | None = None

    def _fused_bank(self, trace_len: int) -> FusedKernelBank:
        """The fused weight bank for a raw window, built once per length."""
        bank = self._fused_banks.get(trace_len)
        if bank is None:
            bank = self.discriminator.extractor.fused_kernel_bank(
                self.chip, trace_len
            )
            self._fused_banks[trace_len] = bank
        return bank

    def _scratch(self, n_shots: int) -> tuple[np.ndarray, np.ndarray]:
        """(complex, float) per-batch workspaces, reused across batches."""
        if (
            self._complex_scratch is None
            or self._complex_scratch.shape[0] < n_shots
        ):
            self._complex_scratch = np.empty(
                (n_shots, self.n_features), dtype=np.complex128
            )
            self._feature_scratch = np.empty(
                (n_shots, self.n_features), dtype=np.float64
            )
        return (
            self._complex_scratch[:n_shots],
            self._feature_scratch[:n_shots],
        )

    def process(
        self, feedline: np.ndarray, out_features: np.ndarray | None = None
    ) -> BatchResult:
        """Discriminate one micro-batch of raw feedline traces.

        ``out_features`` — optional preallocated ``(n_shots,
        n_features)`` float buffer (a :class:`~repro.pipeline.buffers
        .BufferRing` slot) the fused matmul writes raw scores into and
        standardizes in place; the engine's own reused scratch serves
        when omitted.
        """
        feedline = np.atleast_2d(np.asarray(feedline))
        disc = self.discriminator
        bank = self._fused_bank(feedline.shape[1])
        complex_scratch, feature_scratch = self._scratch(feedline.shape[0])
        features = feature_scratch if out_features is None else out_features

        t0 = time.perf_counter()
        x = bank.scores(feedline, out=features, scratch=complex_scratch)
        t1 = time.perf_counter()
        x = disc.scaler.transform_inplace(x)
        # The shared helper keeps serving margins computed exactly like
        # the calibration-time reference margin drift scoring compares
        # against (and its argmax matches offline ``predict``).
        levels, mean_margin = disc.head_levels_and_margin(x)
        joint = digits_to_state(levels, self.chip.n_levels)
        t2 = time.perf_counter()

        return BatchResult(
            levels=levels,
            joint=joint,
            stage_seconds={"matched_filter": t1 - t0, "discriminate": t2 - t1},
            mean_margin=mean_margin,
        )
