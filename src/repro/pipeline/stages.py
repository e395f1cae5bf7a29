"""Vectorized discrimination stages with a fused zero-copy hot path.

Demodulation, boxcar decimation and matched filtering are linear in the
raw trace, so :meth:`~repro.discriminators.features
.MatchedFilterFeatureExtractor.fused_kernel_bank` folds them into one
weight bank per readout window. :class:`BatchDiscriminationEngine`
scores every channel of a micro-batch with one float32 GEMM over the
batch's complex64 ``(re, im)`` view — usually the source chunk's own
memory — straight into a reused float32 feature buffer, then runs all
per-qubit heads as one float32 stack on those raw scores: the fitted
scaler is folded into the stack's layer 1, so there is no
standardization pass. Serving has this one precision, the digitizer's.

A batch costs a fixed number of calls whatever its size, and at small
batches the calls are the cost, so what holds by construction is
checked once, where it is made: the model's stack at engine
construction, each fused bank once per trace length. The public entry
points the engine calls (:meth:`FusedKernelBank.scores`,
:meth:`MLRDiscriminator.head_levels_and_margin`) keep their checks,
which spend no call on a conforming batch. Joint labels are one
product with the cached :func:`repro.data.basis.place_values`, with
no range pass: the heads' levels are in range by construction.

The engine serves a fitted :class:`~repro.discriminators.mlr
.MLRDiscriminator` unchanged. Its offline ``predict`` still runs the
per-channel demod → decimate → matched-filter chain, the scaler and
each head on its own, in float64, which makes it the independent
parity oracle the engine is tested against (zero per-qubit flips on
recorded corpora).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# ``digits_to_state`` stays importable here: perfbench's layer tracer
# wraps ``stages.digits_to_state`` (its ``digits`` span, which reads 0
# now that the engine packs labels with ``place_values``).
from repro.data.basis import digits_to_state, place_values
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
        Wall time per stage for this batch: the fused GEMM under
        ``matched_filter``; heads and label packing under
        ``discriminate``.
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
        A fitted :class:`MLRDiscriminator` whose kernels and head stack
        (scaler folded in) are served unchanged.
    chip:
        The device the stream comes from (provides IFs and sample times).

    The fused weight bank is cached per raw trace length, so a warm
    serving loop recomputes none of it per batch.
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
        self._place_values = place_values(chip.n_qubits, chip.n_levels)
        # Per-trace-length cache (typically one entry; truncated-window
        # serving adds one per distinct window).
        self._fused_banks: dict[int, FusedKernelBank] = {}

    def process(
        self, feedline: np.ndarray, out_features: np.ndarray | None = None
    ) -> BatchResult:
        """Discriminate one micro-batch of raw feedline traces.

        ``out_features`` — optional preallocated ``(n_shots,
        n_features)`` float32 buffer (a :class:`~repro.pipeline.buffers
        .BufferRing` feature block) the fused GEMM writes raw scores
        into; without one the scores get a fresh array.
        """
        if feedline.__class__ is not np.ndarray or feedline.ndim != 2:
            feedline = np.atleast_2d(np.asarray(feedline))
        try:
            bank = self._fused_banks[feedline.shape[1]]
        except KeyError:
            bank = self.discriminator.extractor.fused_kernel_bank(
                self.chip, feedline.shape[1]
            )
            self._fused_banks[feedline.shape[1]] = bank

        t0 = time.perf_counter()
        x = bank.scores(feedline, out=out_features)
        t1 = time.perf_counter()
        # The shared helper keeps serving margins computed exactly like
        # the calibration-time reference margin drift scoring compares
        # against (and its argmax matches offline ``predict``).
        levels, mean_margin = self.discriminator.head_levels_and_margin(x)
        joint = levels @ self._place_values
        t2 = time.perf_counter()

        return BatchResult(
            levels=levels,
            joint=joint,
            stage_seconds={"matched_filter": t1 - t0, "discriminate": t2 - t1},
            mean_margin=mean_margin,
        )
