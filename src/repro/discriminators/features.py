"""Matched-filter feature extraction for the paper's discriminator.

For each qubit the extractor builds (Tab. III):

- three Qubit Matched Filters (QMF) separating the state pairs
  (|0>,|1>), (|0>,|2>), (|1>,|2>);
- three Relaxation Matched Filters (RMF) for |1>->|0>, |2>->|0>, |2>->|1>
  error traces;
- three Excitation Matched Filters (EMF) for |0>->|1>, |0>->|2>, |1>->|2>
  error traces.

Error traces are mined with the centroid rule of
:mod:`repro.discriminators.error_traces`; when a pair has too few mined
instances to estimate a kernel, the extractor falls back to the pair's QMF
kernel (a defined, informative default) and records the fallback.

Feature layout: qubit-major, filter-minor —
``[q0-qmf01, q0-qmf02, q0-qmf12, q0-rmf10, ..., q1-qmf01, ...]`` giving
``9 * n_qubits`` columns (45 for the five-qubit chip, the paper's input
size). RMF/EMF groups can be disabled to reproduce HERQULES' 6-per-qubit
feature set or for the feature ablation.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ReadoutCorpus
from repro.discriminators.error_traces import tag_error_traces
from repro.dsp.demod import demod_tone, demodulate
from repro.dsp.filters import boxcar_decimate
from repro.dsp.matched_filter import (
    FusedKernelBank,
    MatchedFilterBank,
    fuse_demod_decimation,
    matched_filter_kernel,
)
from repro.dsp.mtv import mtv_points
from repro.exceptions import ConfigurationError, DataError, NotFittedError

__all__ = ["MatchedFilterFeatureExtractor"]

_QMF_PAIRS = ((0, 1), (0, 2), (1, 2))
_RMF_PAIRS = ((1, 0), (2, 0), (2, 1))
_EMF_PAIRS = ((0, 1), (0, 2), (1, 2))


class MatchedFilterFeatureExtractor:
    """Builds and applies the per-qubit QMF/RMF/EMF banks.

    Parameters
    ----------
    include_qmf, include_rmf, include_emf:
        Which filter families to build (all three for the paper's design;
        QMF+RMF for HERQULES; ablations toggle the rest).
    decimation:
        Boxcar decimation factor applied after demodulation, before kernel
        estimation and scoring (the paper's filtering stage).
    variance_mode:
        Matched-filter normalization; see
        :func:`repro.dsp.matched_filter.matched_filter_kernel`.
    min_error_traces:
        Minimum mined instances required to fit an RMF/EMF kernel; below
        this the pair's QMF kernel is substituted.
    """

    def __init__(
        self,
        include_qmf: bool = True,
        include_rmf: bool = True,
        include_emf: bool = True,
        decimation: int = 5,
        variance_mode: str = "sum",
        min_error_traces: int = 6,
    ) -> None:
        if not (include_qmf or include_rmf or include_emf):
            raise ConfigurationError("at least one filter family is required")
        if decimation < 1:
            raise ConfigurationError(f"decimation must be >= 1, got {decimation}")
        if min_error_traces < 2:
            raise ConfigurationError("min_error_traces must be >= 2")
        self.include_qmf = include_qmf
        self.include_rmf = include_rmf
        self.include_emf = include_emf
        self.decimation = decimation
        self.variance_mode = variance_mode
        self.min_error_traces = min_error_traces
        self.banks_: list[MatchedFilterBank] | None = None
        self.fallbacks_: list[tuple[str, ...]] | None = None
        self._chip = None

    @property
    def filters_per_qubit(self) -> int:
        """Number of kernels per qubit (3 per enabled family)."""
        return 3 * (
            int(self.include_qmf) + int(self.include_rmf) + int(self.include_emf)
        )

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Column names of :meth:`transform` output."""
        if self.banks_ is None:
            raise NotFittedError("extractor is not fitted")
        return tuple(
            f"q{q}-{name}"
            for q, bank in enumerate(self.banks_)
            for name in bank.names
        )

    def channel_baseband(
        self,
        feedline: np.ndarray,
        if_frequency_ghz: float,
        times_ns: np.ndarray,
    ) -> np.ndarray:
        """Demodulate and decimate one qubit channel of raw feedline traces.

        The front half of offline :meth:`fit` and :meth:`transform`; the
        streaming engine folds it into :meth:`fused_kernel_bank` instead.
        """
        return boxcar_decimate(
            demodulate(feedline, if_frequency_ghz, times_ns), self.decimation
        )

    def score_baseband(self, qubit: int, traces: np.ndarray) -> np.ndarray:
        """Matched-filter scores for one qubit's decimated baseband traces.

        Accepts windows no longer than the fitted one; kernels are
        truncated to match (the paper's no-retraining fast-readout mode).
        """
        if self.banks_ is None:
            raise NotFittedError("extractor is not fitted")
        bank = self.banks_[qubit]
        n_bins = traces.shape[1]
        if n_bins > bank.trace_len:
            raise DataError(
                f"corpus window ({n_bins} bins) exceeds fitted window "
                f"({bank.trace_len} bins)"
            )
        if n_bins < bank.trace_len:
            bank = bank.truncated(n_bins)
        return bank.transform(traces)

    def fused_kernel_bank(self, chip, trace_len: int) -> FusedKernelBank:
        """All qubits' kernels with demod tone and decimation folded in.

        Builds the stacked :class:`~repro.dsp.matched_filter
        .FusedKernelBank` for a raw readout window of ``trace_len``
        samples on ``chip``: row block ``q`` is qubit ``q``'s fitted
        kernels (truncated to the window, the no-retraining fast-readout
        mode) multiplied through by its demod tone and the boxcar
        weights. Applying the bank to a raw feedline batch reproduces
        ``score_baseband(q, channel_baseband(...))`` for every channel
        in one matmul — the serving engine's zero-copy front half.
        """
        if self.banks_ is None:
            raise NotFittedError("extractor is not fitted")
        if len(chip.qubits) != len(self.banks_):
            raise DataError(
                f"extractor calibrated for {len(self.banks_)} qubits, "
                f"chip has {len(chip.qubits)}"
            )
        n_bins = trace_len // self.decimation
        if n_bins == 0:
            raise DataError(
                f"trace length {trace_len} shorter than decimation "
                f"factor {self.decimation}"
            )
        fitted_bins = self.banks_[0].trace_len
        if n_bins > fitted_bins:
            raise DataError(
                f"corpus window ({n_bins} bins) exceeds fitted window "
                f"({fitted_bins} bins)"
            )
        times = chip.sample_times(trace_len)[: n_bins * self.decimation]
        rows = [
            fuse_demod_decimation(
                bank.kernels[:, :n_bins],
                demod_tone(chip.qubits[q].if_frequency_ghz, times),
                self.decimation,
            )
            for q, bank in enumerate(self.banks_)
        ]
        return FusedKernelBank(
            weights=np.vstack(rows),
            filters_per_qubit=self.filters_per_qubit,
            decimation=self.decimation,
        )

    def _demodulated(self, corpus: ReadoutCorpus, qubit: int) -> np.ndarray:
        return self.channel_baseband(
            corpus.feedline,
            corpus.chip.qubits[qubit].if_frequency_ghz,
            corpus.chip.sample_times(corpus.trace_len),
        )

    def _fit_qubit(
        self, traces: np.ndarray, levels: np.ndarray
    ) -> tuple[MatchedFilterBank, tuple[str, ...]]:
        """Build one qubit's bank from decimated baseband traces."""
        by_level = {s: traces[levels == s] for s in range(3)}
        for s, grp in by_level.items():
            if grp.shape[0] < 2:
                raise DataError(
                    f"need >= 2 training traces for level {s}, got {grp.shape[0]}"
                )

        qmf = {
            (a, b): matched_filter_kernel(
                by_level[a], by_level[b], self.variance_mode
            )
            for a, b in _QMF_PAIRS
        }

        names: list[str] = []
        kernels: list[np.ndarray] = []
        fallbacks: list[str] = []

        if self.include_qmf:
            for a, b in _QMF_PAIRS:
                names.append(f"qmf{a}{b}")
                kernels.append(qmf[(a, b)])

        if self.include_rmf or self.include_emf:
            points = mtv_points(traces)
            error_masks = tag_error_traces(points, levels, 3)

        def add_error_filter(kind: str, source: int, target: int) -> None:
            name = f"{kind}{source}{target}"
            mask = error_masks[(source, target)]
            clean = by_level[source]
            errors = traces[mask]
            if errors.shape[0] >= self.min_error_traces:
                kernel = matched_filter_kernel(clean, errors, self.variance_mode)
            else:
                pair = (min(source, target), max(source, target))
                kernel = qmf[pair]
                fallbacks.append(name)
            names.append(name)
            kernels.append(kernel)

        if self.include_rmf:
            for source, target in _RMF_PAIRS:
                add_error_filter("rmf", source, target)
        if self.include_emf:
            for source, target in _EMF_PAIRS:
                add_error_filter("emf", source, target)

        bank = MatchedFilterBank(tuple(names), np.vstack(kernels))
        return bank, tuple(fallbacks)

    def fit(
        self, corpus: ReadoutCorpus, indices: np.ndarray | None = None
    ) -> "MatchedFilterFeatureExtractor":
        """Estimate all kernels from the selected corpus rows."""
        idx = (
            np.arange(corpus.n_traces) if indices is None else np.asarray(indices)
        )
        subset = corpus.subset(idx)
        banks, fallbacks = [], []
        for q in range(corpus.n_qubits):
            traces = self._demodulated(subset, q)
            bank, fb = self._fit_qubit(traces, subset.qubit_labels(q))
            banks.append(bank)
            fallbacks.append(fb)
        self.banks_ = banks
        self.fallbacks_ = fallbacks
        self._chip = corpus.chip
        return self

    def transform(
        self, corpus: ReadoutCorpus, indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Score the selected rows; returns (n_shots, 9 * n_qubits) floats.

        Accepts corpora with a readout window no longer than the fitted
        one; kernels are truncated to match (the paper's no-retraining
        fast-readout mode).
        """
        if self.banks_ is None:
            raise NotFittedError("extractor is not fitted")
        idx = (
            np.arange(corpus.n_traces) if indices is None else np.asarray(indices)
        )
        subset = corpus.subset(idx)
        blocks = [
            self.score_baseband(q, self._demodulated(subset, q))
            for q in range(len(self.banks_))
        ]
        return np.concatenate(blocks, axis=1)

    def fit_transform(
        self, corpus: ReadoutCorpus, indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Fit on the selected rows and return their features."""
        return self.fit(corpus, indices).transform(corpus, indices)

    # -- calibration-artifact support ----------------------------------

    def artifact_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Fitted state as (JSON-able meta, named kernel arrays).

        Used by discriminator artifact export: the kernels are calibration
        data, so persisting them lets repeated runs skip re-mining error
        traces and re-estimating filters.
        """
        if self.banks_ is None:
            raise NotFittedError("extractor is not fitted")
        meta = {
            "include_qmf": self.include_qmf,
            "include_rmf": self.include_rmf,
            "include_emf": self.include_emf,
            "decimation": self.decimation,
            "variance_mode": self.variance_mode,
            "min_error_traces": self.min_error_traces,
            "bank_names": [list(bank.names) for bank in self.banks_],
            "fallbacks": [list(fb) for fb in self.fallbacks_],
        }
        arrays = {
            f"bank{q}_kernels": bank.kernels
            for q, bank in enumerate(self.banks_)
        }
        return meta, arrays

    @classmethod
    def from_artifact_state(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "MatchedFilterFeatureExtractor":
        """Rebuild a fitted extractor from :meth:`artifact_state` output."""
        extractor = cls(
            include_qmf=bool(meta["include_qmf"]),
            include_rmf=bool(meta["include_rmf"]),
            include_emf=bool(meta["include_emf"]),
            decimation=int(meta["decimation"]),
            variance_mode=str(meta["variance_mode"]),
            min_error_traces=int(meta["min_error_traces"]),
        )
        extractor.banks_ = [
            MatchedFilterBank(tuple(names), np.asarray(arrays[f"bank{q}_kernels"]))
            for q, names in enumerate(meta["bank_names"])
        ]
        extractor.fallbacks_ = [tuple(fb) for fb in meta["fallbacks"]]
        return extractor
