"""Shot sources: stream readout traces into the runtime in chunks.

A :class:`TraceSource` hides where traces come from and delivers them as
bounded :class:`ShotChunk` batches, so peak memory never depends on the
total shot count. Live and simulated traffic reach the pipeline through
an instrument backend (:mod:`repro.backends`: the dispersive simulator
is :class:`~repro.backends.simulator.SimulatorBackend`), a shared replay
segment through :class:`~repro.pipeline.shm.SharedMemoryTraceSource`,
and an in-memory :class:`~repro.data.dataset.ReadoutCorpus` through
:class:`CorpusTraceSource`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.basis import place_values
from repro.data.dataset import ReadoutCorpus
from repro.exceptions import ConfigurationError, ShapeError
from repro.physics.device import ChipConfig

__all__ = [
    "ShotChunk",
    "TraceSource",
    "CorpusTraceSource",
]


@dataclass(frozen=True)
class ShotChunk:
    """A contiguous block of multiplexed readout shots.

    Attributes
    ----------
    feedline:
        Complex traces (n_shots, trace_len), as digitized by the ADC pair.
    prepared_levels:
        Ground-truth per-qubit prepared levels (n_shots, n_qubits), or
        ``None`` when the source has no labels (live traffic). Used only to
        score the pipeline, never by the discriminator stages.
    chunk_id:
        Monotone sequence number assigned by the source.
    """

    feedline: np.ndarray
    prepared_levels: np.ndarray | None
    chunk_id: int

    def __post_init__(self) -> None:
        if self.feedline.ndim != 2:
            raise ShapeError(f"feedline must be 2-D, got {self.feedline.shape}")
        if (
            self.prepared_levels is not None
            and self.prepared_levels.shape[0] != self.feedline.shape[0]
        ):
            raise ShapeError(
                "prepared_levels rows must match feedline rows"
            )

    @property
    def n_shots(self) -> int:
        return self.feedline.shape[0]

    def joint_labels(self, n_levels: int) -> np.ndarray | None:
        """Ground-truth joint state indices, if labels are available.

        One range pass (recorded labels are input, so it stays) and one
        product with the cached :func:`~repro.data.basis.place_values`;
        int64 whatever the labels' integer dtype.
        """
        levels = self.prepared_levels
        if levels is None:
            return None
        if levels.size and (
            np.minimum.reduce(levels, axis=None) < 0
            or np.maximum.reduce(levels, axis=None) >= n_levels
        ):
            raise ConfigurationError(
                f"prepared levels must lie in [0, {n_levels})"
            )
        return levels @ place_values(levels.shape[-1], n_levels)


class TraceSource(ABC):
    """Streams :class:`ShotChunk` batches for one chip.

    A source is its chip, its :meth:`chunks` and :meth:`close`: how many
    shots it delivers is what it streams, and the run report counts them.
    """

    chip: ChipConfig

    @abstractmethod
    def chunks(self) -> Iterator[ShotChunk]:
        """Yield the stream, in chunk_id order."""

    def close(self) -> None:
        """Release what the stream holds (e.g. a mapping). Idempotent."""


class CorpusTraceSource(TraceSource):
    """Replays an in-memory corpus as a stream, in order.

    Useful for regression runs on saved datasets and for tests that need a
    deterministic stream. Every chunk is a contiguous read-only *view*
    into the corpus arrays: the downstream stages never write into a
    chunk's feedline, so nothing on the replay path copies traces.
    """

    def __init__(self, corpus: ReadoutCorpus, chunk_size: int = 256) -> None:
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.chip = corpus.chip
        self.corpus = corpus
        self.chunk_size = int(chunk_size)

    def chunks(self) -> Iterator[ShotChunk]:
        for chunk_id, start in enumerate(
            range(0, self.corpus.n_traces, self.chunk_size)
        ):
            stop = start + self.chunk_size
            # Views are shared with the corpus (and every other replay of
            # it): hand them out read-only so a downstream stage can never
            # silently corrupt it.
            feedline = self.corpus.feedline[start:stop]
            feedline.flags.writeable = False
            levels = self.corpus.prepared_levels[start:stop]
            levels.flags.writeable = False
            yield ShotChunk(
                feedline=feedline,
                prepared_levels=levels,
                chunk_id=chunk_id,
            )
