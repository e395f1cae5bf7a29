"""Shot sources: stream readout traces into the runtime in chunks.

A :class:`TraceSource` hides where traces come from — the dispersive
simulator generating them on the fly (:class:`SimulatorTraceSource`), or a
pre-built :class:`~repro.data.dataset.ReadoutCorpus` replayed from memory
(:class:`CorpusTraceSource`) — and delivers them as bounded
:class:`ShotChunk` batches so peak memory never depends on the total shot
count.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro._util import check_random_state
from repro.data.basis import digits_to_state
from repro.data.dataset import ReadoutCorpus
from repro.exceptions import ConfigurationError, ShapeError
from repro.physics.device import ChipConfig
from repro.physics.simulator import ReadoutSimulator

__all__ = [
    "ShotChunk",
    "TraceSource",
    "SimulatorTraceSource",
    "DriftingTraceSource",
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
        """Ground-truth joint state indices, if labels are available."""
        if self.prepared_levels is None:
            return None
        return digits_to_state(
            self.prepared_levels.astype(np.int64), n_levels
        )


class TraceSource(ABC):
    """Streams :class:`ShotChunk` batches for one chip."""

    chip: ChipConfig

    @property
    @abstractmethod
    def n_shots(self) -> int:
        """Total shots this source will deliver."""

    @abstractmethod
    def chunks(self) -> Iterator[ShotChunk]:
        """Yield the stream, in chunk_id order."""

    def close(self) -> None:
        """Release what the stream holds (e.g. a mapping). Idempotent."""


def _check_chunking(n_shots: int, chunk_size: int) -> None:
    if n_shots < 1:
        raise ConfigurationError(f"n_shots must be >= 1, got {n_shots}")
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")


class SimulatorTraceSource(TraceSource):
    """Generates shots on demand from the dispersive-readout simulator.

    Each chunk prepares independent uniformly random joint basis states
    (or draws from ``states`` when a restricted workload is wanted) and
    simulates one readout window for them — the steady-state traffic an
    online discriminator would see from a calibrated device.

    Parameters
    ----------
    chip:
        Device to simulate.
    n_shots:
        Total shots to stream.
    chunk_size:
        Shots per simulated chunk (bounds the simulator's working set).
    states:
        Optional subset of joint state indices to draw from.
    seed:
        RNG seed or generator for state draws and the simulator.
    """

    def __init__(
        self,
        chip: ChipConfig,
        n_shots: int,
        chunk_size: int = 256,
        states: np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        _check_chunking(n_shots, chunk_size)
        self.chip = chip
        self._n_shots = int(n_shots)
        self.chunk_size = int(chunk_size)
        self._rng = check_random_state(seed)
        if states is None:
            self.states = None
        else:
            states = np.asarray(states, dtype=np.int64)
            n_joint = chip.n_levels**chip.n_qubits
            if states.size == 0 or states.min() < 0 or states.max() >= n_joint:
                raise ConfigurationError(
                    f"states must be non-empty indices in [0, {n_joint})"
                )
            self.states = states
        self._sim = ReadoutSimulator(chip, seed=self._rng)

    @property
    def n_shots(self) -> int:
        return self._n_shots

    def _simulate(self, digits: np.ndarray, delivered: int):
        """Simulate one chunk; ``delivered`` shots preceded it.

        Hook for sources whose device varies along the stream
        (:class:`DriftingTraceSource`); the base device is stationary.
        """
        del delivered  # a stationary device has no stream clock
        return self._sim.simulate(digits)

    def chunks(self) -> Iterator[ShotChunk]:
        from repro.data.basis import state_to_digits

        chunk_id = 0
        delivered = 0
        remaining = self._n_shots
        while remaining > 0:
            size = min(self.chunk_size, remaining)
            if self.states is None:
                digits = self._rng.integers(
                    0, self.chip.n_levels, size=(size, self.chip.n_qubits)
                )
            else:
                joint = self._rng.choice(self.states, size=size)
                digits = state_to_digits(
                    joint, self.chip.n_qubits, self.chip.n_levels
                )
            result = self._simulate(digits, delivered)
            yield ShotChunk(
                feedline=result.feedline,
                prepared_levels=result.prepared_levels,
                chunk_id=chunk_id,
            )
            chunk_id += 1
            delivered += size
            remaining -= size


class DriftingTraceSource(SimulatorTraceSource):
    """Streams shots from a device whose parameters drift mid-session.

    Each chunk is simulated from the chip a :class:`~repro.physics.drift
    .DriftModel` predicts at that chunk's position on the session clock:
    ``shot_offset`` (traffic already served before this stream) plus the
    shots delivered so far. The calibrated discriminator downstream was
    fitted at clock zero, so a drifting stream is exactly the staleness
    scenario online drift detection and hot recalibration exist for.

    Everything but the per-chunk device — state draws, chunking, label
    carriage, RNG sharing — is inherited from
    :class:`SimulatorTraceSource`, so the two sources are bit-identical
    under a null drift model.

    Parameters
    ----------
    chip:
        The *calibrated* device; drift evolves away from it.
    drift:
        Parameter evolution applied per chunk.
    n_shots, chunk_size, states, seed:
        As :class:`SimulatorTraceSource`.
    shot_offset:
        Session shots already streamed before this source starts —
        serving sessions thread their cumulative shot clock through
        here so drift accumulates *across* runs, not just within one.
    """

    def __init__(
        self,
        chip: ChipConfig,
        drift,
        n_shots: int,
        chunk_size: int = 256,
        states: np.ndarray | None = None,
        seed: int | np.random.Generator | None = None,
        shot_offset: int = 0,
    ) -> None:
        if shot_offset < 0:
            raise ConfigurationError(
                f"shot_offset must be >= 0, got {shot_offset}"
            )
        super().__init__(
            chip, n_shots=n_shots, chunk_size=chunk_size, states=states,
            seed=seed,
        )
        self.drift = drift
        self.shot_offset = int(shot_offset)

    def _simulate(self, digits: np.ndarray, delivered: int):
        chip_now = self.drift.chip_at(
            self.chip, self.shot_offset + delivered
        )
        if chip_now is self.chip:
            return self._sim.simulate(digits)
        # A fresh simulator per drifted snapshot, sharing the stream's
        # RNG so the draw sequence matches the stationary source's.
        return ReadoutSimulator(chip_now, seed=self._rng).simulate(digits)


class CorpusTraceSource(TraceSource):
    """Replays an existing corpus as a stream (optionally shuffled).

    Useful for regression runs on saved datasets and for tests that need a
    deterministic stream. Unshuffled replay yields contiguous *views*
    into the corpus arrays — the downstream stages never write into a
    chunk's feedline, so copying every chunk (what fancy indexing with a
    shuffled order does unavoidably) was pure hot-path overhead.
    """

    def __init__(
        self,
        corpus: ReadoutCorpus,
        chunk_size: int = 256,
        shuffle: bool = False,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        _check_chunking(corpus.n_traces, chunk_size)
        self.chip = corpus.chip
        self.corpus = corpus
        self.chunk_size = int(chunk_size)
        # None marks in-order replay (the zero-copy path); an index
        # permutation exists only when a shuffle actually reorders.
        self._order: np.ndarray | None = None
        if shuffle:
            order = np.arange(corpus.n_traces)
            check_random_state(seed).shuffle(order)
            self._order = order

    @property
    def n_shots(self) -> int:
        return self.corpus.n_traces

    def chunks(self) -> Iterator[ShotChunk]:
        for chunk_id, start in enumerate(
            range(0, self.corpus.n_traces, self.chunk_size)
        ):
            stop = start + self.chunk_size
            if self._order is None:
                # Zero-copy views are shared with the corpus (and every
                # other replay of it): hand them out read-only so a
                # downstream stage can never silently corrupt it.
                feedline = self.corpus.feedline[start:stop]
                feedline.flags.writeable = False
                levels = self.corpus.prepared_levels[start:stop]
                levels.flags.writeable = False
            else:
                idx = self._order[start:stop]
                feedline = self.corpus.feedline[idx]
                levels = self.corpus.prepared_levels[idx]
            yield ShotChunk(
                feedline=feedline,
                prepared_levels=levels,
                chunk_id=chunk_id,
            )
