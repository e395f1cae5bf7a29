"""Shared-memory trace hand-off between cluster processes.

Dispatching a pre-built trace corpus to a worker process used to mean
pickling the full ``(n_shots, trace_len)`` complex array into the task
payload — megabytes serialized, copied through a pipe, and deserialized
per feedline. This module moves the hand-off to POSIX shared memory:
the parent publishes a corpus once as a :class:`SharedTraceBlock`
(every feedline replaying the corpus shares it) — from its arrays, or
from a recorded corpus's chunk files with no array in between — ships
only the tiny picklable :class:`SharedTraceDescriptor`
(segment name + dtypes + shapes), and workers attach by name and stream
zero-copy chunk views straight out of the mapping via
:class:`SharedMemoryTraceSource`.

Lifecycle contract: the creating process owns the segment and must call
:meth:`SharedTraceBlock.unlink` when every consumer is done (a serving
session does this at ``close()``, after its workers are stopped);
attached readers only ever :meth:`close <SharedMemoryTraceSource.close>`
their mapping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Iterator

import numpy as np

from repro.analysis.sanitizers import shmaudit
from repro.data.dataset import ReadoutCorpus
from repro.exceptions import ConfigurationError, ShapeError
from repro.physics.device import ChipConfig
from repro.pipeline.source import ShotChunk, TraceSource

__all__ = [
    "SharedTraceDescriptor",
    "SharedTraceBlock",
    "SharedMemoryTraceSource",
]


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    On Python < 3.13 ``SharedMemory`` has no ``track=False``: every
    attach re-registers the segment with the resource tracker. That is
    safe only while the attacher shares the creator's tracker process:
    re-registering an already-tracked name is then an idempotent set-add
    that the creator's single ``unlink`` clears. Forked shard workers do
    not share it by default — a worker forked before its parent started
    a tracker starts its own on first attach, and that tracker unlinks
    the segment when the worker exits. ``ProcessShardExecutor`` therefore
    starts the creator's tracker before it forks its workers. A worker
    attaches each segment once per warm cycle and keeps the mapping
    until its runner closes. Explicitly
    *unregistering* after attach (the common workaround) would be wrong
    too: in the serial executor the attacher IS the creator, and
    stripping the registration makes the later ``unlink``
    double-unregister and spew tracker KeyErrors.
    """
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        # Armed runs witness attach-after-unlink instead of leaving the
        # reader with only a bare FileNotFoundError.
        shmaudit.note_failed_attach(name)
        raise
    shmaudit.note_attach(name)
    return shm


def _write_at(
    shm: shared_memory.SharedMemory, offset: int, array: np.ndarray
) -> None:
    """Copy a contiguous array's bytes into ``shm`` at byte ``offset``.

    Written through the segment's POSIX file descriptor: the kernel
    fills the pages in bulk, which costs about half of faulting each
    page in through this process's mapping, and a full ``/dev/shm``
    becomes an ``OSError`` rather than a ``SIGBUS``.
    """
    data = array.reshape(-1).view(np.uint8)
    while data.size:
        written = os.pwrite(shm._fd, data, offset)
        data = data[written:]
        offset += written


@dataclass(frozen=True)
class SharedTraceDescriptor:
    """Picklable handle to one feedline's shared trace arrays.

    The feedline traces and their prepared-level labels live
    back-to-back in a single segment; offsets are implied (labels start
    at ``feedline_nbytes``).
    """

    name: str
    n_shots: int
    trace_len: int
    n_qubits: int
    feedline_dtype: str
    levels_dtype: str

    def __post_init__(self) -> None:
        if self.n_shots < 1:
            raise ConfigurationError(f"n_shots must be >= 1, got {self.n_shots}")
        if self.trace_len < 1:
            raise ConfigurationError(
                f"trace_len must be >= 1, got {self.trace_len}"
            )
        if self.n_qubits < 1:
            raise ConfigurationError(
                f"n_qubits must be >= 1, got {self.n_qubits}"
            )

    @property
    def feedline_nbytes(self) -> int:
        return (
            self.n_shots
            * self.trace_len
            * np.dtype(self.feedline_dtype).itemsize
        )

    @property
    def levels_nbytes(self) -> int:
        return (
            self.n_shots * self.n_qubits * np.dtype(self.levels_dtype).itemsize
        )


class SharedTraceBlock:
    """Creator-side shared-memory publication of one trace corpus.

    Parameters
    ----------
    feedline:
        Complex traces ``(n_shots, trace_len)`` to publish.
    prepared_levels:
        Ground-truth labels ``(n_shots, n_qubits)``.
    label:
        Optional human-readable owner tag (e.g. the feedline name);
        sanitizer-armed runs include it in lifetime-audit witnesses.

    The arrays are copied into the segment once at construction;
    workers attach by :attr:`descriptor` and read views. A corpus that
    is not in memory goes in through :meth:`from_writer` instead: the
    segment is sized from a geometry and filled by a writer callback
    (``load_corpus(path, into=block)`` writes a recorded corpus straight
    from its chunk files), so no whole-corpus array is ever built. Both
    share one creation path, which unlinks the segment if filling it
    raises. Call :meth:`unlink` (idempotent) when all consumers are
    done.
    """

    def __init__(
        self,
        feedline: np.ndarray,
        prepared_levels: np.ndarray,
        label: str | None = None,
    ) -> None:
        feedline = np.ascontiguousarray(feedline)
        prepared_levels = np.ascontiguousarray(prepared_levels)
        if feedline.ndim != 2:
            raise ShapeError(f"feedline must be 2-D, got {feedline.shape}")
        if (
            prepared_levels.ndim != 2
            or prepared_levels.shape[0] != feedline.shape[0]
        ):
            raise ShapeError(
                "prepared_levels must be (n_shots, n_qubits) matching feedline"
            )

        def fill(block: SharedTraceBlock) -> None:
            block.write(0, feedline)
            block.write(feedline.nbytes, prepared_levels)

        self._create(
            fill,
            n_shots=feedline.shape[0],
            trace_len=feedline.shape[1],
            n_qubits=prepared_levels.shape[1],
            feedline_dtype=feedline.dtype,
            levels_dtype=prepared_levels.dtype,
            label=label,
        )

    @classmethod
    def from_corpus(
        cls, corpus: ReadoutCorpus, label: str | None = None
    ) -> "SharedTraceBlock":
        """Publish an existing corpus's arrays."""
        return cls(corpus.feedline, corpus.prepared_levels, label=label)

    @classmethod
    def from_writer(
        cls,
        fill: "Callable[[SharedTraceBlock], None]",
        *,
        n_shots: int,
        trace_len: int,
        n_qubits: int,
        feedline_dtype: np.dtype,
        levels_dtype: np.dtype,
        label: str | None = None,
    ) -> "SharedTraceBlock":
        """Publish a segment of this geometry that ``fill(block)`` writes.

        ``fill`` writes the segment's bytes through :meth:`write`
        (feedline rows from offset 0, level rows from
        ``descriptor.feedline_nbytes``); if it raises, the segment is
        unlinked and the error propagates.
        """
        block = cls.__new__(cls)
        block._create(
            fill,
            n_shots=n_shots,
            trace_len=trace_len,
            n_qubits=n_qubits,
            feedline_dtype=feedline_dtype,
            levels_dtype=levels_dtype,
            label=label,
        )
        return block

    def _create(
        self,
        fill: "Callable[[SharedTraceBlock], None]",
        *,
        n_shots: int,
        trace_len: int,
        n_qubits: int,
        feedline_dtype: np.dtype,
        levels_dtype: np.dtype,
        label: str | None,
    ) -> None:
        """Create the segment, describe it, and fill it or unlink it."""
        feedline_dtype = np.dtype(feedline_dtype)
        levels_dtype = np.dtype(levels_dtype)
        row_nbytes = (
            trace_len * feedline_dtype.itemsize
            + n_qubits * levels_dtype.itemsize
        )
        self._shm = shared_memory.SharedMemory(
            create=True, size=n_shots * row_nbytes
        )
        self.label = label
        shmaudit.note_create(self._shm.name, self._shm.size, label=label)
        try:
            self.descriptor = SharedTraceDescriptor(
                name=self._shm.name,
                n_shots=n_shots,
                trace_len=trace_len,
                n_qubits=n_qubits,
                feedline_dtype=feedline_dtype.str,
                levels_dtype=levels_dtype.str,
            )
            fill(self)
        except BaseException:
            self.unlink()
            raise

    def write(self, offset: int, data: np.ndarray) -> None:
        """Write a contiguous array's bytes at byte ``offset``.

        Through the segment's file descriptor (see :func:`_write_at`);
        the parent never faults the segment's pages into its mapping.
        """
        _write_at(self._shm, offset, data)

    def unlink(self) -> None:
        """Release the segment (idempotent; creator-side only)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        shm.close()
        shm.unlink()
        shmaudit.note_unlink(shm.name)


class SharedMemoryTraceSource(TraceSource):
    """Streams zero-copy chunks out of an attached shared segment.

    Built from a :class:`SharedTraceDescriptor` inside a worker (or the
    parent itself — attaching locally is equally valid and is how the
    serial executor replays). Every yielded chunk's arrays are views
    into the mapping: nothing on the read path allocates trace storage.

    The chip is passed alongside the descriptor because the segment
    carries raw arrays only; the caller already ships chip configs in
    its task payload.
    """

    def __init__(
        self,
        descriptor: SharedTraceDescriptor,
        chip: ChipConfig,
        chunk_size: int = 256,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if chip.n_qubits != descriptor.n_qubits:
            raise ShapeError(
                f"descriptor labels {descriptor.n_qubits} qubits, chip has "
                f"{chip.n_qubits}"
            )
        self.chip = chip
        self.descriptor = descriptor
        self.chunk_size = int(chunk_size)
        self._shm = _attach(descriptor.name)
        self.feedline = np.ndarray(
            (descriptor.n_shots, descriptor.trace_len),
            dtype=np.dtype(descriptor.feedline_dtype),
            buffer=self._shm.buf,
        )
        self.prepared_levels = np.ndarray(
            (descriptor.n_shots, descriptor.n_qubits),
            dtype=np.dtype(descriptor.levels_dtype),
            buffer=self._shm.buf,
            offset=descriptor.feedline_nbytes,
        )

    @property
    def n_shots(self) -> int:
        return self.descriptor.n_shots

    def chunks(self) -> Iterator[ShotChunk]:
        for chunk_id, start in enumerate(
            range(0, self.n_shots, self.chunk_size)
        ):
            stop = start + self.chunk_size
            # Read-only views: the segment is shared with the creator
            # and every sibling shard — no stage may write into it.
            feedline = self.feedline[start:stop]
            feedline.flags.writeable = False
            levels = self.prepared_levels[start:stop]
            levels.flags.writeable = False
            yield ShotChunk(
                feedline=feedline,
                prepared_levels=levels,
                chunk_id=chunk_id,
            )

    def close(self) -> None:
        """Drop this process's mapping (idempotent; never unlinks)."""
        if self._shm is None:
            return
        # Views into the mapping keep the buffer alive; releasing the
        # arrays first lets close() unmap without ``BufferError``.
        self.feedline = None
        self.prepared_levels = None
        shm, self._shm = self._shm, None
        shmaudit.note_close(shm.name)
        try:
            shm.close()
        except BufferError:
            # A consumer still holds a chunk view; the mapping is
            # reclaimed at process exit instead, and the creator's
            # unlink is unaffected.
            pass
