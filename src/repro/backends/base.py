"""The instrument-backend contract: where shot traffic comes from.

:class:`InstrumentBackend` is the one seam for shot traffic: a
*session-scoped* endpoint (``open()``/``close()``/context manager) that
answers repeated :meth:`~InstrumentBackend.acquire` calls with streams
of :class:`~repro.pipeline.source.ShotChunk` batches, the unit the
pipeline consumes. The serving layer never needs to know whether the
chunks were simulated in-process, replayed from a recorded corpus, or
framed in over a socket from an external digitizer process.

:meth:`InstrumentBackend.trace_source` adapts one acquisition into the
pipeline-facing :class:`~repro.pipeline.source.TraceSource` shape, so
``ReadoutPipeline.run`` streams any backend unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

from repro.analysis.sanitizers import enabled as _sanitize_enabled
from repro.physics.device import ChipConfig
from repro.pipeline.source import ShotChunk, TraceSource

__all__ = ["InstrumentBackend", "AcquisitionTraceSource"]


class InstrumentBackend(ABC):
    """A session-scoped source of readout shot traffic.

    Lifecycle: :meth:`open` (idempotent; also the context-manager entry)
    acquires whatever the backend needs — a socket connection, a mapped
    corpus, a recording directory — and :meth:`close` (idempotent)
    releases it. Between the two, every :meth:`acquire` call streams one
    run's worth of :class:`~repro.pipeline.source.ShotChunk` batches.

    Subclasses set :attr:`name` (the registry identifier) and
    :attr:`chip` (the device the traffic is for; may be resolved at
    :meth:`open` for backends that learn it from the remote side).
    """

    #: Registry identifier of the backend kind.
    name: str = "abstract"

    #: Device the streamed traffic belongs to.
    chip: ChipConfig | None = None

    def open(self) -> "InstrumentBackend":
        """Acquire backend resources. Idempotent; returns ``self``."""
        return self

    def close(self) -> None:
        """Release backend resources. Idempotent."""

    def __enter__(self) -> "InstrumentBackend":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @abstractmethod
    def acquire(
        self, shots: int, seed: int | None = None
    ) -> Iterator[ShotChunk]:
        """Stream one run of traffic as chunk batches, in chunk_id order.

        ``shots`` is the *requested* shot count; backends bound to a
        fixed stream (a recorded corpus, a remote frame sequence) deliver
        their own count instead, and the run report counts what was
        served. ``seed`` selects the traffic stream where the backend
        generates traffic; replay-style backends ignore it (their stream
        is already fixed).
        """

    def describe(self) -> dict:
        """Capability description (JSON-able; extended by subclasses)."""
        chip = self.chip
        info: dict = {"backend": self.name}
        if chip is not None:
            info["n_qubits"] = chip.n_qubits
            info["n_levels"] = chip.n_levels
            info["trace_len"] = chip.trace_len
        return info

    def trace_source(
        self, shots: int, seed: int | None = None
    ) -> "AcquisitionTraceSource":
        """One acquisition, shaped as the pipeline's ``TraceSource``."""
        return AcquisitionTraceSource(self, shots, seed=seed)


class AcquisitionTraceSource(TraceSource):
    """Adapts one backend acquisition to the ``TraceSource`` protocol.

    The pipeline pulls :meth:`chunks` exactly once per run; the adapter
    delegates to :meth:`InstrumentBackend.acquire` so the backend owns
    chunking, determinism, and resource lifetime. The backend stays
    open across runs — closing it is the owning session's job, not the
    source's.
    """

    def __init__(
        self,
        backend: InstrumentBackend,
        shots: int,
        seed: int | None = None,
    ) -> None:
        self.backend = backend
        self.chip = backend.chip
        self.seed = seed
        self._requested = int(shots)

    def chunks(self) -> Iterator[ShotChunk]:
        stream = self.backend.acquire(self._requested, seed=self.seed)
        if not _sanitize_enabled():
            return stream
        return self._read_only(stream)

    @staticmethod
    def _read_only(stream: Iterator[ShotChunk]) -> Iterator[ShotChunk]:
        """Sanitizer-armed runs: backend traffic crosses the seam frozen.

        Chunks are acquisition records, not scratch space — a stage that
        mutates one corrupts replay determinism (and, for shared-memory
        replay, every sibling shard). Re-wrapping each array as a
        read-only view turns such a write into an immediate
        ``ValueError`` at the writing line.
        """
        for chunk in stream:
            feedline = chunk.feedline.view()
            feedline.flags.writeable = False
            levels = chunk.prepared_levels
            if levels is not None:
                levels = levels.view()
                levels.flags.writeable = False
            yield ShotChunk(
                feedline=feedline,
                prepared_levels=levels,
                chunk_id=chunk.chunk_id,
            )
