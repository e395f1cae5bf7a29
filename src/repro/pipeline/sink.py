"""Result sinks: where per-shot labels go after discrimination.

The paper's downstream consumer is QEC leakage speculation — every shot's
multi-level labels feed ERASER+M evidence accumulation. The pipeline's
default sink, :class:`EraserSpeculationSink`, runs inline: the thread
that decides a batch feeds it, so the pipeline's "sink" stage latency is
the ERASER work itself. It keeps only the speculator's counters, so it
feeds the speculator through the path that builds no per-shot flags.
:class:`QueueingSink` is opt-in, for a caller's sink that blocks (on
I/O, for example): it hands batches to a consumer thread through a
C-level :class:`queue.SimpleQueue`, bounded by a semaphore, so a slow
consumer blocks the dispatch loop instead of letting unprocessed labels
pile up without limit.
"""

from __future__ import annotations

import queue
import threading
from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qec.eraser import EraserConfig, LevelStreamSpeculator

__all__ = [
    "ResultSink",
    "CollectingSink",
    "QueueingSink",
    "EraserSpeculationSink",
]


class ResultSink(ABC):
    """Consumes discriminated micro-batches."""

    @abstractmethod
    def consume(self, levels: np.ndarray, joint: np.ndarray, batch_id: int) -> None:
        """Accept one batch of per-qubit levels and joint labels.

        May block — that is how backpressure reaches the scheduler.
        """

    def close(self) -> dict:
        """Flush and return a JSON-able summary. Idempotent."""
        return {}


class CollectingSink(ResultSink):
    """Keeps every label in memory — for tests and small offline runs."""

    def __init__(self) -> None:
        self._levels: list[np.ndarray] = []
        self._joint: list[np.ndarray] = []

    def consume(self, levels: np.ndarray, joint: np.ndarray, batch_id: int) -> None:
        self._levels.append(np.asarray(levels))
        self._joint.append(np.asarray(joint))

    @property
    def levels(self) -> np.ndarray:
        if not self._levels:
            return np.empty((0, 0), dtype=np.int64)
        return np.concatenate(self._levels, axis=0)

    @property
    def joint(self) -> np.ndarray:
        if not self._joint:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self._joint, axis=0)

    def close(self) -> dict:
        return {"shots_seen": int(self.joint.shape[0])}


class QueueingSink(ResultSink):
    """Runs an inner sink on a consumer thread behind a bounded queue.

    Opt-in, for an inner sink that blocks (on I/O, for example): a
    thread only overlaps waiting with the engine, not Python work.

    Batches go through a :class:`queue.SimpleQueue`, whose ``put`` and
    ``get`` are C calls, and a :class:`threading.BoundedSemaphore` of
    ``max_pending`` slots bounds it: :meth:`consume` takes a slot, the
    consumer thread gives it back as it takes the batch off the queue.
    The close sentinel takes no slot, so :meth:`close` never blocks on
    a full queue.

    Parameters
    ----------
    inner:
        The sink doing the actual work on the consumer thread.
    max_pending:
        Queue capacity in batches. When the consumer lags this far
        behind, :meth:`consume` blocks — bounded memory, visible
        backpressure.
    """

    _SENTINEL = None

    def __init__(self, inner: ResultSink, max_pending: int = 8) -> None:
        if max_pending < 1:
            raise ConfigurationError(f"max_pending must be >= 1, got {max_pending}")
        self.inner = inner
        self.max_pending = int(max_pending)
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._slots = threading.BoundedSemaphore(self.max_pending)
        self._error: BaseException | None = None
        self._summary: dict | None = None
        self._closed = False
        self._worker = threading.Thread(target=self._drain, daemon=True)
        self._worker.start()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                return
            self._slots.release()
            if self._error is None:
                try:
                    self.inner.consume(*item)
                except BaseException as exc:  # repro: allow(broad-except) captured and re-raised by close()
                    self._error = exc

    @property
    def pending(self) -> int:
        """Batches currently queued (approximate, for instrumentation)."""
        return self._queue.qsize()

    def consume(self, levels: np.ndarray, joint: np.ndarray, batch_id: int) -> None:
        if self._closed:
            raise ConfigurationError("sink is closed")
        self._slots.acquire()
        self._queue.put((levels, joint, batch_id))

    def close(self) -> dict:
        """Flush, join the consumer, and summarize.

        Idempotent on both paths: a consumer error is re-raised on every
        close, a clean summary is computed once and cached.
        """
        if not self._closed:
            self._closed = True
            self._queue.put(self._SENTINEL)
            self._worker.join()
        if self._error is not None:
            raise self._error
        if self._summary is None:
            self._summary = dict(self.inner.close())
            self._summary["max_pending"] = self.max_pending
        return self._summary


class EraserSpeculationSink(ResultSink):
    """Feeds per-shot labels into ERASER+M leakage speculation.

    Each shot's multi-level labels are treated as one readout cycle of
    direct leakage evidence for :class:`repro.qec.eraser
    .LevelStreamSpeculator`; the summary reports how many LRC requests the
    stream triggered. It is the pipeline's default sink and runs inline,
    on the thread that decides: its work is CPU-bound Python, which a
    consumer thread could not overlap with the engine under the GIL.
    Small batches walk their |2> hits one by one; a batch dense in hits
    under the default two-hit policy is folded in a fixed number of
    numpy calls (``LevelStreamSpeculator._advance``), with the same
    counters either way.
    """

    def __init__(
        self, n_qubits: int, config: EraserConfig | None = None
    ) -> None:
        self.speculator = LevelStreamSpeculator(n_qubits, config)

    def consume(self, levels: np.ndarray, joint: np.ndarray, batch_id: int) -> None:
        self.speculator._advance(levels)

    def close(self) -> dict:
        return self.speculator.summary()
