"""Reusable batch buffers for the zero-copy serving loop.

Serving is float32 from the source chunk to the decision: traces are
complex64 (the digitizer's own precision) and features float32.
:class:`BufferRing` preallocates a small ring of paired (complex64
feedline, float32 features) slots sized for the batcher's largest
possible emission, plus one float32 feature block for lent batches.
:meth:`MicroBatcher.rebatch <repro.pipeline.batching
.MicroBatcher.rebatch>` hands a batch that lies inside one source
chunk downstream as a read-only view of that chunk, lent to the ring
(:meth:`BufferRing.lend`), so it is never copied; only a batch
spanning chunks is assembled into a slot's feedline buffer. Either way
the engine writes raw matched-filter scores into the ring-owned
feature block :meth:`BufferRing.paired_features` returns, and the head
stack reads them as they are (its layer 1 has the scaler folded in), so
neither traces nor features are allocated per batch. The head stack
itself still allocates per batch: one GEMM output per layer (biases
and ReLUs are applied in place), the logits, and the epilogue's level,
top, second, norm and margin rows. At small batches those are a few
hundred bytes each; the calls, not the allocations, are the cost.

Ownership contract: a slot is valid from :meth:`BufferRing.acquire`
until the ring wraps back around to it (``slots`` acquisitions later),
and the lent-feature block until the next :meth:`BufferRing.lend`.
The default two-slot ring therefore supports exactly one batch in
flight while the next is being assembled; anything holding a batch
longer — a sink retaining raw traces, a test comparing batches — must
copy.

That contract is *enforced* when ``REPRO_SANITIZE`` is set:
:func:`make_buffer_ring` (the construction point the runner uses)
returns a :class:`~repro.analysis.sanitizers.ring.GuardedBufferRing`
whose slot handles are generation-tagged (use-after-recycle raises with
the original acquisition site), whose recycled slots are poison-filled,
and whose assembled batches are sealed read-only. Unarmed, the plain
ring here has zero bookkeeping overhead.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["BufferRing", "make_buffer_ring"]


class _Slot:
    """One (feedline, features) buffer pair, grown lazily to fit."""

    __slots__ = ("feedline", "features")

    def __init__(self) -> None:
        self.feedline: np.ndarray | None = None
        self.features: np.ndarray | None = None


class BufferRing:
    """A fixed ring of reusable (feedline, features) batch buffers.

    Feedline slots are complex64 and feature blocks float32, the serving
    precision; a batch written into a slot is cast to it.

    Parameters
    ----------
    max_batch:
        Largest batch any slot must hold — the pipeline's
        ``batch_size``.
    n_features:
        Feature columns of the paired float buffer (``n_qubits *
        filters_per_qubit``).
    slots:
        Ring depth; 2 covers the one-in-flight serving loop.

    Buffers are allocated lazily on first :meth:`acquire` (the trace
    length is a stream property, not a construction-time one) and
    reallocated only if a longer trace window ever appears.
    """

    def __init__(
        self, max_batch: int, n_features: int, slots: int = 2
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if n_features < 1:
            raise ConfigurationError(
                f"n_features must be >= 1, got {n_features}"
            )
        if slots < 2:
            raise ConfigurationError(f"slots must be >= 2, got {slots}")
        self.max_batch = int(max_batch)
        self.n_features = int(n_features)
        self._slots = [_Slot() for _ in range(slots)]
        self._next = 0
        self._acquired = 0
        self._lent: np.ndarray | None = None
        self._lent_features = np.empty(
            (self.max_batch, self.n_features), dtype=np.float32
        )

    @property
    def slots(self) -> int:
        return len(self._slots)

    @property
    def acquired(self) -> int:
        """Total acquisitions so far (for reuse diagnostics)."""
        return self._acquired

    def acquire(self, n_shots: int, trace_len: int) -> np.ndarray | None:
        """Advance the ring; return a ``(n_shots, trace_len)`` feedline view.

        Returns ``None`` when the batch exceeds ``max_batch`` — the
        caller falls back to a plain allocation rather than corrupting a
        neighboring slot.
        """
        if n_shots > self.max_batch:
            return None
        slot = self._slots[self._next]
        self._next = (self._next + 1) % len(self._slots)
        self._acquired += 1
        if slot.feedline is None or slot.feedline.shape[1] < trace_len:
            slot.feedline = np.empty(
                (self.max_batch, trace_len), dtype=np.complex64
            )
            slot.features = np.empty(
                (self.max_batch, self.n_features), dtype=np.float32
            )
        return slot.feedline[:n_shots, :trace_len]

    def lend(self, view: np.ndarray) -> None:
        """Pair a batch the ring does not hold with its feature block.

        The batcher hands off a batch that lies inside one source chunk
        as a read-only view of that chunk instead of copying it into a
        slot; lending it here makes :meth:`paired_features` return the
        ring's lent-feature block for it, so the engine still scores
        into ring-owned memory. Acquires no slot. A batch over
        ``max_batch`` is not paired (the engine allocates, as for an
        oversized :meth:`acquire`).
        """
        if view.shape[0] <= self.max_batch:
            self._lent = view

    def release(self) -> None:
        """Forget the lent batch; the ring then holds no source memory.

        A ring reused across runs calls this when a run ends: the last
        lent view would otherwise outlive the run, and once its source
        is gone — a replay segment a worker unmaps — it points at memory
        that is no longer mapped.
        """
        self._lent = None

    def seal(self, view: np.ndarray) -> np.ndarray:
        """Hand-off hook the batcher calls once a batch is assembled.

        A no-op here; the sanitizer ring overrides it to flip the view
        ``writeable=False`` so downstream stages cannot scribble on the
        feedline block they were handed.
        """
        return view

    def paired_features(self, feedline: np.ndarray) -> np.ndarray | None:
        """The feature buffer paired with a ring-owned or lent batch.

        The batch last passed to :meth:`lend` gets the lent-feature
        block. A slot view matches by buffer identity — its ``.base``
        chain is walked to its allocation (sanitizer handles add a view
        layer). Foreign arrays return ``None`` and the engine scores
        them into a fresh array; that includes arrays over a foreign
        buffer (a shared-memory mapping, a ``bytearray``), whose chain
        ends at a non-array object.
        """
        if feedline is self._lent:
            return self._lent_features[: feedline.shape[0]]
        base = feedline.base
        if base is None:
            return None
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        for slot in self._slots:
            if slot.feedline is base:
                return slot.features[: feedline.shape[0]]
        return None


def make_buffer_ring(
    max_batch: int, n_features: int, slots: int = 2
) -> BufferRing:
    """The ring the serving loop should construct.

    Returns the plain :class:`BufferRing` normally; with the
    ``REPRO_SANITIZE`` environment flag set, a
    :class:`~repro.analysis.sanitizers.ring.GuardedBufferRing` reporting
    into the global sanitizer log — the ``trace_lock`` creation-time
    arming idiom.
    """
    from repro.analysis.sanitizers import enabled

    if not enabled():
        return BufferRing(max_batch, n_features, slots)
    from repro.analysis.sanitizers.ring import GuardedBufferRing

    return GuardedBufferRing(max_batch, n_features, slots)
