"""Use-after-recycle and writability sanitizers for :class:`BufferRing`.

The zero-copy serving loop's ownership contract (a ring slot is valid
from ``acquire`` until the ring wraps back to it) is documented but —
unarmed — unenforced: a sink that retains a batch, or a test that
compares two batches without copying, silently reads whatever the next
batch overwrote. :class:`GuardedBufferRing` turns both hazards into
hard, witnessed failures:

- every ``acquire`` bumps the slot's *generation* and returns a
  :class:`RingSlotView` handle stamped with that generation and the
  acquiring call site; touching the handle (indexing, assignment, any
  ufunc) after the slot recycled raises :class:`UseAfterRecycleError`
  naming where the stale batch was originally acquired, and logs a
  :class:`~repro.analysis.sanitizers.reports.SanitizerReport` so even a
  swallowed exception fails an armed session;
- recycled slots are *poison-filled* (NaN) before hand-off, so stale
  views that escaped as plain arrays (``np.asarray`` strips the guard)
  read never-plausible data instead of the next tenant's traces;
- :meth:`GuardedBufferRing.seal` flips an assembled batch view to
  ``writeable=False`` before it leaves the batcher, so downstream
  stages — which own only the *paired features* buffer — cannot
  scribble on the feedline block they were handed (a lent batch, a
  view of its source chunk, is read-only armed or not);
- the lent-feature block is poison-filled at every
  :meth:`~repro.pipeline.buffers.BufferRing.lend`, like a recycled
  slot's.

Construction goes through :func:`repro.pipeline.buffers.make_buffer_ring`,
which returns this class only when ``REPRO_SANITIZE`` armed the process
(the ``trace_lock`` creation-time idiom); the unarmed hot path keeps the
plain :class:`~repro.pipeline.buffers.BufferRing` with zero overhead.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.buffers import BufferRing

from .reports import GLOBAL_LOG, ReportLog, call_site

__all__ = ["UseAfterRecycleError", "RingSlotView", "GuardedBufferRing"]

#: Never-plausible trace data for recycled slots.
_POISON = complex(float("nan"), float("nan"))


class UseAfterRecycleError(RuntimeError):
    """A ring-slot view was touched after its slot recycled."""


class RingSlotView(np.ndarray):
    """A feedline batch handle stamped with its slot's generation.

    Element access, assignment, and every ufunc first verify the
    owning slot has not recycled since this handle was issued. Plain
    views (``np.asarray``, ``.view(np.ndarray)``) shed the guard — the
    poison fill is the backstop for those — and ufunc *results* are
    returned as plain arrays, so freshly-owned derived data never
    inherits a stale generation stamp.
    """

    def __array_finalize__(self, obj) -> None:
        if obj is None:
            return
        if self.base is None:
            # Owns its data — a .copy() of a handle, the sanctioned way
            # to retain a batch. Fresh storage carries no slot guard.
            self._ring = None
            self._ring_slot = None
            self._ring_generation = None
            self._ring_site = None
            return
        self._ring = getattr(obj, "_ring", None)
        self._ring_slot = getattr(obj, "_ring_slot", None)
        self._ring_generation = getattr(obj, "_ring_generation", None)
        self._ring_site = getattr(obj, "_ring_site", None)

    def _assert_current(self) -> None:
        ring = getattr(self, "_ring", None)
        if ring is not None:
            ring._assert_handle_current(self)

    def __getitem__(self, key):
        self._assert_current()
        return super().__getitem__(key)

    def __setitem__(self, key, value) -> None:
        self._assert_current()
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        for operand in inputs + tuple(out or ()):
            if isinstance(operand, RingSlotView):
                operand._assert_current()
        cast = tuple(
            op.view(np.ndarray) if isinstance(op, RingSlotView) else op
            for op in inputs
        )
        if out is not None:
            kwargs["out"] = tuple(
                op.view(np.ndarray) if isinstance(op, RingSlotView) else op
                for op in out
            )
        return getattr(ufunc, method)(*cast, **kwargs)


class GuardedBufferRing(BufferRing):
    """A :class:`BufferRing` whose slots are generation-tagged.

    Drop-in compatible with the plain ring; ``log`` defaults to the
    process-wide sanitizer report log (seeded-bug tests pass a private
    :class:`ReportLog`, mirroring private ``LockGraph`` instances).
    """

    def __init__(
        self,
        max_batch: int,
        n_features: int,
        slots: int = 2,
        *,
        log: ReportLog | None = None,
    ) -> None:
        super().__init__(max_batch, n_features, slots)
        self._log = GLOBAL_LOG if log is None else log
        self._generations = [0] * len(self._slots)
        self._sites: list[str | None] = [None] * len(self._slots)

    def acquire(self, n_shots: int, trace_len: int) -> np.ndarray | None:
        index = self._next
        view = super().acquire(n_shots, trace_len)
        if view is None:
            return None
        slot = self._slots[index]
        # Poison before hand-off: stale plain views that escaped the
        # previous generation read NaN — never the next batch's traces —
        # and unwritten rows of the new batch are NaN too.
        slot.feedline.fill(_POISON)
        slot.features.fill(np.nan)
        self._generations[index] += 1
        site = call_site()
        self._sites[index] = site
        handle = view.view(RingSlotView)
        handle._ring = self
        handle._ring_slot = index
        handle._ring_generation = self._generations[index]
        handle._ring_site = site
        return handle

    def seal(self, view: np.ndarray) -> np.ndarray:
        """Make an assembled batch read-only outside the owning stage."""
        view.flags.writeable = False
        return view

    def lend(self, view: np.ndarray) -> None:
        super().lend(view)
        # Poisoned like a recycled slot: a lent-feature view kept past
        # the next lend reads NaN, not the next batch's scores.
        self._lent_features.fill(np.nan)

    def paired_features(self, feedline: np.ndarray) -> np.ndarray | None:
        if isinstance(feedline, RingSlotView):
            feedline._assert_current()
        return super().paired_features(feedline)

    def _assert_handle_current(self, handle: RingSlotView) -> None:
        slot = handle._ring_slot
        issued = handle._ring_generation
        current = self._generations[slot]
        if current == issued:
            return
        message = (
            f"use-after-recycle: ring slot {slot} view acquired at "
            f"{handle._ring_site} (generation {issued}) touched after the "
            f"ring wrapped (now generation {current}); batches retained "
            f"past the next {len(self._slots) - 1} acquisitions must be "
            f"copied"
        )
        self._log.report("ring-recycle", message, site=handle._ring_site)
        raise UseAfterRecycleError(message)
