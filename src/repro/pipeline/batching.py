"""Micro-batching: re-chunk an incoming shot stream to the dispatch size.

Sources produce chunks sized for *generation* efficiency; the
discrimination stages want batches sized for *vectorization* and latency.
:class:`MicroBatcher` decouples the two: it accumulates incoming
:class:`~repro.pipeline.source.ShotChunk` blocks per feedline and emits
uniform micro-batches, flushing any remainder at end of stream so no shot
is ever dropped.

:class:`AdaptiveBatcher` closes the loop: instead of a fixed dispatch
size, it tracks an EWMA of the observed per-shot compute latency and
resizes the next micro-batch so one batch's compute stays on a target
latency derived from the FPGA decision budget — small batches when the
stages are slow (bounded decision latency), large batches when they are
fast (better vectorization and throughput).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.pipeline.source import ShotChunk

if TYPE_CHECKING:
    from repro.pipeline.buffers import BufferRing

__all__ = ["MicroBatcher", "AdaptiveBatcher", "MIN_PER_SHOT_SECONDS"]

#: Floor on an observed per-shot latency sample. ``perf_counter`` deltas
#: on a fast batch can quantize to exactly 0.0; feeding those raw into
#: the EWMA drags the estimate toward zero, and ``target / ~0`` then
#: explodes the next batch to ``max_size`` regardless of the real
#: latency. One nanosecond per shot is far below anything the software
#: stages can do, so clamping there never masks a genuine measurement.
MIN_PER_SHOT_SECONDS = 1e-9


class MicroBatcher:
    """Accumulate shots and re-emit them in fixed-size micro-batches.

    Parameters
    ----------
    batch_size:
        Shots per emitted batch. The final batch may be smaller (the
        end-of-stream flush).
    """

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = int(batch_size)

    @property
    def max_emit_size(self) -> int:
        """Upper bound on the shot count of any batch :meth:`rebatch`
        emits — what a reusable buffer ring must be sized for."""
        return self.batch_size

    def rebatch(
        self,
        chunks: Iterable[ShotChunk],
        ring: "BufferRing | None" = None,
    ) -> Iterator[ShotChunk]:
        """Yield uniform micro-batches from an arbitrary chunk stream.

        Batch ids are re-numbered from zero. Ground-truth labels are
        carried per batch: a batch has labels exactly when every chunk
        contributing shots to it has them, so an unlabeled chunk blanks
        only the batches its shots land in, not the rest of the stream.

        ``self.batch_size`` is re-read before every emission, so a
        subclass mutating it between batches (:class:`AdaptiveBatcher`)
        resizes the stream on the fly.

        A batch that lies inside one incoming chunk is that chunk's
        rows, handed off uncopied as a read-only view (the chunk may be
        a replay corpus later runs read again). Only a batch spanning
        chunks is copied: with a :class:`~repro.pipeline.buffers
        .BufferRing`, into a reused complex64 ring slot (sealed at
        hand-off), otherwise into a fresh ``np.concatenate``. Each
        uncopied batch is lent to the ring (:meth:`~repro.pipeline
        .buffers.BufferRing.lend`), so every batch has a ring-owned
        feature block — the consumer must finish with a batch before the
        ring reuses its buffers (one-in-flight for the default two-slot
        ring).
        """
        # Buffered (feedline, levels-or-None) segments, in arrival
        # order. Deque: a chunk stream much finer than the batch size
        # drains many segments per emission, and list.pop(0) made that
        # quadratic in the segment count.
        segments: deque[tuple[np.ndarray, np.ndarray | None]] = deque()
        buffered = 0
        batch_id = 0

        def emit(take: int) -> ShotChunk:
            nonlocal buffered, batch_id
            head = segments[0][0]
            dest = None
            if ring is not None and take > head.shape[0]:
                dest = ring.acquire(take, head.shape[1])
            feeds: list[np.ndarray] = []
            levels: list[np.ndarray] = []
            labeled = True
            need = take
            pos = 0
            while need:
                feed, lev = segments[0]
                n = feed.shape[0]
                take_n = min(n, need)
                if dest is None:
                    feeds.append(feed[:take_n])
                else:
                    dest[pos : pos + take_n] = feed[:take_n]
                pos += take_n
                if lev is None:
                    labeled = False
                else:
                    levels.append(lev if take_n == n else lev[:take_n])
                if take_n == n:
                    segments.popleft()
                else:
                    segments[0] = (
                        feed[take_n:],
                        None if lev is None else lev[take_n:],
                    )
                need -= take_n
            if dest is not None:
                # Assembly is done; hand ownership downstream (a
                # sanitizer ring seals the view read-only here).
                feedline = ring.seal(dest)
            elif len(feeds) == 1:
                # Inside one chunk: its rows, uncopied and read-only.
                feedline = feeds[0]
                feedline.flags.writeable = False
                if ring is not None:
                    ring.lend(feedline)
            else:
                feedline = np.concatenate(feeds)
            batch = ShotChunk(
                feedline=feedline,
                prepared_levels=(
                    (levels[0] if len(levels) == 1 else np.concatenate(levels))
                    if labeled
                    else None
                ),
                chunk_id=batch_id,
            )
            buffered -= take
            batch_id += 1
            return batch

        for chunk in chunks:
            segments.append((chunk.feedline, chunk.prepared_levels))
            buffered += chunk.n_shots
            while buffered >= self.batch_size:
                yield emit(self.batch_size)
        if buffered:
            yield emit(buffered)


class AdaptiveBatcher(MicroBatcher):
    """Resize micro-batches from the observed per-shot latency EWMA.

    The consumer reports each batch's compute time through
    :meth:`observe`; the batcher keeps an exponentially weighted moving
    average of the per-shot latency and sets the next batch size to the
    largest batch whose predicted compute time fits ``target_seconds``,
    clamped to ``[min_size, max_size]``. Until the first observation it
    behaves exactly like a fixed-size :class:`MicroBatcher` at the
    initial size.

    Parameters
    ----------
    batch_size:
        Initial dispatch size (clamped into ``[min_size, max_size]``).
    target_seconds:
        Compute-latency target for one micro-batch; typically the FPGA
        per-shot decision budget times a software slack factor (see
        :class:`~repro.pipeline.runner.PipelineConfig`).
    min_size, max_size:
        Hard bounds on the adapted size; the batcher never dispatches
        below ``min_size`` (>= 1) or above ``max_size``.
    alpha:
        EWMA weight of the newest sample, in (0, 1].
    """

    def __init__(
        self,
        batch_size: int,
        target_seconds: float,
        min_size: int = 1,
        max_size: int = 1024,
        alpha: float = 0.3,
    ) -> None:
        super().__init__(batch_size)
        if target_seconds <= 0:
            raise ConfigurationError(
                f"target_seconds must be positive, got {target_seconds}"
            )
        if min_size < 1:
            raise ConfigurationError(f"min_size must be >= 1, got {min_size}")
        if max_size < min_size:
            raise ConfigurationError(
                f"max_size must be >= min_size, got {max_size} < {min_size}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.target_seconds = float(target_seconds)
        self.min_size = int(min_size)
        self.max_size = int(max_size)
        self.alpha = float(alpha)
        self.batch_size = min(max(self.batch_size, self.min_size), self.max_size)
        self._ewma_per_shot_s: float | None = None
        self._n_observations = 0
        self._min_chosen: int | None = None
        self._max_chosen: int | None = None

    @property
    def max_emit_size(self) -> int:
        """The adaptive controller never dispatches above ``max_size``."""
        return self.max_size

    @property
    def ewma_per_shot_s(self) -> float | None:
        """Current per-shot latency estimate (None before any sample)."""
        return self._ewma_per_shot_s

    @property
    def n_observations(self) -> int:
        """Latency samples fed back so far."""
        return self._n_observations

    @property
    def chosen_range(self) -> tuple[int, int] | None:
        """(min, max) batch size chosen over all observations, if any.

        These are controller decisions; the sizes actually dispatched
        additionally include the initial ``batch_size`` and the
        end-of-stream flush, and the last chosen size may never run.
        Bounded state on purpose — a long stream must not accumulate a
        per-batch history.
        """
        if self._min_chosen is None:
            return None
        return (self._min_chosen, self._max_chosen)

    def observe(self, seconds: float, n_shots: int) -> int:
        """Feed back one batch's compute time; returns the next size."""
        if seconds < 0:
            raise ConfigurationError("latency sample must be >= 0")
        if n_shots < 1:
            raise ConfigurationError(f"n_shots must be >= 1, got {n_shots}")
        per_shot = max(float(seconds) / int(n_shots), MIN_PER_SHOT_SECONDS)
        if self._ewma_per_shot_s is None:
            self._ewma_per_shot_s = per_shot
        else:
            self._ewma_per_shot_s = (
                self.alpha * per_shot + (1.0 - self.alpha) * self._ewma_per_shot_s
            )
        desired = int(self.target_seconds / self._ewma_per_shot_s)
        self.batch_size = min(max(desired, self.min_size), self.max_size)
        self._n_observations += 1
        if self._min_chosen is None:
            self._min_chosen = self._max_chosen = self.batch_size
        else:
            self._min_chosen = min(self._min_chosen, self.batch_size)
            self._max_chosen = max(self._max_chosen, self.batch_size)
        return self.batch_size
