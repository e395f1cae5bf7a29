"""Micro-batching: re-chunk an incoming shot stream to the dispatch size.

Sources produce chunks sized for *generation* efficiency; the
discrimination stages want batches sized for *vectorization* and latency.
:class:`MicroBatcher` decouples the two: it accumulates incoming
:class:`~repro.pipeline.source.ShotChunk` blocks per feedline and emits
uniform micro-batches, flushing any remainder at end of stream so no shot
is ever dropped.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError
from repro.pipeline.source import ShotChunk

if TYPE_CHECKING:
    from repro.pipeline.buffers import BufferRing

__all__ = ["MicroBatcher"]


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
