"""Recording and replay backends: production traffic capture.

:class:`RecordingBackend` tees any inner backend's chunks into a
versioned on-disk corpus (see :mod:`repro.backends.corpus`) while the
serving session consumes them unchanged — the serving analogue of
production traffic capture. :class:`ReplayBackend` serves such a corpus
back bit-deterministically, refusing (by chip SHA) to replay traces onto
a different device than they were recorded from.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.backends.base import InstrumentBackend
from repro.backends.corpus import CorpusWriter, RecordedCorpus, load_corpus
from repro.exceptions import ConfigurationError
from repro.physics.device import ChipConfig
from repro.pipeline.source import ShotChunk

__all__ = ["RecordingBackend", "ReplayBackend"]


class RecordingBackend(InstrumentBackend):
    """Tees an inner backend's acquisitions into an on-disk corpus.

    Every chunk is written (with its checksum) as it streams; the
    manifest is checkpointed after each completed acquisition and
    finalized on :meth:`close`. The recorded seed is the first
    acquisition's — replay of a multi-acquisition session replays the
    concatenated stream.
    """

    name = "record"

    def __init__(self, inner: InstrumentBackend, path: str | Path) -> None:
        self.inner = inner
        self.path = Path(path)
        self._writer: CorpusWriter | None = None

    @property
    def chip(self) -> ChipConfig | None:  # type: ignore[override]
        return self.inner.chip

    def open(self) -> "RecordingBackend":
        if self._writer is None:
            self.inner.open()
            self._writer = CorpusWriter(
                self.path,
                self.inner.chip,
                source=self.inner.describe(),
            )
        return self

    def acquire(
        self, shots: int, seed: int | None = None
    ) -> Iterator[ShotChunk]:
        writer = self._writer
        if writer is None:
            raise ConfigurationError(
                "RecordingBackend must be opened before acquire()"
            )
        if writer.n_chunks == 0:
            writer.seed = seed
        for chunk in self.inner.acquire(shots, seed=seed):
            writer.append(chunk)
            yield chunk
        writer.checkpoint()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self.inner.close()

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "record_path": str(self.path),
                "source": self.inner.describe(),
            }
        )
        return info


class ReplayBackend(InstrumentBackend):
    """Serves a recorded corpus back, bit-deterministically.

    ``acquire`` ignores both its arguments: the stream is fixed — the
    recorded chunks, in recorded order, as read-only views — so a run
    serves the corpus's shot count, not the request.

    Parameters
    ----------
    path:
        Corpus directory (validated at :meth:`open`).
    chip:
        The serving chip. When given, the corpus's chip SHA must match
        it exactly (:meth:`RecordedCorpus.require_chip`); ``None``
        adopts the recorded chip as :attr:`chip`.
    """

    name = "replay"

    def __init__(
        self, path: str | Path, chip: ChipConfig | None = None
    ) -> None:
        self.path = Path(path)
        self.chip = chip
        self._corpus: RecordedCorpus | None = None

    @classmethod
    def from_corpus(
        cls, corpus: RecordedCorpus, chip: ChipConfig | None = None
    ) -> "ReplayBackend":
        """Wrap an already-loaded (already-verified) corpus."""
        backend = cls(corpus.path, chip=chip)
        backend._adopt(corpus)
        return backend

    def _adopt(self, corpus: RecordedCorpus) -> None:
        if self.chip is not None:
            corpus.require_chip(self.chip)
        else:
            self.chip = corpus.chip
        self._corpus = corpus

    @property
    def corpus(self) -> RecordedCorpus:
        if self._corpus is None:
            raise ConfigurationError(
                "ReplayBackend must be opened before use"
            )
        return self._corpus

    def open(self) -> "ReplayBackend":
        if self._corpus is None:
            self._adopt(load_corpus(self.path))
        return self

    def close(self) -> None:
        self._corpus = None

    def acquire(
        self, shots: int, seed: int | None = None
    ) -> Iterator[ShotChunk]:
        del shots, seed  # the recorded stream is already fixed
        return self.corpus.chunks()

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "deterministic": True,
                "corpus": self.corpus.summary()
                if self._corpus is not None
                else {"path": str(self.path)},
            }
        )
        return info
