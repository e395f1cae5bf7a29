"""Dummy instrument backend: deterministic seeded random I/Q traffic.

The harness-test workhorse (qibolab's ``DummyInstrument`` idiom): traffic
that exercises the full serving datapath — chunking, batching, scoring
plumbing — without paying for physics. Traces are seeded Gaussian
complex64 I/Q noise; with ``labeled=True`` each shot also carries a
uniformly random ground-truth prepared level per qubit, so accuracy
bookkeeping stays well-defined (though chance-level, by construction).
Two acquisitions with the same seed are bit-identical.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro._util import check_random_state
from repro.backends.base import InstrumentBackend
from repro.exceptions import ConfigurationError
from repro.physics.device import ChipConfig
from repro.pipeline.source import ShotChunk

__all__ = ["DummyBackend"]


class DummyBackend(InstrumentBackend):
    """Emits seeded random I/Q traces shaped like the chip's feedline.

    Parameters
    ----------
    chip:
        Device whose geometry (trace length, qubit count, level count)
        the random traffic mimics.
    chunk_size:
        Shots per yielded chunk.
    labeled:
        Attach uniformly random ground-truth prepared levels; ``False``
        streams unlabeled traffic (the live-hardware shape).
    amplitude:
        Standard deviation of each I/Q quadrature.
    """

    name = "dummy"

    def __init__(
        self,
        chip: ChipConfig,
        chunk_size: int = 256,
        labeled: bool = True,
        amplitude: float = 1.0,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if not amplitude > 0:
            raise ConfigurationError(
                f"amplitude must be positive, got {amplitude}"
            )
        self.chip = chip
        self.chunk_size = int(chunk_size)
        self.labeled = bool(labeled)
        self.amplitude = float(amplitude)

    def acquire(
        self, shots: int, seed: int | None = None
    ) -> Iterator[ShotChunk]:
        if shots < 1:
            raise ConfigurationError(f"shots must be >= 1, got {shots}")
        rng = check_random_state(seed)
        chip = self.chip
        chunk_id = 0
        remaining = shots
        while remaining > 0:
            size = min(self.chunk_size, remaining)
            quadratures = rng.standard_normal((2, size, chip.trace_len))
            feedline = (
                self.amplitude * (quadratures[0] + 1j * quadratures[1])
            ).astype(np.complex64)
            levels = None
            if self.labeled:
                levels = rng.integers(
                    0, chip.n_levels, size=(size, chip.n_qubits)
                ).astype(np.int8)
            yield ShotChunk(
                feedline=feedline,
                prepared_levels=levels,
                chunk_id=chunk_id,
            )
            chunk_id += 1
            remaining -= size

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "labeled": self.labeled,
                "deterministic": True,
                "chunk_size": self.chunk_size,
                "amplitude": self.amplitude,
            }
        )
        return info
