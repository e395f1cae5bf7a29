"""Simulator-instrument backend: the in-process dispersive simulator.

The one producer of simulated traffic, behind the
:class:`~repro.backends.base.InstrumentBackend` contract, so the serving
layer resolves simulated traffic through the same registry as recorded
or external traffic. The backend owns the *session shot clock*: each
acquisition's drift clock continues where the previous one stopped, so
drift accumulates across runs.
"""

from __future__ import annotations

from typing import Iterator

from repro._util import check_random_state
from repro.backends.base import InstrumentBackend
from repro.exceptions import ConfigurationError
from repro.physics.device import ChipConfig
from repro.physics.simulator import ReadoutSimulator
from repro.pipeline.source import ShotChunk

__all__ = ["SimulatorBackend"]


class SimulatorBackend(InstrumentBackend):
    """Generates traffic on demand from the dispersive-readout simulator.

    Parameters
    ----------
    chip:
        Device to simulate (the *calibrated* device when drifting).
    chunk_size:
        Shots per simulated chunk.
    drift:
        Optional :class:`~repro.physics.drift.DriftModel`; a null model
        behaves exactly like no model.
    shot_offset:
        Session shots already served before this backend opened — the
        starting position of the drift clock.
    """

    name = "simulator"

    def __init__(
        self,
        chip: ChipConfig,
        chunk_size: int = 256,
        drift=None,
        shot_offset: int = 0,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if shot_offset < 0:
            raise ConfigurationError(
                f"shot_offset must be >= 0, got {shot_offset}"
            )
        self.chip = chip
        self.chunk_size = int(chunk_size)
        self.drift = drift if drift is not None and not drift.is_null else None
        self._delivered = int(shot_offset)

    @property
    def session_shots(self) -> int:
        """Shots delivered so far (the drift clock position)."""
        return self._delivered

    def acquire(
        self, shots: int, seed: int | None = None
    ) -> Iterator[ShotChunk]:
        """Simulate ``shots`` uniformly random joint basis states.

        One RNG, seeded by ``seed``, draws every chunk's levels and every
        simulator's noise, so a seed fixes the whole stream. Under drift,
        each chunk is simulated on the device the drift model predicts
        at that chunk's position on the session clock.
        """
        if shots < 1:
            raise ConfigurationError(f"shots must be >= 1, got {shots}")
        chip = self.chip
        rng = check_random_state(seed)
        stationary = ReadoutSimulator(chip, seed=rng)
        for chunk_id, start in enumerate(range(0, shots, self.chunk_size)):
            size = min(self.chunk_size, shots - start)
            digits = rng.integers(0, chip.n_levels, size=(size, chip.n_qubits))
            simulator = stationary
            if self.drift is not None:
                chip_now = self.drift.chip_at(chip, self._delivered)
                if chip_now is not chip:
                    simulator = ReadoutSimulator(chip_now, seed=rng)
            result = simulator.simulate(digits)
            yield ShotChunk(
                feedline=result.feedline,
                prepared_levels=result.prepared_levels,
                chunk_id=chunk_id,
            )
            # Advance per chunk: an abandoned acquisition leaves the
            # clock at the shots it actually streamed.
            self._delivered += size

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "labeled": True,
                "deterministic": True,
                "chunk_size": self.chunk_size,
                "drift": None if self.drift is None else self.drift.to_dict(),
                "session_shots": self._delivered,
            }
        )
        return info
