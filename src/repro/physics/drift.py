"""Device parameter drift across a serving session.

Calibrated readout does not stay calibrated: readout-resonator
frequencies wander (flux noise, TLS defects pulling the resonator),
qubit T1 degrades and recovers on minutes-to-hours timescales, and drive
chains lose contrast. Multiplexed dispersive readout is especially
sensitive to per-channel frequency drift — the matched-filter kernels
and demodulation tones are calibrated at fixed intermediate frequencies,
so a detuned channel smears its baseband trajectory across the whole
readout window (Chen et al., *Multiplexed dispersive readout*; Kundu et
al., *Multiplexed readout of four qubits in 3D cQED*).

:class:`DriftModel` is the injection side of that story: a deterministic
parameter evolution that maps a calibrated :class:`~repro.physics.device
.ChipConfig` plus an elapsed-session clock (measured in shots, the only
clock a discrimination pipeline natively has) to the device as it looks
*now*. The streaming sources use it to emit traffic from a time-varying
device; the serving layer uses it to snapshot the drifted device when it
recalibrates.

Drift rates are expressed per **kilo-shot** so the numbers stay human:
``if_detune_ghz_per_kshot=5e-4`` means every 1000 shots of session
traffic pull each readout tone 0.5 MHz off its calibrated intermediate
frequency — enough to rotate the baseband by ``2*pi*0.5e6*1e-6 ~ pi``
radians across a 1 us window after a couple thousand shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError
from repro.physics.device import ChipConfig

__all__ = ["DriftModel", "DEMO_DRIFT"]


@dataclass(frozen=True)
class DriftModel:
    """Deterministic per-kshot evolution of a chip's readout parameters.

    Parameters
    ----------
    if_detune_ghz_per_kshot:
        Linear readout-resonator (intermediate-frequency) detuning added
        to every qubit's ``if_frequency_ghz`` per 1000 shots of session
        traffic. May be negative; the drifted IF is clamped just inside
        the ADC Nyquist band so a long session degrades instead of
        becoming an unphysical device.
    t1_decay_per_kshot:
        Exponential decay rate of T1 (and the |2> lifetime) per kshot:
        after ``s`` shots, ``t1 *= exp(-rate * s / 1000)``.
    amplitude_decay_per_kshot:
        Exponential decay rate of the per-qubit drive amplitude per
        kshot — the assignment-contrast (SNR) decay channel.
    """

    if_detune_ghz_per_kshot: float = 0.0
    t1_decay_per_kshot: float = 0.0
    amplitude_decay_per_kshot: float = 0.0

    def __post_init__(self) -> None:
        problems = []
        if not isinstance(self.if_detune_ghz_per_kshot, (int, float)) or (
            isinstance(self.if_detune_ghz_per_kshot, bool)
        ):
            problems.append(
                "if_detune_ghz_per_kshot must be a number, got "
                f"{self.if_detune_ghz_per_kshot!r}"
            )
        for field_name in ("t1_decay_per_kshot", "amplitude_decay_per_kshot"):
            value = getattr(self, field_name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or value < 0
            ):
                problems.append(
                    f"{field_name} must be a number >= 0, got {value!r}"
                )
        if problems:
            raise ConfigurationError(
                "invalid DriftModel: " + "; ".join(problems)
            )

    @property
    def is_null(self) -> bool:
        """Whether this model leaves every parameter untouched."""
        return (
            self.if_detune_ghz_per_kshot == 0.0
            and self.t1_decay_per_kshot == 0.0
            and self.amplitude_decay_per_kshot == 0.0
        )

    def chip_at(self, chip: ChipConfig, shots_elapsed: int) -> ChipConfig:
        """The device as it looks after ``shots_elapsed`` session shots.

        Deterministic and memoryless: the same (chip, clock) pair always
        yields the same drifted device, so serving shards and
        recalibration snapshots agree on what "now" means without
        sharing state.
        """
        if shots_elapsed < 0:
            raise ConfigurationError(
                f"shots_elapsed must be >= 0, got {shots_elapsed}"
            )
        if self.is_null or shots_elapsed == 0:
            return chip
        kshots = shots_elapsed / 1000.0
        detune = self.if_detune_ghz_per_kshot * kshots
        t1_scale = math.exp(-self.t1_decay_per_kshot * kshots)
        amp_scale = math.exp(-self.amplitude_decay_per_kshot * kshots)
        # The drifted IF must stay a representable tone: clamp just
        # inside the Nyquist band rather than letting ChipConfig reject
        # the device mid-session.
        nyquist = chip.adc.sample_rate_ghz / 2.0
        limit = nyquist * (1.0 - 1e-6)
        qubits = tuple(
            replace(
                q,
                if_frequency_ghz=max(
                    -limit, min(limit, q.if_frequency_ghz + detune)
                ),
                t1_ns=q.t1_ns * t1_scale,
                t1_2_ns=q.t1_2_ns * t1_scale,
                amplitude=q.amplitude * amp_scale,
            )
            for q in chip.qubits
        )
        return replace(chip, qubits=qubits)

    def to_dict(self) -> dict:
        """Plain-value dictionary (spec serialization)."""
        return {
            "if_detune_ghz_per_kshot": self.if_detune_ghz_per_kshot,
            "t1_decay_per_kshot": self.t1_decay_per_kshot,
            "amplitude_decay_per_kshot": self.amplitude_decay_per_kshot,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DriftModel":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


#: Canned drift of ``examples/serve_spec_drift_demo.json`` and the
#: drift-recalibration benchmark: strong enough that accuracy visibly
#: degrades within a few hundred shots, mild enough that a single
#: recalibration fully recovers it.
DEMO_DRIFT = DriftModel(
    if_detune_ghz_per_kshot=5e-4,
    t1_decay_per_kshot=0.05,
    amplitude_decay_per_kshot=0.02,
)
