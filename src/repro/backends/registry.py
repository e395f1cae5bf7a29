"""Backend registry: resolve a ``TrafficSpec.backend`` name to a backend.

The serving layer (:class:`~repro.serve.service.ReadoutService`) calls
:func:`create_backend` with the spec's traffic fields instead of
constructing trace sources inline — one place decides what a backend
name means, and recording (``record_path``) composes over any
recordable backend.
"""

from __future__ import annotations

from repro.backends.base import InstrumentBackend
from repro.backends.dummy import DummyBackend
from repro.backends.recording import RecordingBackend, ReplayBackend
from repro.backends.simulator import SimulatorBackend
from repro.backends.socketio import SocketBackend
from repro.exceptions import ConfigurationError
from repro.physics.device import ChipConfig

__all__ = ["BACKEND_NAMES", "create_backend"]

#: Valid ``TrafficSpec.backend`` selections.
BACKEND_NAMES = ("simulator", "dummy", "replay", "socket")


def create_backend(
    name: str,
    chip: ChipConfig,
    *,
    chunk_size: int = 256,
    drift=None,
    corpus_path: str | None = None,
    record_path: str | None = None,
    socket_path: str | None = None,
) -> InstrumentBackend:
    """Build the named backend for ``chip``; not yet opened.

    ``record_path`` wraps the built backend in a
    :class:`~repro.backends.recording.RecordingBackend` (invalid for
    ``replay`` — a replayed stream already *is* a recording).
    Cross-field requirements mirror ``TrafficSpec`` validation so
    programmatic callers get the same errors as spec files.
    """
    if name not in BACKEND_NAMES:
        known = ", ".join(BACKEND_NAMES)
        raise ConfigurationError(
            f"backend must be one of: {known}; got {name!r}"
        )
    drifting = drift is not None and not drift.is_null
    if name == "replay" and corpus_path is None:
        raise ConfigurationError("the replay backend requires corpus_path")
    if name != "replay" and corpus_path is not None:
        raise ConfigurationError(
            "corpus_path is only meaningful with the replay backend"
        )
    if name == "socket" and socket_path is None:
        raise ConfigurationError("the socket backend requires socket_path")
    if name != "socket" and socket_path is not None:
        raise ConfigurationError(
            "socket_path is only meaningful with the socket backend"
        )
    if name == "replay" and record_path is not None:
        raise ConfigurationError(
            "record_path cannot be combined with the replay backend: a "
            "replayed stream is already a recording"
        )
    if drifting and name != "simulator":
        raise ConfigurationError(
            "drift injection requires the simulator backend, got "
            f"{name!r}"
        )

    if name == "replay":
        backend: InstrumentBackend = ReplayBackend(corpus_path, chip=chip)
    elif name == "socket":
        backend = SocketBackend(socket_path, chip=chip)
    elif name == "dummy":
        backend = DummyBackend(chip, chunk_size=chunk_size)
    else:
        backend = SimulatorBackend(chip, chunk_size=chunk_size, drift=drift)
    if record_path is not None:
        backend = RecordingBackend(backend, record_path)
    return backend
