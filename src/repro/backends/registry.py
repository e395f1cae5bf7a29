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

__all__ = ["BACKEND_NAMES", "backend_problems", "create_backend"]

#: Valid ``TrafficSpec.backend`` selections.
BACKEND_NAMES = ("simulator", "dummy", "replay", "socket")


def backend_problems(
    name: str,
    *,
    corpus_path: str | None = None,
    record_path: str | None = None,
    socket_path: str | None = None,
    drifting: bool = False,
) -> list[str]:
    """Every cross-field rule a backend selection breaks, one line each.

    The one statement of the rules: :func:`create_backend` raises all
    of them at once, and ``TrafficSpec`` and ``ServeSpec`` add them to
    their own problem lists. ``drifting`` says whether drift is
    injected, which only the simulator models.
    """
    if name not in BACKEND_NAMES:
        known = ", ".join(BACKEND_NAMES)
        return [f"backend must be one of: {known}; got {name!r}"]
    problems: list[str] = []
    if name == "replay":
        if corpus_path is None:
            problems.append("corpus_path is required by the replay backend")
        if record_path is not None:
            problems.append(
                "record_path cannot be combined with the replay backend: "
                "a replayed stream is already a recording"
            )
    elif corpus_path is not None:
        problems.append(
            "corpus_path is only meaningful with the replay backend, "
            f"got backend={name!r}"
        )
    if name == "socket":
        if socket_path is None:
            problems.append("socket_path is required by the socket backend")
    elif socket_path is not None:
        problems.append(
            "socket_path is only meaningful with the socket backend, "
            f"got backend={name!r}"
        )
    if drifting and name != "simulator":
        problems.append(
            f"drift injection requires the simulator backend, got {name!r}"
        )
    return problems


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
    ``replay`` — a replayed stream already *is* a recording). Every
    broken :func:`backend_problems` rule is raised at once, so
    programmatic callers get the same errors as spec files.
    """
    problems = backend_problems(
        name,
        corpus_path=corpus_path,
        record_path=record_path,
        socket_path=socket_path,
        drifting=drift is not None and not drift.is_null,
    )
    if problems:
        raise ConfigurationError("; ".join(problems))

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
