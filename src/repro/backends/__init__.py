"""Pluggable instrument backends: where serving traffic comes from.

The qibolab-style seam between the serving runtime and trace
acquisition: an :class:`~repro.backends.base.InstrumentBackend` is a
session-scoped endpoint (``open``/``acquire``/``close``) streaming
:class:`~repro.pipeline.source.ShotChunk` batches, and the serving layer
resolves one through :func:`~repro.backends.registry.create_backend`
from the ``TrafficSpec.backend`` selection instead of constructing
simulators inline.

Backends:

- ``simulator`` — the in-process dispersive simulator (with optional
  device drift), the default and the only traffic generator.
- ``dummy`` — deterministic seeded random I/Q traffic for harness tests.
- ``replay`` — bit-deterministic replay of a recorded on-disk corpus
  (:mod:`repro.backends.corpus`), chip-SHA-validated against the
  serving device.
- ``socket`` — length-prefixed chunk frames from a local socket/IPC
  peer (:func:`~repro.backends.socketio.serve_corpus_over_socket` is
  the counterpart producer).

Recording is an orthogonal wrapper: ``record_path`` tees any of the
generating backends' chunks into a versioned corpus directory with a
strict-JSON manifest (format version, chip SHA, seed, source/drift
section, per-chunk checksums).
"""

from repro.backends.base import AcquisitionTraceSource, InstrumentBackend
from repro.backends.corpus import (
    CORPUS_FORMAT,
    CORPUS_FORMAT_VERSION,
    CorpusLayout,
    CorpusWriter,
    RecordedCorpus,
    chip_sha,
    load_corpus,
    read_corpus_layout,
)
from repro.backends.dummy import DummyBackend
from repro.backends.recording import RecordingBackend, ReplayBackend
from repro.backends.registry import BACKEND_NAMES, create_backend
from repro.backends.simulator import SimulatorBackend
from repro.backends.socketio import SocketBackend, serve_corpus_over_socket

__all__ = [
    "InstrumentBackend",
    "AcquisitionTraceSource",
    "SimulatorBackend",
    "DummyBackend",
    "RecordingBackend",
    "ReplayBackend",
    "SocketBackend",
    "serve_corpus_over_socket",
    "CorpusWriter",
    "CorpusLayout",
    "RecordedCorpus",
    "read_corpus_layout",
    "load_corpus",
    "chip_sha",
    "CORPUS_FORMAT",
    "CORPUS_FORMAT_VERSION",
    "BACKEND_NAMES",
    "create_backend",
]
