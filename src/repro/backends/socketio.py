"""Socket instrument backend: traffic framed in from outside the process.

The wire format is length-prefixed frames over any stream socket (a
``socketpair``, a ``AF_UNIX`` path, a loopback TCP pair): each frame is a
4-byte big-endian length followed by a UTF-8 JSON header, optionally
followed by raw array payload bytes whose sizes the header declares.
Three frame types::

    {"type": "hello", "format_version": 1, "chip": {...}, "chip_sha": s,
     "n_shots": N, "labeled": true, "trace_len": L, "n_qubits": Q,
     "feedline_dtype": "complex64", "levels_dtype": "int8"}
    {"type": "chunk", "chunk_id": i, "n_shots": n,
     "feedline_nbytes": F, "levels_nbytes": V}   # then F + V raw bytes
    {"type": "end", "n_chunks": K}

:func:`serve_corpus_over_socket` is the counterpart producer: it frames
a recorded corpus down a socket, which is both the loopback test harness
and the reference implementation for an external digitizer process.
Arrays received by :class:`SocketBackend` are built with
``np.frombuffer`` over immutable bytes, so replayed chunks are naturally
read-only.
"""

from __future__ import annotations

import json
import socket as socketlib
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.backends.base import InstrumentBackend
from repro.backends.corpus import (
    CORPUS_FORMAT_VERSION,
    RecordedCorpus,
    chip_sha,
    load_corpus,
)
from repro.exceptions import ConfigurationError, DataError
from repro.physics.device import ChipConfig
from repro.pipeline.source import ShotChunk

__all__ = ["SocketBackend", "serve_corpus_over_socket"]

_LEN = struct.Struct(">I")

#: Refuse absurd frame headers instead of allocating unbounded buffers.
_MAX_HEADER_BYTES = 1 << 20


def _send_frame(sock: socketlib.socket, header: dict, *payloads: bytes) -> None:
    body = json.dumps(header).encode()
    sock.sendall(_LEN.pack(len(body)) + body)
    for payload in payloads:
        if payload:
            sock.sendall(payload)


def _recv_exact(sock: socketlib.socket, n: int) -> bytes:
    parts: list[bytes] = []
    remaining = n
    while remaining > 0:
        block = sock.recv(min(remaining, 1 << 20))
        if not block:
            raise DataError(
                f"socket stream ended mid-frame ({remaining} of {n} bytes "
                "missing)"
            )
        parts.append(block)
        remaining -= len(block)
    return b"".join(parts)


def _recv_header(sock: socketlib.socket) -> dict:
    length = _LEN.unpack(_recv_exact(sock, _LEN.size))[0]
    if length > _MAX_HEADER_BYTES:
        raise DataError(
            f"socket frame header of {length} bytes exceeds the "
            f"{_MAX_HEADER_BYTES}-byte bound"
        )
    try:
        header = json.loads(_recv_exact(sock, length).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"socket frame header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise DataError(f"socket frame header malformed: {header!r}")
    return header


def serve_corpus_over_socket(
    corpus: "RecordedCorpus | str | Path",
    sock: "socketlib.socket | str | Path",
) -> int:
    """Frame a recorded corpus down a socket; returns chunks sent.

    ``corpus`` may be a loaded :class:`RecordedCorpus` or a corpus
    directory path. ``sock`` is either an already-connected stream
    socket (e.g. one end of ``socket.socketpair()``) or an ``AF_UNIX``
    path to bind, listen on, and serve exactly one connection from.
    """
    if isinstance(corpus, (str, Path)):
        corpus = load_corpus(corpus)
    own_listener = None
    conn = sock
    if isinstance(sock, (str, Path)):
        own_listener = socketlib.socket(socketlib.AF_UNIX)
        own_listener.bind(str(sock))
        own_listener.listen(1)
        conn, _ = own_listener.accept()
    try:
        _send_frame(
            conn,
            {
                "type": "hello",
                "format_version": CORPUS_FORMAT_VERSION,
                "chip": corpus.chip.to_dict(),
                "chip_sha": corpus.chip_sha,
                "n_shots": corpus.n_shots,
                "labeled": corpus.labeled,
                "trace_len": corpus.trace_len,
                "n_qubits": corpus.chip.n_qubits,
                "feedline_dtype": corpus.feedline.dtype.str,
                "levels_dtype": (
                    None
                    if corpus.prepared_levels is None
                    else corpus.prepared_levels.dtype.str
                ),
            },
        )
        n_chunks = 0
        for chunk in corpus.chunks():
            feed = np.ascontiguousarray(chunk.feedline)
            levels = (
                None
                if chunk.prepared_levels is None
                else np.ascontiguousarray(chunk.prepared_levels)
            )
            _send_frame(
                conn,
                {
                    "type": "chunk",
                    "chunk_id": chunk.chunk_id,
                    "n_shots": chunk.n_shots,
                    "feedline_nbytes": feed.nbytes,
                    "levels_nbytes": 0 if levels is None else levels.nbytes,
                },
                feed.tobytes(),
                b"" if levels is None else levels.tobytes(),
            )
            n_chunks += 1
        _send_frame(conn, {"type": "end", "n_chunks": n_chunks})
        return n_chunks
    finally:
        if own_listener is not None:
            conn.close()
            own_listener.close()


class SocketBackend(InstrumentBackend):
    """Receives one framed chunk stream from a local socket peer.

    Parameters
    ----------
    address:
        ``AF_UNIX`` socket path to connect to at :meth:`open`; mutually
        exclusive with ``sock``.
    chip:
        Expected serving chip. When given, the peer's ``hello`` chip SHA
        must match exactly; ``None`` adopts the chip the peer declares.
    sock:
        An already-connected socket (e.g. the other end of a
        ``socketpair``) to read from instead of connecting.
    timeout:
        Per-receive timeout in seconds applied to the socket, so a dead
        peer fails the run instead of hanging it.

    The stream is single-use: one ``hello``, the chunk frames, one
    ``end``. A second acquisition on the same connection raises. The
    ``hello`` declares the acquisition and the frames must match it: a
    chunk whose byte counts disagree with its shape, a chunk past the
    declared shot count, or an ``end`` short of the declared shots or
    chunks raises :class:`~repro.exceptions.DataError`.
    """

    name = "socket"

    def __init__(
        self,
        address: "str | Path | None" = None,
        chip: ChipConfig | None = None,
        *,
        sock: "socketlib.socket | None" = None,
        timeout: float = 30.0,
    ) -> None:
        if (address is None) == (sock is None):
            raise ConfigurationError(
                "exactly one of address and sock must be given"
            )
        self.address = None if address is None else str(address)
        self.chip = chip
        self.timeout = float(timeout)
        self._sock = sock
        self._own_sock = sock is None
        self._hello: dict | None = None
        self._exhausted = False

    def open(self) -> "SocketBackend":
        if self._sock is None:
            sock = socketlib.socket(socketlib.AF_UNIX)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.address)
            except OSError as exc:
                sock.close()
                raise ConfigurationError(
                    f"cannot connect to socket backend at {self.address}: "
                    f"{exc}"
                ) from exc
            self._sock = sock
        else:
            self._sock.settimeout(self.timeout)
        if self._hello is None:
            hello = _recv_header(self._sock)
            if hello.get("type") != "hello":
                raise DataError(
                    f"socket peer opened with {hello.get('type')!r}, "
                    "expected 'hello'"
                )
            if hello.get("format_version") != CORPUS_FORMAT_VERSION:
                raise DataError(
                    f"socket peer speaks format_version "
                    f"{hello.get('format_version')!r}, expected "
                    f"{CORPUS_FORMAT_VERSION}"
                )
            peer_chip = ChipConfig.from_dict(hello["chip"])
            if self.chip is not None:
                serving = chip_sha(self.chip)
                if hello["chip_sha"] != serving:
                    raise ConfigurationError(
                        f"socket peer streams chip {hello['chip_sha'][:12]}, "
                        f"the serving chip is {serving[:12]}; refusing to "
                        "discriminate another device's traces"
                    )
            else:
                self.chip = peer_chip
            self._hello = hello
        return self

    def close(self) -> None:
        if self._sock is not None and self._own_sock:
            self._sock.close()
        self._sock = None
        self._hello = None

    def _require_open(self) -> dict:
        if self._sock is None or self._hello is None:
            raise ConfigurationError(
                "SocketBackend must be opened before use"
            )
        return self._hello

    def acquire(
        self, shots: int, seed: int | None = None
    ) -> Iterator[ShotChunk]:
        del shots, seed  # the peer's stream is already fixed
        hello = self._require_open()
        if self._exhausted:
            raise DataError(
                "socket stream already consumed; the peer sends one "
                "chunk sequence per connection"
            )
        self._exhausted = True
        trace_len = int(hello["trace_len"])
        n_qubits = int(hello["n_qubits"])
        declared = int(hello["n_shots"])
        feedline_dtype = np.dtype(hello["feedline_dtype"])
        levels_dtype = (
            np.dtype(hello["levels_dtype"]) if hello.get("labeled") else None
        )
        received = 0
        n_chunks = 0
        while True:
            header = _recv_header(self._sock)
            kind = header.get("type")
            if kind == "end":
                break
            if kind != "chunk":
                raise DataError(
                    f"unexpected socket frame type {kind!r} mid-stream"
                )
            chunk_id = int(header["chunk_id"])
            n = int(header["n_shots"])
            if received + n > declared:
                raise DataError(
                    f"socket chunk {chunk_id} brings the stream to "
                    f"{received + n} shots; the hello declared {declared}"
                )
            feedline_nbytes = int(header["feedline_nbytes"])
            levels_nbytes = int(header.get("levels_nbytes", 0))
            expected = (
                n * trace_len * feedline_dtype.itemsize,
                0 if levels_dtype is None
                else n * n_qubits * levels_dtype.itemsize,
            )
            if (feedline_nbytes, levels_nbytes) != expected:
                raise DataError(
                    f"socket chunk {chunk_id} of {n} shots carries "
                    f"({feedline_nbytes}, {levels_nbytes}) feedline and "
                    f"level bytes; its shape needs {expected}"
                )
            feedline = np.frombuffer(
                _recv_exact(self._sock, feedline_nbytes), dtype=feedline_dtype
            ).reshape(n, trace_len)
            levels = None
            if levels_dtype is not None:
                levels = np.frombuffer(
                    _recv_exact(self._sock, levels_nbytes), dtype=levels_dtype
                ).reshape(n, n_qubits)
            received += n
            n_chunks += 1
            yield ShotChunk(
                feedline=feedline,
                prepared_levels=levels,
                chunk_id=chunk_id,
            )
        if (received, n_chunks) != (declared, header.get("n_chunks")):
            raise DataError(
                f"socket stream ended after {received} shots in {n_chunks} "
                f"chunks; the peer declared {declared} shots in "
                f"{header.get('n_chunks')} chunks"
            )

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            {
                "address": self.address,
                "external": True,
                "labeled": (
                    None
                    if self._hello is None
                    else bool(self._hello.get("labeled"))
                ),
            }
        )
        if self._hello is not None:
            info["peer_chip_sha"] = self._hello["chip_sha"]
            info["peer_shots"] = self._hello["n_shots"]
        return info
