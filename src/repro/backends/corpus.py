"""Versioned on-disk trace corpora: the record/replay storage format.

A recorded corpus is a directory::

    corpus/
      manifest.json            # strict JSON, format-versioned
      chunk-00000.feedline.npy # complex64 (n_shots, trace_len)
      chunk-00000.levels.npy   # int8 (n_shots, n_qubits), labeled only
      chunk-00001.feedline.npy
      ...

The manifest pins everything replay needs to be *bit-deterministic and
safe*: the format version, the full chip config plus its SHA-1 (the same
digest the calibration registry keys on, so a replayed corpus can never
silently feed a discriminator calibrated for another chip), the
recording seed and source description (backend name, drift section), and
a SHA-256 per chunk file.

Loading reads every trace byte once. :func:`read_corpus_layout` checks
the manifest and stats each chunk file against the bytes its declared
rows need, so nothing is sized from rows that are not on disk; then
:func:`load_corpus` reads each file in one pass — ``.npy`` header
parsed and checked against the manifest, rows read straight into their
destination, header and rows hashed by one SHA-256 (the file's
whole-file digest). Any mismatch, checksummed or not, raises a precise
:class:`~repro.exceptions.ConfigurationError` naming the offending file.

Replayed arrays are read-only (``flags.writeable = False``): a corpus is
shared evidence, and no downstream stage may silently corrupt it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from tokenize import TokenError
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.physics.device import ChipConfig
from repro.pipeline.shm import SharedTraceBlock
from repro.pipeline.source import ShotChunk

__all__ = [
    "CORPUS_FORMAT",
    "CORPUS_FORMAT_VERSION",
    "MANIFEST_NAME",
    "chip_sha",
    "CorpusWriter",
    "CorpusLayout",
    "RecordedCorpus",
    "read_corpus_layout",
    "load_corpus",
]

#: Manifest ``format`` tag — a corpus directory self-identifies.
CORPUS_FORMAT = "repro-trace-corpus"

#: Current manifest schema version; bumped on layout changes.
CORPUS_FORMAT_VERSION = 1

#: Manifest file name inside a corpus directory.
MANIFEST_NAME = "manifest.json"

_FEEDLINE_DTYPE = "complex64"
_LEVELS_DTYPE = "int8"


def chip_sha(chip: ChipConfig) -> str:
    """Full SHA-1 of the chip config (sorted-key JSON of ``to_dict``).

    The same payload the calibration registry's device slug truncates —
    a corpus and an artifact recorded for the same chip agree on it.
    """
    payload = json.dumps(chip.to_dict(), sort_keys=True).encode()
    return hashlib.sha1(payload).hexdigest()


class _HashingFile:
    """Write-only file wrapper feeding every byte written to one sha256."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.digest = hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self._fh.write(data)


def _save_hashed(path: Path, array: np.ndarray) -> str:
    """Write ``array`` as ``np.save`` does; return the file's sha256.

    The ``.npy`` header and rows are hashed as they are written, so
    recording never reads a chunk file back.
    """
    with open(path, "wb") as fh:
        out = _HashingFile(fh)
        np.lib.format.write_array(out, array, allow_pickle=False)
    return out.digest.hexdigest()


class CorpusWriter:
    """Appends shot chunks to a corpus directory, manifest-last.

    The target directory must not already hold a corpus (fresh or empty
    directories only — recording never silently overwrites evidence).
    Chunk files land as they are appended; the manifest is (re)written
    by :meth:`close` and after every :meth:`checkpoint`, so a crashed
    recording leaves either a loadable prefix or no manifest at all —
    never a manifest describing missing data.
    """

    def __init__(
        self,
        path: str | Path,
        chip: ChipConfig,
        *,
        seed: int | None = None,
        source: dict | None = None,
    ) -> None:
        path = Path(path)
        if path.exists():
            if not path.is_dir():
                raise ConfigurationError(
                    f"corpus path {path} exists and is not a directory"
                )
            if any(path.iterdir()):
                raise ConfigurationError(
                    f"corpus directory {path} is not empty; refusing to "
                    "overwrite an existing recording"
                )
        path.mkdir(parents=True, exist_ok=True)
        self.path = path
        self.chip = chip
        self.seed = seed
        self.source = dict(source) if source else {}
        self._entries: list[dict] = []
        self._n_shots = 0
        self._labeled: bool | None = None
        self._closed = False

    @property
    def n_shots(self) -> int:
        return self._n_shots

    @property
    def n_chunks(self) -> int:
        return len(self._entries)

    def append(self, chunk: ShotChunk) -> None:
        """Write one chunk's arrays and register them in the manifest."""
        if self._closed:
            raise ConfigurationError(
                f"corpus writer for {self.path} is closed"
            )
        labeled = chunk.prepared_levels is not None
        if self._labeled is None:
            self._labeled = labeled
        elif labeled != self._labeled:
            raise ConfigurationError(
                "corpus chunks must be uniformly labeled or unlabeled; "
                f"chunk {len(self._entries)} breaks the stream"
            )
        index = len(self._entries)
        feedline = np.ascontiguousarray(
            chunk.feedline, dtype=np.dtype(_FEEDLINE_DTYPE)
        )
        entry = {"index": index, "n_shots": int(chunk.n_shots)}
        feed_name = f"chunk-{index:05d}.feedline.npy"
        entry["feedline"] = {
            "file": feed_name,
            "sha256": _save_hashed(self.path / feed_name, feedline),
        }
        if labeled:
            levels = np.ascontiguousarray(
                chunk.prepared_levels, dtype=np.dtype(_LEVELS_DTYPE)
            )
            levels_name = f"chunk-{index:05d}.levels.npy"
            entry["levels"] = {
                "file": levels_name,
                "sha256": _save_hashed(self.path / levels_name, levels),
            }
        self._entries.append(entry)
        self._n_shots += int(chunk.n_shots)

    def manifest(self) -> dict:
        """The manifest for everything appended so far."""
        return {
            "format": CORPUS_FORMAT,
            "format_version": CORPUS_FORMAT_VERSION,
            "chip": self.chip.to_dict(),
            "chip_sha": chip_sha(self.chip),
            "seed": self.seed,
            "source": self.source,
            "labeled": bool(self._labeled),
            "n_shots": self._n_shots,
            "trace_len": self.chip.trace_len,
            "n_qubits": self.chip.n_qubits,
            "feedline_dtype": _FEEDLINE_DTYPE,
            "levels_dtype": _LEVELS_DTYPE,
            "chunks": self._entries,
        }

    def checkpoint(self) -> None:
        """Atomically (re)write the manifest for the chunks on disk."""
        tmp = self.path / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(self.manifest(), indent=2) + "\n")
        tmp.replace(self.path / MANIFEST_NAME)

    def close(self) -> Path:
        """Finalize the manifest; returns the corpus path. Idempotent."""
        if not self._closed:
            self.checkpoint()
            self._closed = True
        return self.path


class CorpusLayout:
    """A corpus directory as its manifest describes it, before any chunk is read.

    Built by :func:`read_corpus_layout`: the manifest parses, its chip
    rebuilds to the recorded SHA, and every chunk file it names is on
    disk with more bytes than its declared rows need. It says what
    :func:`load_corpus` will deliver (chip, shot count, trace length,
    labels, dtypes), so a caller can size and check a destination
    before any trace byte is read. :class:`RecordedCorpus` is a layout
    with its chunks loaded.
    """

    def __init__(
        self,
        path: Path,
        manifest: dict,
        chip: ChipConfig,
        chunk_shots: Sequence[int],
    ) -> None:
        self.path = path
        self.manifest = manifest
        self.chip = chip
        self.chunk_shots = tuple(int(n) for n in chunk_shots)

    @property
    def n_shots(self) -> int:
        return sum(self.chunk_shots)

    #: Alias matching :class:`~repro.data.dataset.ReadoutCorpus`, so a
    #: recorded corpus drops into every replay API a ReadoutCorpus fits.
    @property
    def n_traces(self) -> int:
        return self.n_shots

    @property
    def trace_len(self) -> int:
        return int(self.manifest["trace_len"])

    @property
    def n_qubits(self) -> int:
        return int(self.manifest["n_qubits"])

    @property
    def labeled(self) -> bool:
        return bool(self.manifest["labeled"])

    @property
    def feedline_dtype(self) -> np.dtype:
        return np.dtype(self.manifest["feedline_dtype"])

    @property
    def levels_dtype(self) -> np.dtype:
        return np.dtype(self.manifest["levels_dtype"])

    @property
    def chip_sha(self) -> str:
        return self.manifest["chip_sha"]

    @property
    def seed(self) -> int | None:
        return self.manifest.get("seed")

    def summary(self) -> dict:
        """JSON-able digest (CLI/report payloads)."""
        return {
            "path": str(self.path),
            "format_version": self.manifest["format_version"],
            "chip_sha": self.chip_sha,
            "seed": self.seed,
            "labeled": self.labeled,
            "n_shots": self.n_shots,
            "n_chunks": len(self.chunk_shots),
            "trace_len": self.trace_len,
            "n_qubits": self.chip.n_qubits,
        }

    def require_chip(self, chip: ChipConfig) -> None:
        """Demand the serving chip be *exactly* the recorded one."""
        serving = chip_sha(chip)
        if serving != self.chip_sha:
            raise ConfigurationError(
                f"corpus {self.path / MANIFEST_NAME} was recorded for chip "
                f"{self.chip_sha[:12]}, the serving chip is {serving[:12]}; "
                "replaying traces onto a different device is refused"
            )

    def require_geometry(self, chip: ChipConfig) -> None:
        """Demand shape compatibility (cluster replay onto sibling chips)."""
        problems = []
        if chip.n_qubits != self.chip.n_qubits:
            problems.append(
                f"{self.chip.n_qubits} recorded qubits vs {chip.n_qubits}"
            )
        if chip.trace_len != self.trace_len:
            problems.append(
                f"trace_len {self.trace_len} recorded vs {chip.trace_len}"
            )
        if chip.n_levels != self.chip.n_levels:
            problems.append(
                f"{self.chip.n_levels} recorded levels vs {chip.n_levels}"
            )
        if problems:
            raise ConfigurationError(
                f"corpus {self.path / MANIFEST_NAME} does not fit the "
                "serving chip: " + "; ".join(problems)
            )


class RecordedCorpus(CorpusLayout):
    """A loaded, integrity-checked corpus, ready for replay.

    Its layout plus all trace data, in two read-only contiguous arrays
    (:attr:`feedline`, :attr:`prepared_levels`) — the shapes a
    :class:`~repro.pipeline.shm.SharedTraceBlock` publishes for
    process-shard replay — and :meth:`chunks` yields the *original*
    chunk boundaries as zero-copy views into them, so in-process replay
    is bit-identical to the recorded stream.
    """

    def __init__(
        self,
        path: Path,
        manifest: dict,
        chip: ChipConfig,
        feedline: np.ndarray,
        prepared_levels: np.ndarray | None,
        chunk_shots: Sequence[int],
    ) -> None:
        super().__init__(path, manifest, chip, chunk_shots)
        feedline.flags.writeable = False
        self.feedline = feedline
        if prepared_levels is not None:
            prepared_levels.flags.writeable = False
        self.prepared_levels = prepared_levels

    def chunks(self) -> Iterator[ShotChunk]:
        """Replay the recorded chunk stream as read-only views."""
        start = 0
        for chunk_id, size in enumerate(self.chunk_shots):
            stop = start + size
            levels = (
                None
                if self.prepared_levels is None
                else self.prepared_levels[start:stop]
            )
            yield ShotChunk(
                feedline=self.feedline[start:stop],
                prepared_levels=levels,
                chunk_id=chunk_id,
            )
            start = stop


def _manifest_error(path: Path, detail: str) -> ConfigurationError:
    return ConfigurationError(f"corpus manifest {path}: {detail}")


def _load_manifest(manifest_path: Path) -> dict:
    if not manifest_path.is_file():
        raise ConfigurationError(
            f"corpus manifest not found: {manifest_path}"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise _manifest_error(
            manifest_path, f"not valid JSON ({exc})"
        ) from exc
    if not isinstance(manifest, dict):
        raise _manifest_error(
            manifest_path, f"must be a JSON object, got {type(manifest).__name__}"
        )
    if manifest.get("format") != CORPUS_FORMAT:
        raise _manifest_error(
            manifest_path,
            f"format must be {CORPUS_FORMAT!r}, got "
            f"{manifest.get('format')!r}",
        )
    if manifest.get("format_version") != CORPUS_FORMAT_VERSION:
        raise _manifest_error(
            manifest_path,
            f"format_version {manifest.get('format_version')!r} is not "
            f"supported (expected {CORPUS_FORMAT_VERSION})",
        )
    required = (
        "chip", "chip_sha", "labeled", "n_shots", "trace_len", "n_qubits",
        "feedline_dtype", "levels_dtype", "chunks",
    )
    missing = [key for key in required if key not in manifest]
    if missing:
        raise _manifest_error(
            manifest_path, f"missing required keys: {', '.join(missing)}"
        )
    if not isinstance(manifest["chunks"], list) or not manifest["chunks"]:
        raise _manifest_error(
            manifest_path, "chunks must be a non-empty list"
        )
    return manifest


class _ChunkFile(NamedTuple):
    """One chunk file the manifest names, and where its bytes land.

    ``offset`` is the byte offset of its rows in a corpus laid out as
    every feedline row, then every level row — the layout of both a
    loaded corpus's buffer and a :class:`SharedTraceBlock` segment.
    """

    path: Path
    sha256: str
    dtype: np.dtype
    shape: tuple[int, int]
    offset: int

    @property
    def nbytes(self) -> int:
        return self.shape[0] * self.shape[1] * self.dtype.itemsize


def _chunk_error(file: _ChunkFile, detail: str) -> ConfigurationError:
    return ConfigurationError(f"corpus chunk {file.path} {detail}")


def _read_layout(path: Path) -> tuple[CorpusLayout, list[_ChunkFile]]:
    """The checked layout and its chunk files, feedline files first.

    Reads the manifest and stats every chunk file; reads no chunk.
    """
    manifest_path = path / MANIFEST_NAME
    manifest = _load_manifest(manifest_path)
    try:
        chip = ChipConfig.from_dict(manifest["chip"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _manifest_error(
            manifest_path, f"chip section does not parse ({exc})"
        ) from exc
    if chip_sha(chip) != manifest["chip_sha"]:
        raise _manifest_error(
            manifest_path,
            f"chip_sha {manifest['chip_sha'][:12]}… does not match the "
            "manifest's own chip section — the manifest was altered",
        )
    try:
        declared = int(manifest["n_shots"])
        chunk_shots = [int(spec["n_shots"]) for spec in manifest["chunks"]]
        layout = CorpusLayout(path, manifest, chip, chunk_shots)
        parts = [("feedline", layout.feedline_dtype, layout.trace_len)]
        if layout.labeled:
            parts.append(("levels", layout.levels_dtype, layout.n_qubits))
    except (KeyError, TypeError, ValueError) as exc:
        raise _manifest_error(
            manifest_path, f"geometry does not parse ({exc!r})"
        ) from exc
    if min(chunk_shots) < 0:
        raise _manifest_error(manifest_path, "a chunk declares n_shots < 0")
    files: list[_ChunkFile] = []
    offset = 0
    for part, dtype, width in parts:
        for spec, size in zip(manifest["chunks"], chunk_shots):
            try:
                name, sha256 = spec[part]["file"], spec[part]["sha256"]
            except (KeyError, TypeError) as exc:
                raise _manifest_error(
                    manifest_path,
                    f"chunk {spec.get('index')} is missing its {part} "
                    f"file or sha256 ({exc!r})",
                ) from exc
            file = _ChunkFile(path / name, sha256, dtype, (size, width), offset)
            try:
                on_disk = file.path.stat().st_size
            except OSError:
                raise ConfigurationError(
                    f"corpus chunk file missing: {file.path} (named by "
                    f"{manifest_path})"
                ) from None
            # Checked before anything is sized from the manifest: a
            # declared row count the file cannot hold never becomes an
            # allocation.
            if on_disk <= file.nbytes:
                raise _chunk_error(
                    file,
                    f"is truncated: {on_disk} bytes on disk, its declared "
                    f"{dtype}{file.shape} rows alone are {file.nbytes}",
                )
            files.append(file)
            offset += file.nbytes
    if layout.n_shots != declared:
        raise _manifest_error(
            manifest_path,
            f"chunks hold {layout.n_shots} shots, n_shots declares "
            f"{declared}",
        )
    return layout, files


def read_corpus_layout(path: str | Path) -> CorpusLayout:
    """Check a corpus directory's manifest and chunk files; read no chunk.

    The manifest must parse, its chip section must rebuild to the
    recorded SHA, and every chunk file must exist with more bytes than
    its declared rows. Any violation raises a
    :class:`~repro.exceptions.ConfigurationError` naming the manifest or
    the chunk file.
    """
    return _read_layout(Path(path))[0]


#: ``.npy`` header parsers by format version (``np.save`` writes 1.0,
#: and 2.0 only for a header over 64 KiB).
_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _read_chunk(file: _ChunkFile, out: np.ndarray, verify: bool) -> None:
    """Read one chunk file's rows into ``out`` (its bytes) in one pass.

    The ``.npy`` header is parsed and checked against the manifest
    (dtype, shape, C order), the file size against header plus rows,
    and the rows are read straight into ``out``. With ``verify`` the
    header bytes and that same buffer feed one SHA-256: the manifest's
    whole-file digest.
    """
    try:
        fh = open(file.path, "rb")
    except OSError as exc:
        raise _chunk_error(file, f"cannot be opened ({exc})") from exc
    with fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version not in _HEADER_READERS:
                raise ValueError(f"unsupported .npy version {version}")
            shape, fortran_order, dtype = _HEADER_READERS[version](fh)
        except (ValueError, SyntaxError, TokenError) as exc:
            raise _chunk_error(
                file, f"has no readable .npy header ({exc})"
            ) from exc
        if dtype != file.dtype or shape != file.shape or fortran_order:
            order = " in Fortran order" if fortran_order else ""
            raise _chunk_error(
                file,
                f"is {dtype}{shape}{order}, manifest declares "
                f"{file.dtype}{file.shape}",
            )
        header_len = fh.tell()
        data_len = os.fstat(fh.fileno()).st_size - header_len
        if data_len != file.nbytes:
            raise _chunk_error(
                file,
                f"holds {data_len} bytes after its header, "
                f"{file.dtype}{file.shape} is {file.nbytes} "
                f"({'truncated' if data_len < file.nbytes else 'trailing bytes'})",
            )
        if verify:
            fh.seek(0)
            digest = hashlib.sha256(fh.read(header_len))
        if fh.readinto(out) != file.nbytes:
            raise _chunk_error(file, "was truncated while it was read")
    if verify:
        digest.update(out)
        actual = digest.hexdigest()
        if actual != file.sha256:
            raise _chunk_error(
                file,
                f"fails its checksum: manifest records sha256 "
                f"{file.sha256[:12]}…, file hashes to {actual[:12]}…",
            )


def load_corpus(
    path: str | Path,
    *,
    verify: bool = True,
    into: SharedTraceBlock | None = None,
) -> RecordedCorpus | None:
    """Load and integrity-check a corpus directory, reading each file once.

    The layout is checked first (:func:`read_corpus_layout`), so nothing
    is allocated for rows that are not on disk. Then each chunk file is
    read in one pass: its ``.npy`` header is checked against the
    manifest (dtype, shape, C order, and header plus rows is the file
    size), its rows go straight to their destination, and with
    ``verify`` (disable for trusted benchmarking reloads) the header
    and those same bytes are checksummed against the manifest. Every
    violation, verified or not, raises a
    :class:`~repro.exceptions.ConfigurationError` naming the offending
    file; a corpus altered only in its data bytes fails its checksum.

    ``into`` delivers the chunks into a
    :class:`~repro.pipeline.shm.SharedTraceBlock` sized for this corpus
    instead (feedline rows, then level rows): each chunk is read into a
    reused chunk-sized staging buffer and written through the segment's
    file descriptor, no whole-corpus array is ever built, and ``None``
    is returned. The block must match the layout's shot count,
    geometry and dtypes, and the corpus must be labeled.
    """
    layout, files = _read_layout(Path(path))
    if into is not None:
        held = into.descriptor
        if not layout.labeled or (
            held.n_shots, held.trace_len, held.n_qubits,
            held.feedline_dtype, held.levels_dtype,
        ) != (
            layout.n_shots, layout.trace_len, layout.n_qubits,
            layout.feedline_dtype.str, layout.levels_dtype.str,
        ):
            raise ConfigurationError(
                f"corpus {layout.path} ({layout.n_shots} shots, labeled: "
                f"{layout.labeled}) does not fit shared segment {held}"
            )
        staging = np.empty(max(file.nbytes for file in files), np.uint8)
        for file in files:
            rows = staging[: file.nbytes]
            _read_chunk(file, rows, verify)
            into.write(file.offset, rows)
        return None
    data = np.empty(sum(file.nbytes for file in files), np.uint8)
    for file in files:
        _read_chunk(file, data[file.offset : file.offset + file.nbytes], verify)
    n_shots = layout.n_shots
    feedline_nbytes = n_shots * layout.trace_len * layout.feedline_dtype.itemsize
    feedline = (
        data[:feedline_nbytes]
        .view(layout.feedline_dtype)
        .reshape(n_shots, layout.trace_len)
    )
    prepared_levels = (
        data[feedline_nbytes:]
        .view(layout.levels_dtype)
        .reshape(n_shots, layout.n_qubits)
        if layout.labeled
        else None
    )
    return RecordedCorpus(
        path=layout.path,
        manifest=layout.manifest,
        chip=layout.chip,
        feedline=feedline,
        prepared_levels=prepared_levels,
        chunk_shots=layout.chunk_shots,
    )

