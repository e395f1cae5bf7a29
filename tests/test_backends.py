"""Tests for repro.backends: the instrument-backend contract, the
versioned record/replay corpus format, socket framing, and the serving
integration (replay sessions, recording tees, executor parity)."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from multiprocessing import resource_tracker
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backends import (
    BACKEND_NAMES,
    CORPUS_FORMAT,
    CORPUS_FORMAT_VERSION,
    DummyBackend,
    RecordingBackend,
    ReplayBackend,
    SimulatorBackend,
    SocketBackend,
    chip_sha,
    create_backend,
    load_corpus,
    read_corpus_layout,
    serve_corpus_over_socket,
)
from repro.backends.corpus import MANIFEST_NAME, CorpusWriter
from repro.backends.socketio import _send_frame
from repro.config import Profile
from repro.data import generate_corpus
from repro.data.basis import digits_to_state
from repro.data.dataset import ReadoutCorpus
from repro.exceptions import ConfigurationError, DataError, ShardCrashedError
from repro.physics.device import make_feedline_chip, multi_feedline_chips
from repro.physics.drift import DEMO_DRIFT
from repro.pipeline import (
    EXECUTOR_NAMES,
    CalibrationRegistry,
    CorpusTraceSource,
    MultiFeedlineRunner,
    PipelineConfig,
    fit_or_load_discriminator,
)
from repro.pipeline.shm import SharedMemoryTraceSource, SharedTraceBlock
from repro.serve import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    ReadoutService,
    ServeSpec,
    TrafficSpec,
    serve_once,
)
from tests.conftest import replay_once


def tiny_profile(**overrides) -> Profile:
    """A fast sizing profile for backend tests (not a named profile)."""
    params = dict(
        name="tiny",
        shots_per_state=10,
        calibration_shots=100,
        nn_epochs=8,
        fnn_epochs=2,
        batch_size=64,
        qec_shots=10,
        qudit_shots=10,
        spectral_max_points=100,
        seed=701,
    )
    params.update(overrides)
    return Profile(**params)


@pytest.fixture(scope="module")
def chip():
    return make_feedline_chip(0, n_qubits=2, trace_len=120)


@pytest.fixture(scope="module")
def recorded(chip, tmp_path_factory):
    """A 60-shot corpus recorded through the recording tee.

    Returns ``(path, chunks)`` where ``chunks`` is the live stream the
    recording session itself consumed — the ground truth every replay
    path must reproduce bit-for-bit.
    """
    path = tmp_path_factory.mktemp("corpora") / "recorded"
    inner = SimulatorBackend(chip, chunk_size=20)
    with RecordingBackend(inner, path) as backend:
        chunks = list(backend.acquire(60, seed=31))
    return path, chunks


def assert_chunks_equal(observed, expected):
    observed = list(observed)
    assert len(observed) == len(expected)
    for got, want in zip(observed, expected):
        assert got.chunk_id == want.chunk_id
        np.testing.assert_array_equal(got.feedline, want.feedline)
        if want.prepared_levels is None:
            assert got.prepared_levels is None
        else:
            np.testing.assert_array_equal(
                got.prepared_levels, want.prepared_levels
            )


class TestBackendContract:
    def test_dummy_same_seed_bit_identical(self, chip):
        with DummyBackend(chip, chunk_size=16) as backend:
            first = list(backend.acquire(40, seed=5))
            second = list(backend.acquire(40, seed=5))
        assert_chunks_equal(second, first)
        assert [c.n_shots for c in first] == [16, 16, 8]

    def test_dummy_seeds_select_distinct_streams(self, chip):
        with DummyBackend(chip, chunk_size=40) as backend:
            a = next(iter(backend.acquire(40, seed=5)))
            b = next(iter(backend.acquire(40, seed=6)))
        assert not np.array_equal(a.feedline, b.feedline)

    def test_dummy_unlabeled_traffic(self, chip):
        backend = DummyBackend(chip, chunk_size=20, labeled=False)
        chunk = next(iter(backend.acquire(20, seed=1)))
        assert chunk.prepared_levels is None
        assert chunk.feedline.dtype == np.complex64
        assert chunk.feedline.shape == (20, chip.trace_len)

    @pytest.mark.parametrize(
        "kwargs",
        [{"chunk_size": 0}, {"amplitude": 0.0}, {"amplitude": -1.0}],
    )
    def test_dummy_rejects_bad_parameters(self, chip, kwargs):
        with pytest.raises(ConfigurationError):
            DummyBackend(chip, **kwargs)

    def test_describe_reports_geometry(self, chip):
        info = DummyBackend(chip).describe()
        assert info["backend"] == "dummy"
        assert info["n_qubits"] == chip.n_qubits
        assert info["n_levels"] == chip.n_levels
        assert info["trace_len"] == chip.trace_len
        assert json.dumps(info)  # capability dicts must stay JSON-able

    @pytest.mark.parametrize("name", ["simulator", "dummy"])
    def test_acquire_rejects_non_positive_shots(self, chip, name):
        backend = create_backend(name, chip)
        with pytest.raises(ConfigurationError, match="shots"):
            next(iter(backend.acquire(0)))

    def test_trace_source_adapts_one_acquisition(self, chip):
        backend = SimulatorBackend(chip, chunk_size=20)
        source = backend.trace_source(40, seed=9)
        assert source.chip is chip
        chunks = list(source.chunks())
        assert [c.n_shots for c in chunks] == [20, 20]
        assert backend.session_shots == 40
        assert_chunks_equal(
            chunks, list(SimulatorBackend(chip, 20).acquire(40, seed=9))
        )

    def test_simulator_session_clock_advances_per_chunk(self, chip):
        backend = SimulatorBackend(chip, chunk_size=20)
        assert backend.session_shots == 0
        list(backend.acquire(40, seed=1))
        assert backend.session_shots == 40
        list(backend.acquire(20, seed=1))
        assert backend.session_shots == 60


def _levels_text(chunks) -> str:
    """Every shot's prepared levels as one digit string, qubit 0 first."""
    levels = np.concatenate([c.prepared_levels for c in chunks])
    return "".join(str(int(level)) for level in levels.reshape(-1))


def _assert_pinned(chunks, sizes, levels, samples):
    """A stream's chunking and levels exactly, its feedline at points.

    Levels come from RNG draws alone, so they match exactly on every
    CPU; the feedline goes through float math that may differ in the
    last bit, hence ``rtol``.
    """
    assert [c.n_shots for c in chunks] == sizes
    assert [c.chunk_id for c in chunks] == list(range(len(sizes)))
    assert _levels_text(chunks) == levels
    feedline = np.concatenate([c.feedline for c in chunks])
    assert feedline.dtype == np.complex64
    for (shot, sample), value in samples.items():
        np.testing.assert_allclose(feedline[shot, sample], value, rtol=1e-5)


class TestSimulatorStreamPin:
    """``SimulatorBackend``'s stream, pinned shot for shot.

    Recorded traffic, registries and every served count depend on these
    draws, so any change to the draw order, the chunking or the drift
    clock must show here.
    """

    @pytest.fixture(scope="class")
    def chip(self):
        return make_feedline_chip(0, n_qubits=2)

    def test_stationary_stream(self, chip):
        backend = SimulatorBackend(chip, chunk_size=24)
        _assert_pinned(
            list(backend.acquire(50, seed=7)),
            [24, 24, 2],
            "2122122000022012020120102021111112222112102021001122102222"
            "121102200022102020002011200200100011102101",
            {
                (0, 0): 2.40234375 + 3.9453125j,
                (11, 137): 0.09765625 + 5.78125j,
                (23, 499): 4.921875 + 3.96484375j,
                (24, 1): 3.6328125 - 1.484375j,
                (37, 250): -1.484375 - 1.2109375j,
                (49, 498): 3.41796875 - 2.1875j,
            },
        )

    def test_drifting_stream_continues_its_clock(self, chip):
        backend = SimulatorBackend(
            chip, chunk_size=24, drift=DEMO_DRIFT, shot_offset=3000
        )
        _assert_pinned(
            list(backend.acquire(60, seed=7)),
            [24, 24, 12],
            "2122122000022012020120102021111112222112102021001122102222"
            "1211022000221020200020112002001000111020212022020021120020"
            "0120",
            {
                (0, 100): -1.328125 + 2.36328125j,
                (23, 311): -4.51171875 - 1.62109375j,
                (30, 77): 1.89453125 + 2.67578125j,
                (59, 499): -1.26953125 - 1.5625j,
            },
        )
        assert backend.session_shots == 3060
        _assert_pinned(
            list(backend.acquire(40, seed=8)),
            [24, 16],
            "2002001212011111001120200010222100111111021021202020111122"
            "2111121021010201111122",
            {
                (0, 100): -1.93359375 - 3.37890625j,
                (17, 401): -1.85546875 - 3.30078125j,
                (24, 2): 2.2265625 + 0.01953125j,
                (39, 499): -1.8359375 + 2.109375j,
            },
        )
        assert backend.session_shots == 3100


class TestCorpusRecordReplay:
    def test_recording_writes_versioned_manifest(self, recorded, chip):
        path, chunks = recorded
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["format"] == CORPUS_FORMAT
        assert manifest["format_version"] == CORPUS_FORMAT_VERSION
        assert manifest["chip_sha"] == chip_sha(chip)
        assert manifest["seed"] == 31
        assert manifest["n_shots"] == 60
        assert manifest["labeled"] is True
        assert manifest["source"]["backend"] == "simulator"
        assert [entry["n_shots"] for entry in manifest["chunks"]] == [
            20,
            20,
            20,
        ]
        for entry in manifest["chunks"]:
            for part in ("feedline", "levels"):
                assert (path / entry[part]["file"]).is_file()
                assert len(entry[part]["sha256"]) == 64

    def test_recorded_digests_hash_the_bytes_written(self, recorded):
        """Recording hashes each chunk as it writes it and never reads it
        back: every manifest digest is the sha256 of its whole file, and
        every file holds exactly the bytes ``np.save`` writes for the
        recorded arrays (what the writer did before it hashed inline)."""
        path, chunks = recorded
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert len(manifest["chunks"]) == len(chunks)
        for entry, chunk in zip(manifest["chunks"], chunks):
            arrays = {
                "feedline": np.ascontiguousarray(
                    chunk.feedline, dtype=np.complex64
                ),
                "levels": np.ascontiguousarray(
                    chunk.prepared_levels, dtype=np.int8
                ),
            }
            for part, array in arrays.items():
                data = (path / entry[part]["file"]).read_bytes()
                assert hashlib.sha256(data).hexdigest() == entry[part]["sha256"]
                expected = io.BytesIO()
                np.save(expected, array)
                assert data == expected.getvalue()

    def test_loaded_corpus_replays_recorded_stream(self, recorded, chip):
        path, chunks = recorded
        corpus = load_corpus(path)
        assert corpus.n_shots == 60
        assert corpus.labeled is True
        assert corpus.seed == 31
        assert corpus.chip_sha == chip_sha(chip)
        assert_chunks_equal(corpus.chunks(), chunks)

    def test_replay_backend_is_bit_deterministic(self, recorded, chip):
        path, chunks = recorded
        with ReplayBackend(path, chip=chip) as backend:
            # acquire() args are ignored: the stream is the recording.
            assert_chunks_equal(backend.acquire(7, seed=999), chunks)

    def test_replay_backend_adopts_recorded_chip(self, recorded, chip):
        path, _ = recorded
        with ReplayBackend(path) as backend:
            assert backend.chip is not None
            assert chip_sha(backend.chip) == chip_sha(chip)

    def test_replay_refuses_foreign_chip(self, recorded):
        path, _ = recorded
        other = make_feedline_chip(3, n_qubits=2, trace_len=120)
        with pytest.raises(ConfigurationError, match="chip"):
            ReplayBackend(path, chip=other).open()

    def test_recording_backend_requires_open(self, chip, tmp_path):
        backend = RecordingBackend(
            SimulatorBackend(chip, chunk_size=20), tmp_path / "c"
        )
        with pytest.raises(ConfigurationError, match="open"):
            list(backend.acquire(20))

    def test_writer_refuses_non_empty_directory(self, chip, tmp_path):
        target = tmp_path / "busy"
        target.mkdir()
        (target / "stale.npy").write_bytes(b"x")
        with pytest.raises(ConfigurationError, match="busy"):
            CorpusWriter(target, chip)

    def test_writer_enforces_uniform_labeling(self, chip, tmp_path):
        writer = CorpusWriter(tmp_path / "mixed", chip)
        labeled = next(
            iter(DummyBackend(chip, chunk_size=10).acquire(10, seed=1))
        )
        unlabeled = next(
            iter(
                DummyBackend(
                    chip, chunk_size=10, labeled=False
                ).acquire(10, seed=1)
            )
        )
        writer.append(labeled)
        with pytest.raises(ConfigurationError, match="uniform"):
            writer.append(unlabeled)


def copy_corpus(recorded, tmp_path) -> Path:
    src, _ = recorded
    dst = tmp_path / "tampered"
    shutil.copytree(src, dst)
    return dst


class TestCorpusIntegrity:
    def test_missing_manifest_names_the_file(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ConfigurationError, match=MANIFEST_NAME):
            load_corpus(empty)

    def test_garbled_manifest_names_the_file(self, recorded, tmp_path):
        path = copy_corpus(recorded, tmp_path)
        (path / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match=MANIFEST_NAME):
            load_corpus(path)

    def test_truncated_manifest_names_the_file(self, recorded, tmp_path):
        path = copy_corpus(recorded, tmp_path)
        manifest_file = path / MANIFEST_NAME
        manifest_file.write_text(manifest_file.read_text()[:40])
        with pytest.raises(ConfigurationError, match=MANIFEST_NAME):
            load_corpus(path)

    def test_wrong_format_version_rejected(self, recorded, tmp_path):
        path = copy_corpus(recorded, tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["format_version"] = CORPUS_FORMAT_VERSION + 1
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="format_version"):
            load_corpus(path)

    def test_chunk_checksum_mismatch_names_the_chunk(
        self, recorded, tmp_path
    ):
        path = copy_corpus(recorded, tmp_path)
        victim = "chunk-00001.feedline.npy"
        garbage = np.load(path / victim)
        np.save(path / victim, garbage + np.complex64(1 + 1j))
        with pytest.raises(ConfigurationError) as excinfo:
            load_corpus(path)
        assert victim in str(excinfo.value)
        assert "checksum" in str(excinfo.value)

    def test_missing_chunk_file_names_the_file(self, recorded, tmp_path):
        path = copy_corpus(recorded, tmp_path)
        victim = "chunk-00002.levels.npy"
        (path / victim).unlink()
        with pytest.raises(ConfigurationError, match=victim):
            load_corpus(path)

    def test_chip_sha_mismatch_names_the_manifest(self, recorded, tmp_path):
        path = copy_corpus(recorded, tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["chip_sha"] = "0" * 40
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError) as excinfo:
            load_corpus(path)
        assert MANIFEST_NAME in str(excinfo.value)
        assert "chip" in str(excinfo.value)

    def test_verify_false_skips_hashing_not_structure(
        self, recorded, tmp_path
    ):
        path = copy_corpus(recorded, tmp_path)
        victim = "chunk-00000.feedline.npy"
        tampered = np.load(path / victim)
        np.save(path / victim, tampered * np.complex64(2.0))
        corpus = load_corpus(path, verify=False)
        assert corpus.n_shots == 60


def _malform(path: Path, fault: str) -> None:
    """Damage one ``.npy`` chunk file the way ``fault`` names."""
    array = np.load(path)
    raw = path.read_bytes()
    if fault == "truncated":
        path.write_bytes(raw[:-8])
    elif fault == "trailing-bytes":
        path.write_bytes(raw + bytes(16))
    elif fault == "garbled-header":
        # Unbalanced brackets where the header dict was: numpy's parser
        # gives up with a tokenizer error, not a ValueError.
        path.write_bytes(raw[:10] + b"(" * 40 + raw[50:])
    elif fault == "header-dtype":
        np.save(path, array.astype(np.complex128))
    elif fault == "header-shape":
        np.save(path, array[:-1])
    elif fault == "fortran-order":
        np.save(path, np.asfortranarray(array))
    else:
        raise AssertionError(fault)


class TestMalformedChunks:
    """Every malformed chunk is a typed error naming it, verified or not."""

    VICTIM = "chunk-00001.feedline.npy"

    @pytest.mark.parametrize("verify", [True, False], ids=["verify", "trusted"])
    @pytest.mark.parametrize(
        "fault",
        [
            "truncated",
            "trailing-bytes",
            "garbled-header",
            "header-dtype",
            "header-shape",
            "fortran-order",
        ],
    )
    def test_raises_configuration_error_naming_the_chunk(
        self, recorded, tmp_path, fault, verify
    ):
        path = copy_corpus(recorded, tmp_path)
        _malform(path / self.VICTIM, fault)
        with pytest.raises(ConfigurationError) as excinfo:
            load_corpus(path, verify=verify)
        assert str(path / self.VICTIM) in str(excinfo.value)

    @pytest.mark.parametrize("verify", [True, False], ids=["verify", "trusted"])
    def test_inflated_row_count_fails_before_any_allocation(
        self, recorded, tmp_path, verify
    ):
        path = copy_corpus(recorded, tmp_path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        victim = manifest["chunks"][1]
        manifest["n_shots"] += 2**40 - victim["n_shots"]
        victim["n_shots"] = 2**40
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError) as excinfo:
            load_corpus(path, verify=verify)
        assert str(path / self.VICTIM) in str(excinfo.value)
        with pytest.raises(ConfigurationError, match=self.VICTIM):
            read_corpus_layout(path)

    def test_every_replayed_chunk_equals_np_load_of_its_file(
        self, recorded
    ):
        path, _ = recorded
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        for verify in (True, False):
            chunks = list(load_corpus(path, verify=verify).chunks())
            assert len(chunks) == len(manifest["chunks"])
            for chunk, entry in zip(chunks, manifest["chunks"]):
                for array, part in (
                    (chunk.feedline, "feedline"),
                    (chunk.prepared_levels, "levels"),
                ):
                    expected = np.load(path / entry[part]["file"])
                    assert array.dtype == expected.dtype
                    assert np.array_equal(array, expected)

    def test_layout_reads_the_manifest_not_the_chunks(self, recorded):
        path, _ = recorded
        layout = read_corpus_layout(path)
        corpus = load_corpus(path)
        assert layout.summary() == corpus.summary()
        assert (layout.n_shots, layout.trace_len, layout.n_qubits) == (
            corpus.feedline.shape + corpus.prepared_levels.shape[1:]
        )
        assert layout.chunk_shots == corpus.chunk_shots


class TestReadOnlyViews:
    """Satellite: every replayed chunk is a read-only view."""

    def test_recorded_corpus_chunks_are_read_only(self, recorded):
        path, _ = recorded
        for chunk in load_corpus(path).chunks():
            assert not chunk.feedline.flags.writeable
            with pytest.raises(ValueError):
                chunk.feedline[0, 0] = 0
            with pytest.raises(ValueError):
                chunk.prepared_levels[0, 0] = 0

    def test_corpus_trace_source_unshuffled_views_are_read_only(self, chip):
        corpus = generate_corpus(chip, shots_per_state=4, seed=11)
        source = CorpusTraceSource(corpus, chunk_size=8)
        for chunk in source.chunks():
            assert not chunk.feedline.flags.writeable
            with pytest.raises(ValueError):
                chunk.feedline[0, 0] = 0
            with pytest.raises(ValueError):
                chunk.prepared_levels[0, 0] = 0
        # The corpus itself must stay untouched and writable for owners.
        assert corpus.feedline.flags.writeable


def _frame_peer(sock, chip, declared, sizes, short_bytes=0):
    """Frame a labeled stream by hand: a hello declaring ``declared``
    shots, one zero chunk per size (each ``short_bytes`` short of its
    shape) and an end frame counting the chunks sent."""
    _send_frame(
        sock,
        {
            "type": "hello",
            "format_version": CORPUS_FORMAT_VERSION,
            "chip": chip.to_dict(),
            "chip_sha": chip_sha(chip),
            "n_shots": declared,
            "labeled": True,
            "trace_len": chip.trace_len,
            "n_qubits": chip.n_qubits,
            "feedline_dtype": np.dtype(np.complex64).str,
            "levels_dtype": np.dtype(np.int8).str,
        },
    )
    for chunk_id, n in enumerate(sizes):
        feedline = np.zeros((n, chip.trace_len), np.complex64).tobytes()
        feedline = feedline[short_bytes:]
        levels = np.zeros((n, chip.n_qubits), np.int8).tobytes()
        _send_frame(
            sock,
            {
                "type": "chunk",
                "chunk_id": chunk_id,
                "n_shots": n,
                "feedline_nbytes": len(feedline),
                "levels_nbytes": len(levels),
            },
            feedline,
            levels,
        )
    _send_frame(sock, {"type": "end", "n_chunks": len(sizes)})


class TestSocketBackend:
    @pytest.mark.parametrize(
        "declared,sizes,short_bytes,match",
        [
            (100, [10, 10], 0, "after 20 shots in 2 chunks; the peer "
             "declared 100 shots in 2 chunks"),
            (15, [10, 10], 0, "chunk 1 brings the stream to 20 shots; the "
             "hello declared 15"),
            (10, [10], 8, r"chunk 0 of 10 shots carries \(9592, 20\) "
             r"feedline and level bytes; its shape needs \(9600, 20\)"),
        ],
        ids=["short", "long", "mis-sized"],
    )
    def test_stream_disagreeing_with_its_hello_raises(
        self, chip, declared, sizes, short_bytes, match
    ):
        server, client = socket.socketpair()
        try:
            _frame_peer(server, chip, declared, sizes, short_bytes)
            with SocketBackend(sock=client, chip=chip) as backend:
                with pytest.raises(DataError, match=match):
                    list(backend.acquire(1))
        finally:
            server.close()
            client.close()

    def test_socketpair_round_trip(self, recorded, chip):
        path, chunks = recorded
        server, client = socket.socketpair()
        try:
            sent = {}
            feeder = threading.Thread(
                target=lambda: sent.setdefault(
                    "n", serve_corpus_over_socket(path, server)
                )
            )
            feeder.start()
            with SocketBackend(sock=client, chip=chip) as backend:
                assert_chunks_equal(backend.acquire(1), chunks)
            feeder.join(timeout=10)
            assert sent["n"] == len(chunks)
        finally:
            server.close()
            client.close()

    def test_socket_chunks_are_read_only(self, recorded):
        path, _ = recorded
        server, client = socket.socketpair()
        try:
            feeder = threading.Thread(
                target=serve_corpus_over_socket, args=(path, server)
            )
            feeder.start()
            with SocketBackend(sock=client) as backend:
                chunk = next(iter(backend.acquire(1)))
                assert not chunk.feedline.flags.writeable
            feeder.join(timeout=10)
        finally:
            server.close()
            client.close()

    def test_socket_stream_is_single_use(self, recorded):
        path, _ = recorded
        server, client = socket.socketpair()
        try:
            feeder = threading.Thread(
                target=serve_corpus_over_socket, args=(path, server)
            )
            feeder.start()
            with SocketBackend(sock=client) as backend:
                list(backend.acquire(1))
                with pytest.raises(DataError, match="consumed"):
                    list(backend.acquire(1))
            feeder.join(timeout=10)
        finally:
            server.close()
            client.close()

    def test_socket_refuses_foreign_chip(self, recorded):
        path, _ = recorded
        other = make_feedline_chip(3, n_qubits=2, trace_len=120)
        server, client = socket.socketpair()
        try:
            feeder = threading.Thread(
                target=serve_corpus_over_socket, args=(path, server)
            )
            feeder.start()
            with pytest.raises(ConfigurationError, match="chip"):
                SocketBackend(sock=client, chip=other).open()
            feeder.join(timeout=10)
        finally:
            server.close()
            client.close()

    def test_requires_exactly_one_endpoint(self):
        with pytest.raises(ConfigurationError):
            SocketBackend()
        with pytest.raises(ConfigurationError):
            SocketBackend("/tmp/x", sock=socket.socket(socket.AF_UNIX))

    def test_unix_path_connect_failure_is_configuration_error(
        self, tmp_path
    ):
        with pytest.raises(ConfigurationError, match="connect"):
            SocketBackend(tmp_path / "nobody-listens.sock").open()


class TestBackendRegistry:
    @pytest.mark.parametrize(
        "name,kwargs,match",
        [
            ("warp", {}, "backend must be one of"),
            ("replay", {}, "corpus_path"),
            ("simulator", {"corpus_path": "x"}, "corpus_path"),
            ("socket", {}, "socket_path"),
            ("dummy", {"socket_path": "x"}, "socket_path"),
            (
                "replay",
                {"corpus_path": "x", "record_path": "y"},
                "record_path",
            ),
        ],
    )
    def test_cross_field_validation(self, chip, name, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            create_backend(name, chip, **kwargs)

    def test_drift_requires_the_simulator(self, chip):
        from repro.serve import DriftSpec

        drift = DriftSpec(t1_decay_per_kshot=0.1).model()
        with pytest.raises(ConfigurationError, match="drift"):
            create_backend("dummy", chip, drift=drift)

    def test_every_registered_name_constructs(self, chip, recorded, tmp_path):
        path, _ = recorded
        built = {
            "simulator": create_backend("simulator", chip),
            "dummy": create_backend("dummy", chip),
            "replay": create_backend("replay", chip, corpus_path=str(path)),
            "socket": create_backend(
                "socket", chip, socket_path=str(tmp_path / "s.sock")
            ),
        }
        assert set(built) == set(BACKEND_NAMES)
        for name, backend in built.items():
            assert backend.name == name

    def test_record_path_wraps_any_generator(self, chip, tmp_path):
        backend = create_backend(
            "dummy", chip, record_path=str(tmp_path / "rec")
        )
        assert isinstance(backend, RecordingBackend)
        assert isinstance(backend.inner, DummyBackend)


class TestExecutorReplayParity:
    """Satellite: recorded counts survive every executor unchanged."""

    @pytest.fixture(scope="class")
    def feedline_chips(self):
        return multi_feedline_chips(2, n_qubits=2, trace_len=120)

    @pytest.fixture(scope="class")
    def broadcast_corpus(self, feedline_chips, tmp_path_factory):
        # Recorded on the feedline-0 chip; geometry-compatible with
        # every feedline, so one block broadcasts it to all of them.
        path = tmp_path_factory.mktemp("parity") / "corpus"
        inner = SimulatorBackend(feedline_chips[0], chunk_size=20)
        with RecordingBackend(inner, path) as backend:
            list(backend.acquire(60, seed=47))
        return load_corpus(path)

    @pytest.fixture(scope="class")
    def warm_registry(self, feedline_chips, tmp_path_factory):
        registry_dir = tmp_path_factory.mktemp("parity-registry")
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="serial",
            registry_dir=registry_dir,
        ) as runner:
            runner.prefit()
        return registry_dir

    def test_replayed_counts_identical_across_executors(
        self, feedline_chips, broadcast_corpus, warm_registry
    ):
        reference = None
        for executor in EXECUTOR_NAMES:
            with MultiFeedlineRunner(
                feedline_chips,
                tiny_profile(),
                executor=executor,
                workers=2,
                config=PipelineConfig(batch_size=32),
                registry_dir=warm_registry,
            ) as runner:
                report = replay_once(runner, broadcast_corpus)
            assert report.n_shots == 2 * broadcast_corpus.n_shots
            counts = {
                name: fl.assignment_counts
                for name, fl in report.feedline_reports.items()
            }
            if reference is None:
                reference = counts
            else:
                assert counts == reference, executor


class TestServiceIntegration:
    """Record and replay through the full serving stack."""

    @pytest.fixture(scope="class")
    def service_recording(self, tmp_path_factory):
        """serve_once with a recording tee: (corpus_path, feedline-0's
        report, registry)."""
        root = tmp_path_factory.mktemp("service-recording")
        corpus_path = root / "corpus"
        spec = ServeSpec(
            traffic=TrafficSpec(
                shots=40, chunk_size=20, record_path=str(corpus_path)
            ),
            cluster=ClusterSpec(qubits_per_feedline=2),
            batching=BatchingSpec(batch_size=20),
            calibration=CalibrationSpec(
                registry_dir=str(root / "registry")
            ),
        )
        report = serve_once(spec, profile=tiny_profile())
        feedline = report.feedline_reports["feedline-0"]
        return corpus_path, feedline, root / "registry"

    def test_recording_session_persists_a_loadable_corpus(
        self, service_recording
    ):
        corpus_path, report, _ = service_recording
        corpus = load_corpus(corpus_path)
        assert corpus.n_shots == report.n_shots == 40
        assert corpus.labeled

    def test_replay_session_reproduces_recorded_counts(
        self, service_recording
    ):
        corpus_path, recorded_report, registry = service_recording
        spec = ServeSpec(
            traffic=TrafficSpec(
                shots=40,
                chunk_size=20,
                backend="replay",
                corpus_path=str(corpus_path),
            ),
            cluster=ClusterSpec(qubits_per_feedline=2),
            batching=BatchingSpec(batch_size=20),
            calibration=CalibrationSpec(registry_dir=str(registry)),
        )
        replayed = serve_once(spec, profile=tiny_profile())
        replayed = replayed.feedline_reports["feedline-0"]
        assert replayed.assignment_counts == recorded_report.assignment_counts
        assert replayed.accuracy == recorded_report.accuracy

    def test_replay_session_never_refits(self, service_recording):
        corpus_path, _, registry = service_recording
        spec = ServeSpec(
            traffic=TrafficSpec(
                shots=40,
                chunk_size=20,
                backend="replay",
                corpus_path=str(corpus_path),
            ),
            cluster=ClusterSpec(qubits_per_feedline=2),
            batching=BatchingSpec(batch_size=20),
            calibration=CalibrationSpec(registry_dir=str(registry)),
        )
        with ReadoutService(spec, profile=tiny_profile()) as service:
            first = service.run().feedline_reports["feedline-0"]
            second = service.run().feedline_reports["feedline-0"]
            assert service.stats.cold_fits == 0
            assert service.backend is not None
            assert service.backend.name == "replay"
        assert first.assignment_counts == second.assignment_counts
        assert second.calibration_cached is True

    def test_socket_session_matches_recorded_counts(
        self, service_recording, tmp_path
    ):
        corpus_path, recorded_report, registry = service_recording
        sock_path = tmp_path / "traces.sock"
        feeder = threading.Thread(
            target=serve_corpus_over_socket,
            args=(corpus_path, sock_path),
        )
        feeder.start()
        try:
            deadline = 50
            while not sock_path.exists() and deadline:
                threading.Event().wait(0.1)
                deadline -= 1
            spec = ServeSpec(
                traffic=TrafficSpec(
                    shots=40,
                    chunk_size=20,
                    backend="socket",
                    socket_path=str(sock_path),
                ),
                cluster=ClusterSpec(qubits_per_feedline=2),
                batching=BatchingSpec(batch_size=20),
                calibration=CalibrationSpec(registry_dir=str(registry)),
            )
            report = serve_once(spec, profile=tiny_profile())
        finally:
            feeder.join(timeout=10)
        assert report.n_shots == 40
        assert (
            report.feedline_reports["feedline-0"].assignment_counts
            == recorded_report.assignment_counts
        )

    def test_dummy_backend_serves_chance_level_traffic(self, tmp_path):
        spec = ServeSpec(
            traffic=TrafficSpec(shots=40, chunk_size=20, backend="dummy"),
            cluster=ClusterSpec(qubits_per_feedline=2),
            batching=BatchingSpec(batch_size=20),
            calibration=CalibrationSpec(
                registry_dir=str(tmp_path / "registry")
            ),
        )
        report = serve_once(spec, profile=tiny_profile())
        assert report.n_shots == 40
        assert report.accuracy is not None


SHM_DIR = Path("/dev/shm")


def shm_names() -> set[str]:
    """Names of the live POSIX segments ``multiprocessing`` created."""
    return {path.name for path in SHM_DIR.glob("psm_*")}


def mappings(pid: int, segment: str) -> int:
    """How many mappings of shared-memory ``segment`` process ``pid`` holds.

    An unlinked segment still mapped reads ``... (deleted)``; it counts.
    """
    with open(f"/proc/{pid}/maps") as maps:
        return sum(f"/dev/shm/{segment}" in line for line in maps)


def counts_by_feedline(report) -> dict[str, list[int]]:
    return {
        name: feedline.assignment_counts
        for name, feedline in report.feedline_reports.items()
    }


def oracle_counts(model, corpus, chip) -> list[int]:
    """Offline ``predict`` counts of a recorded corpus served on ``chip``.

    A sibling feedline demodulates the broadcast traces with its own
    tones, so its oracle wraps the same arrays with its own chip.
    """
    levels = corpus.prepared_levels
    wrapped = ReadoutCorpus(
        feedline=corpus.feedline,
        labels=digits_to_state(levels.astype(np.int64), chip.n_levels),
        prepared_levels=levels,
        initial_levels=levels,
        final_levels=levels,
        chip=chip,
    )
    return np.bincount(
        model.predict(wrapped), minlength=chip.n_levels**chip.n_qubits
    ).tolist()


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="no /dev/shm to count")
class TestCorpusIntoSegment:
    """``load_corpus(path, into=block)`` writes a segment, no array."""

    @staticmethod
    def publish(path) -> SharedTraceBlock:
        layout = read_corpus_layout(path)
        return SharedTraceBlock.from_writer(
            lambda block: load_corpus(path, into=block),
            n_shots=layout.n_shots,
            trace_len=layout.trace_len,
            n_qubits=layout.n_qubits,
            feedline_dtype=layout.feedline_dtype,
            levels_dtype=layout.levels_dtype,
        )

    def test_segment_holds_every_chunk_file(self, recorded, chip):
        path, _ = recorded
        block = self.publish(path)
        try:
            source = SharedMemoryTraceSource(block.descriptor, chip)
            try:
                manifest = json.loads((path / MANIFEST_NAME).read_text())
                start = 0
                for entry in manifest["chunks"]:
                    stop = start + entry["n_shots"]
                    for array, part in (
                        (source.feedline, "feedline"),
                        (source.prepared_levels, "levels"),
                    ):
                        assert np.array_equal(
                            array[start:stop],
                            np.load(path / entry[part]["file"]),
                        )
                    start = stop
                assert start == source.descriptor.n_shots
            finally:
                source.close()
        finally:
            block.unlink()

    def test_failed_fill_unlinks_the_segment(self, recorded, tmp_path):
        path = copy_corpus(recorded, tmp_path)
        _malform(path / TestMalformedChunks.VICTIM, "trailing-bytes")
        before = shm_names()
        with pytest.raises(ConfigurationError, match="trailing bytes"):
            self.publish(path)
        assert shm_names() - before == set()

    def test_segment_of_another_size_is_refused(self, recorded):
        path, _ = recorded
        corpus = load_corpus(path)
        block = SharedTraceBlock(
            corpus.feedline[:-1], corpus.prepared_levels[:-1]
        )
        try:
            with pytest.raises(ConfigurationError, match="does not fit"):
                load_corpus(path, into=block)
        finally:
            block.unlink()


@pytest.fixture()
def publications(monkeypatch):
    """Labels of every ``SharedTraceBlock`` published during the test.

    Counted where both ways in create a segment: a block published from
    arrays and one written straight from a corpus's chunk files count
    alike.
    """
    labels = []
    create = SharedTraceBlock._create

    def counting_create(self, fill, *, label, **geometry):
        labels.append(label)
        create(self, fill, label=label, **geometry)

    monkeypatch.setattr(SharedTraceBlock, "_create", counting_create)
    return labels


@pytest.fixture()
def fresh_resource_tracker(monkeypatch):
    """This process's resource tracker, as if it had never started.

    Earlier shared-memory tests leave the tracker running, and a pool
    forked after that inherits it whatever the executor does. The test
    gets a tracker of its own, stopped afterwards; the suite's is put
    back untouched.
    """
    tracker = resource_tracker._resource_tracker
    monkeypatch.setattr(tracker, "_fd", None)
    monkeypatch.setattr(tracker, "_pid", None)
    yield
    tracker._stop()


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="no /dev/shm to count")
class TestWarmReplaySession:
    """A multi-feedline replay session publishes once per warm cycle."""

    BROADCAST = "feedline-0+feedline-1"

    @pytest.fixture(scope="class")
    def feedline_chips(self):
        return multi_feedline_chips(2, n_qubits=2)

    @pytest.fixture(scope="class")
    def corpus_path(self, feedline_chips, tmp_path_factory):
        # Recorded on feedline 0's chip, which is also the chip a
        # one-feedline two-qubit session serves.
        path = tmp_path_factory.mktemp("warm-replay") / "corpus"
        inner = SimulatorBackend(feedline_chips[0], chunk_size=20)
        with RecordingBackend(inner, path) as backend:
            list(backend.acquire(60, seed=53))
        return path

    @pytest.fixture(scope="class")
    def registry_dir(self, feedline_chips, tmp_path_factory):
        registry_dir = tmp_path_factory.mktemp("warm-replay-registry")
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="serial",
            registry_dir=registry_dir,
        ) as runner:
            runner.prefit()
        return registry_dir

    @staticmethod
    def spec(corpus_path, registry_dir, executor="process", feedlines=2):
        return ServeSpec(
            # The request is ignored: replay serves the whole corpus.
            traffic=TrafficSpec(
                shots=7,
                chunk_size=20,
                backend="replay",
                corpus_path=str(corpus_path),
            ),
            cluster=ClusterSpec(
                feedlines=feedlines,
                executor=executor,
                workers=feedlines,
                qubits_per_feedline=2,
            ),
            batching=BatchingSpec(batch_size=32),
            calibration=CalibrationSpec(registry_dir=str(registry_dir)),
        )

    def test_warm_publishes_one_segment_runs_none_close_none(
        self, corpus_path, registry_dir, publications
    ):
        before = shm_names()
        service = ReadoutService(
            self.spec(corpus_path, registry_dir), profile=tiny_profile()
        )
        try:
            service.warm()
            live = shm_names() - before
            assert len(live) == 1
            assert publications == [self.BROADCAST]
            for _ in range(3):
                service.run()
                assert shm_names() - before == live
            assert publications == [self.BROADCAST], "a run published"
        finally:
            service.close()
        assert shm_names() - before == set()

    @pytest.mark.parametrize(
        "fault,match",
        [
            ("qubits", "3 recorded qubits vs 2"),
            ("labels", "carries no prepared-level labels"),
        ],
        ids=["qubits", "labels"],
    )
    def test_unfit_corpus_fails_warm_and_leaves_nothing(
        self, fault, match, feedline_chips, registry_dir, tmp_path
    ):
        # The manifest is checked against every feedline before a
        # segment exists: the one publish path refuses what no feedline
        # can serve.
        if fault == "qubits":
            (chip,) = multi_feedline_chips(1, n_qubits=3)
            inner = SimulatorBackend(chip, chunk_size=20)
        else:
            inner = DummyBackend(feedline_chips[0], 20, labeled=False)
        path = tmp_path / "corpus"
        with RecordingBackend(inner, path) as backend:
            list(backend.acquire(20, seed=1))
        before = shm_names()
        service = ReadoutService(
            self.spec(path, registry_dir, "serial"), profile=tiny_profile()
        )
        with pytest.raises(ConfigurationError, match=match):
            service.warm()
        assert shm_names() - before == set()

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_checksum_flipped_chunk_fails_warm_and_leaves_nothing(
        self, corpus_path, registry_dir, executor, tmp_path, monkeypatch
    ):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_path, corpus)
        victim = corpus / "chunk-00001.feedline.npy"
        pristine = victim.read_bytes()
        victim.write_bytes(pristine[:-1] + bytes([pristine[-1] ^ 0xFF]))
        before = shm_names()
        children = set(multiprocessing.active_children())
        at_load = {}
        load = repro.backends.load_corpus

        def spying_load(*args, **kwargs):
            at_load["segments"] = shm_names() - before
            at_load["shards"] = set(multiprocessing.active_children()) - children
            return load(*args, **kwargs)

        monkeypatch.setattr(repro.backends, "load_corpus", spying_load)
        service = ReadoutService(
            self.spec(corpus, registry_dir, executor), profile=tiny_profile()
        )
        try:
            with pytest.raises(ConfigurationError, match="checksum") as excinfo:
                service.warm()
            assert str(victim) in str(excinfo.value)
            # The fault struck with the segment created and the shards
            # forked...
            assert len(at_load["segments"]) == 1
            assert len(at_load["shards"]) == (executor == "process") * 2
            # ...and the failed warm-up left neither behind.
            assert shm_names() - before == set()
            assert not any(shard.is_alive() for shard in at_load["shards"])
            assert set(multiprocessing.active_children()) <= children
            victim.write_bytes(pristine)
            service.warm()
            report = service.run()
            assert report.n_shots == 2 * load_corpus(corpus).n_shots
        finally:
            service.close()
        assert shm_names() - before == set()

    def test_runs_match_one_shot_replay_and_offline_oracle(
        self, feedline_chips, corpus_path, registry_dir
    ):
        profile = tiny_profile()
        corpus = load_corpus(corpus_path)
        registry = CalibrationRegistry(registry_dir)
        oracle = {}
        for index, chip in enumerate(feedline_chips):
            model, _ = fit_or_load_discriminator(
                profile, registry, chip=chip, device=f"feedline-{index}"
            )
            oracle[f"feedline-{index}"] = oracle_counts(model, corpus, chip)
        for executor in EXECUTOR_NAMES:
            with ReadoutService(
                self.spec(corpus_path, registry_dir, executor),
                profile=profile,
            ) as service:
                runs = [counts_by_feedline(service.run()) for _ in range(3)]
            with MultiFeedlineRunner(
                feedline_chips,
                profile,
                executor=executor,
                workers=2,
                config=PipelineConfig(batch_size=32),
                chunk_size=20,
                registry_dir=registry_dir,
            ) as runner:
                one_shot = counts_by_feedline(replay_once(runner, corpus))
            assert runs == [one_shot] * 3, executor
            assert one_shot == oracle, executor

    def test_shard_killed_between_runs_keeps_segment_and_recovers(
        self, corpus_path, registry_dir, fresh_resource_tracker
    ):
        before = shm_names()
        service = ReadoutService(
            self.spec(corpus_path, registry_dir), profile=tiny_profile()
        )
        try:
            expected = counts_by_feedline(service.run())
            (segment,) = shm_names() - before
            workers = list(service._runner._pool._processes)
            victim = workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            assert wait([victim.sentinel], timeout=10)
            # A tracker private to the dead shard would unlink the
            # segment it attached within this window.
            time.sleep(1.0)
            assert (SHM_DIR / segment).exists()
            with pytest.raises(ShardCrashedError):
                service.run()
            # The failed run closed the session, segment and surviving
            # worker included...
            assert shm_names() - before == set()
            for worker in workers:
                worker.join(timeout=10)
                assert not worker.is_alive()
            # ...and the next run re-warms and serves the same counts.
            assert counts_by_feedline(service.run()) == expected
        finally:
            service.close()
        assert shm_names() - before == set()

    def test_each_worker_keeps_the_segment_mapped_across_runs(
        self, corpus_path, registry_dir
    ):
        before = shm_names()
        with ReadoutService(
            self.spec(corpus_path, registry_dir), profile=tiny_profile()
        ) as service:
            (segment,) = shm_names() - before
            workers = service._runner._pool._processes
            assert len(workers) == 2
            for _ in range(3):
                service.run()
                # Attached by run 1 and kept, never mapped twice.
                assert [mappings(w.pid, segment) for w in workers] == [1, 1]

    def test_close_stops_every_worker_and_leaves_no_segment(
        self, corpus_path, registry_dir
    ):
        before = shm_names()
        service = ReadoutService(
            self.spec(corpus_path, registry_dir), profile=tiny_profile()
        )
        try:
            service.run()
            service.run()
            workers = list(service._runner._pool._processes)
        finally:
            service.close()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert not set(workers) & set(multiprocessing.active_children())
        assert shm_names() - before == set()

    def test_close_unlinks_segment_when_teardown_raises(
        self, corpus_path, registry_dir, monkeypatch
    ):
        before = shm_names()
        service = ReadoutService(
            self.spec(corpus_path, registry_dir, "serial"),
            profile=tiny_profile(),
        )
        service.warm()
        assert len(shm_names() - before) == 1
        runner = service._runner
        close_runner = runner.close

        def interrupted_close():
            close_runner()
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "close", interrupted_close)
        with pytest.raises(KeyboardInterrupt):
            service.close()
        # close() held the only reference to the segment.
        assert shm_names() - before == set()

    @pytest.mark.parametrize("feedlines", [1, 2])
    def test_drift_clock_counts_per_feedline_shots_delivered(
        self, corpus_path, registry_dir, feedlines
    ):
        spec = self.spec(corpus_path, registry_dir, "serial", feedlines)
        n_shots = load_corpus(corpus_path).n_shots
        with ReadoutService(spec, profile=tiny_profile()) as service:
            service.run()
            service.run()
            assert service.session_shots == 2 * n_shots

    def test_process_shards_share_the_parent_resource_tracker(
        self, corpus_path, registry_dir, tmp_path
    ):
        spec_path = self.spec(corpus_path, registry_dir).to_file(
            tmp_path / "spec.json"
        )
        script = textwrap.dedent(
            """
            import json, sys
            from repro.config import Profile
            from repro.serve import ReadoutService, ServeSpec

            spec = ServeSpec.from_file(sys.argv[1])
            profile = Profile(**json.loads(sys.argv[2]))
            with ReadoutService(spec, profile=profile) as service:
                service.run()
                service.run()
            """
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(spec_path),
                json.dumps(dataclasses.asdict(tiny_profile())),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        tracker_lines = [
            line
            for line in done.stderr.splitlines()
            if "resource_tracker" in line
        ]
        assert tracker_lines == []
