"""Bench: record-tee overhead and replay-from-disk serving throughput.

Three serving sessions over one warm registry — a plain simulator run,
the same run with a recording tee (``record_path``), and a replay of the
recorded corpus — measure what the capture seam costs on the hot path
and how fast a corpus serves back from disk. The replayed counts are
asserted identical to the recorded ones: the bit-determinism contract
is measured here, not assumed.

Standalone:

    PYTHONPATH=src:. python -m pytest benchmarks/bench_record_replay.py \
        --json BENCH_record_replay.json
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from benchmarks.conftest import record_bench_result, run_once
from repro.backends import load_corpus
from repro.serve import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    ServeSpec,
    TrafficSpec,
    serve_once,
)

SHOTS = 1600
CHUNK = 128


def _spec(registry: str, **traffic) -> ServeSpec:
    return ServeSpec(
        traffic=TrafficSpec(shots=SHOTS, chunk_size=CHUNK, **traffic),
        cluster=ClusterSpec(qubits_per_feedline=2),
        batching=BatchingSpec(batch_size=CHUNK),
        calibration=CalibrationSpec(registry_dir=registry),
    )


def _counts(report) -> list[int]:
    """The one served feedline's assignment counts."""
    return report.feedline_reports["feedline-0"].assignment_counts


def _timed(spec, profile):
    start = time.perf_counter()
    report = serve_once(spec, profile=profile)
    return report, time.perf_counter() - start


def test_record_replay_round_trip(benchmark, profile):
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            registry = str(Path(tmp) / "registry")
            corpus_dir = Path(tmp) / "corpus"

            # Warm the registry so every timed session serves fit-free.
            serve_once(
                _spec(registry).with_traffic(shots=CHUNK), profile=profile
            )

            plain, plain_wall = _timed(_spec(registry), profile)
            recorded, record_wall = _timed(
                _spec(registry, record_path=str(corpus_dir)), profile
            )
            corpus_bytes = sum(
                f.stat().st_size for f in corpus_dir.iterdir()
            )
            replayed, replay_wall = _timed(
                _spec(
                    registry,
                    backend="replay",
                    corpus_path=str(corpus_dir),
                ),
                profile,
            )
            corpus = load_corpus(corpus_dir, verify=False)
            return {
                "n_shots": SHOTS,
                "chunk_size": CHUNK,
                "plain": {
                    "wall_seconds": plain_wall,
                    "shots_per_second": SHOTS / plain_wall,
                },
                "record": {
                    "wall_seconds": record_wall,
                    "shots_per_second": SHOTS / record_wall,
                    "tee_overhead_ratio": record_wall / plain_wall,
                    "corpus_bytes": corpus_bytes,
                    "n_chunks": len(corpus.manifest["chunks"]),
                },
                "replay": {
                    "wall_seconds": replay_wall,
                    "shots_per_second": SHOTS / replay_wall,
                },
                "counts_identical": _counts(replayed) == _counts(recorded),
            }

    result = run_once(benchmark, run)
    record_bench_result("record_replay", result)
    print("\nrecord/replay round trip "
          f"({result['n_shots']} shots, chunk {result['chunk_size']}):")
    for phase in ("plain", "record", "replay"):
        row = result[phase]
        print(
            f"  {phase:7s}: {row['wall_seconds']:.3f}s "
            f"({row['shots_per_second']:,.0f} shots/s)"
        )
    print(
        f"  tee overhead: {result['record']['tee_overhead_ratio']:.2f}x, "
        f"corpus {result['record']['corpus_bytes'] / 1e6:.1f} MB in "
        f"{result['record']['n_chunks']} chunks"
    )
    print(f"  replayed counts identical: {result['counts_identical']}")
    assert result["counts_identical"]
    # The tee writes every chunk + checksums; allow generous headroom
    # but catch pathological regressions on the capture path.
    assert result["record"]["tee_overhead_ratio"] < 5.0
