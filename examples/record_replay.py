"""Record once, replay bit-deterministically: the instrument-backend seam.

A `ServeSpec` picks its traffic source by name (`TrafficSpec.backend`);
adding `record_path` tees whatever that backend streams into a versioned
on-disk corpus — per-chunk `.npy` files plus a checksummed manifest that
pins the format version, the chip SHA, and the traffic seed. A second
session with `backend="replay"` serves the corpus back: the manifest is
validated against the serving chip, every chunk file against its
checksum, and the replayed run reproduces the recorded assignment
counts exactly.

The same round trip runs from the CLI on the spec files beside this
example: `record_spec.json` records 512 shots into `./corpus`, and
`replay_spec.json` serves that corpus back::

    PYTHONPATH=src python -m repro serve --spec examples/record_spec.json \
        --json record.json
    PYTHONPATH=src python -m repro serve --spec examples/replay_spec.json \
        --json replay.json
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.backends import load_corpus
from repro.serve import (
    BatchingSpec,
    CalibrationSpec,
    ClusterSpec,
    ServeSpec,
    TrafficSpec,
    serve_once,
)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-record-") as tmp:
        corpus_dir = Path(tmp) / "corpus"
        registry = str(Path(tmp) / "registry")

        # Session 1: simulator traffic, with a recording tee.
        recorded = serve_once(
            ServeSpec(
                traffic=TrafficSpec(
                    shots=120, chunk_size=40, record_path=str(corpus_dir)
                ),
                cluster=ClusterSpec(qubits_per_feedline=2),
                batching=BatchingSpec(batch_size=40),
                calibration=CalibrationSpec(registry_dir=registry),
            )
        )

        corpus = load_corpus(corpus_dir)
        print(
            f"recorded {corpus.n_shots} shots in "
            f"{len(corpus.manifest['chunks'])} chunks "
            f"(chip {corpus.chip_sha[:12]}, seed {corpus.seed})"
        )

        # Session 2: replay the corpus through the same datapath. The
        # shared registry means the warm session performs zero refits.
        replayed = serve_once(
            ServeSpec(
                traffic=TrafficSpec(
                    shots=120,
                    chunk_size=40,
                    backend="replay",
                    corpus_path=str(corpus_dir),
                ),
                cluster=ClusterSpec(qubits_per_feedline=2),
                batching=BatchingSpec(batch_size=40),
                calibration=CalibrationSpec(registry_dir=registry),
            )
        )

        # A session reports per feedline; this one serves feedline-0.
        recorded_counts, replayed_counts = (
            report.feedline_reports["feedline-0"].assignment_counts
            for report in (recorded, replayed)
        )
        print(f"recorded counts: {recorded_counts}")
        print(f"replayed counts: {replayed_counts}")
        match = replayed_counts == recorded_counts
        print(f"bit-deterministic replay: {'yes' if match else 'NO'}")


if __name__ == "__main__":
    main()
