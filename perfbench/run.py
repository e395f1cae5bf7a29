"""Serving benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay-b256 --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``replay-b256`` (closed-loop replay throughput),
``paced-b16`` (open-loop decision latency at a fixed rate) and
``cluster2-process`` (two feedlines on two process shards); see
``perfbench/workloads.py``. Inputs are generated from ``--seed`` before
any timing, and every served decision is checked against the offline
oracle. Every process a run starts is stopped and waited for before it
exits (see ``perfbench/procs.py``).

The second-to-last stdout line is the full JSON record (machine
fingerprint, runs, failures, detail); the last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separately traced run.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("replay-b256", "paced-b16", "cluster2-process")


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import procs

    # A terminated run still closes its sessions and ends its children.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    with procs.contained():
        from perfbench.bench import measure

        record, result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
