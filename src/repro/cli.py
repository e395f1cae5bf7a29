"""Command-line entry point: run any paper experiment from the shell.

Subcommands::

    repro run <exp|tag|all> [...] [--profile P] [--seed S] [--workers N] [--json PATH]
    repro list [--tags]
    repro pipeline [--shots N] [--feedlines N] [...] [--prune]
    repro serve --spec spec.json [--shots N] [--repeat K] [--json PATH]
    repro record --out DIR [--shots N] [--backend B] [--json PATH]
    repro replay --corpus DIR [--feedlines N] [--json PATH]
    repro lint [--rules R1,R2] [--json [PATH]] [paths...]

The pre-subcommand positional form (``repro table1 --profile quick``,
``repro all``, ``repro list``) is still accepted and routed through the
same code paths. Experiments resolve through the
:data:`repro.api.experiments` registry, so anything registered with the
``@experiment`` decorator is immediately addressable here. The pipeline
and serve subcommands both resolve their configuration into one
declarative :class:`repro.serve.ServeSpec` — ``pipeline`` builds it from
flags for a one-shot run, ``serve`` loads it from a JSON file and serves
repeated runs from a single warmed :class:`repro.serve.ReadoutService`.

Examples::

    repro list --tags
    repro run table4 --profile quick --json table4.json
    repro run fidelity --workers 2
    repro fig5b --profile full --seed 7
    repro pipeline --shots 2000 --profile quick
    repro pipeline --feedlines 3 --executor process
    repro pipeline --prune --max-age-s 604800
    repro serve --spec examples/serve_spec.json --repeat 5 --json serve.json
    repro record --out corpus/ --shots 2000 --json record.json
    repro replay --corpus corpus/ --json replay.json
    repro lint src/ --json lint.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from repro.api.registry import discover, experiments
from repro.api.suite import run_suite
from repro.exceptions import ConfigurationError

__all__ = [
    "main",
    "build_parser",
    "build_run_parser",
    "build_list_parser",
    "build_pipeline_parser",
    "build_serve_parser",
    "build_record_parser",
    "build_replay_parser",
]

def build_parser() -> argparse.ArgumentParser:
    """Legacy positional parser (``repro <experiment>``), kept for
    back-compat and exposed for tests."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient and Scalable Architectures for "
            "Multi-level Superconducting Qubit Readout' (DAC 2025)"
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "subcommand (run/list/pipeline) or, in the legacy form, an "
            "experiment id (table1/table2/.../headline) or 'all'"
        ),
    )
    parser.add_argument(
        "--profile",
        default="quick",
        help="sizing profile: quick, full, or paper (default: quick)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the profile's base seed"
    )
    return parser


def build_run_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro run`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description=(
            "Run one or more experiments selected by name, tag "
            "(fidelity/qec/fpga/scaling/...), or 'all'"
        ),
    )
    parser.add_argument(
        "selectors",
        nargs="+",
        metavar="EXPERIMENT",
        help="experiment names, tags, or 'all' (any mix)",
    )
    parser.add_argument(
        "--profile",
        default="quick",
        help="sizing profile: quick, full, or paper (default: quick)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the profile's base seed"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run independent experiments on N threads (default: 1)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help=(
            "write results as JSON to PATH (single experiment: its "
            "name/profile/measured/paper/deviations record; several: the "
            "whole suite)"
        ),
    )
    return parser


def build_list_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro list`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro list",
        description="List registered experiments",
    )
    parser.add_argument(
        "--tags",
        action="store_true",
        help="also show each experiment's tags and paper reference",
    )
    return parser


def build_pipeline_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro pipeline`` subcommand (exposed for tests)."""
    from repro.pipeline.cluster import EXECUTOR_NAMES
    from repro.serve.spec import ClusterSpec

    parser = argparse.ArgumentParser(
        prog="repro pipeline",
        description=(
            "Stream simulated readout traffic through the batched "
            "fused matched-filter -> discriminator -> ERASER runtime, "
            "reporting shots/sec and per-stage p50/p99 latency"
        ),
    )
    parser.add_argument(
        "--shots",
        type=int,
        default=2000,
        help="shots to stream, per feedline (default: 2000)",
    )
    parser.add_argument(
        "--feedlines",
        type=int,
        default=1,
        help=(
            "readout groups (feedlines) to serve; > 1 shards one "
            "discrimination chain per feedline across --executor workers "
            "(default: 1)"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default=ClusterSpec.executor,
        help=(
            "shard backend for --feedlines > 1: process forks one worker "
            "per shard, which rebuilds calibration from registry "
            "artifacts; serial runs every feedline on the calling thread "
            "(default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        help="shard workers for --feedlines > 1 (default: one per feedline)",
    )
    parser.add_argument(
        "--qubits-per-feedline",
        type=int,
        default=5,
        help=(
            "qubits multiplexed on each served feedline, 1-5 "
            "(default: 5; applies to --feedlines 1 as well)"
        ),
    )
    parser.add_argument(
        "--batch-size", type=int, default=64, help="shots per micro-batch"
    )
    parser.add_argument(
        "--chunk-size", type=int, default=256, help="shots per source chunk"
    )
    parser.add_argument(
        "--profile",
        default="quick",
        help="calibration sizing profile: quick, full, or paper",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the profile's base seed"
    )
    parser.add_argument(
        "--registry",
        default=".repro-cache/calibration",
        help=(
            "calibration-registry directory; fitted artifacts are stored "
            "here so warm runs skip retraining (default: "
            ".repro-cache/calibration)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the calibration registry (always fit from scratch)",
    )
    parser.add_argument(
        "--design",
        default=None,
        help=(
            "registered discriminator design to serve (default: 'ours'; "
            "see repro.discriminators.registry — the streaming engine "
            "currently requires the MLR family)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the run report as JSON to PATH",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help=(
            "evict stored calibration artifacts instead of streaming: "
            "apply --max-age-s / --max-bytes to the registry and exit "
            "(with neither bound, the whole registry is cleared)"
        ),
    )
    parser.add_argument(
        "--max-age-s",
        type=float,
        default=None,
        help="with --prune: evict artifacts older than this many seconds",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help=(
            "with --prune: evict oldest artifacts until the registry is "
            "at most this many bytes"
        ),
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro serve`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve repeated streaming runs from one warmed ReadoutService "
            "session, configured by a declarative ServeSpec JSON file: "
            "calibration is fitted or loaded once at warm-up, then every "
            "run streams against the warm state with zero refits"
        ),
    )
    parser.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="ServeSpec JSON file (see repro.serve.ServeSpec.to_file)",
    )
    parser.add_argument(
        "--shots",
        type=int,
        default=None,
        help="override the spec's per-run shot count",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="number of runs served from the warm session (default: 1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the spec's traffic seed",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help=(
            "write the session record (spec, cumulative service stats, "
            "per-run reports) as JSON to PATH"
        ),
    )
    parser.add_argument(
        "--drift-demo",
        action="store_true",
        help=(
            "inject the canned device drift (readout-tone detuning + "
            "T1/contrast decay) and enable drift-alarm hot "
            "recalibration, overriding the spec's drift/recalibration "
            "sections — the staleness-and-recovery demo"
        ),
    )
    parser.add_argument(
        "--drift-if-detune",
        type=float,
        default=None,
        metavar="GHZ_PER_KSHOT",
        help="override the spec's readout-tone detuning drift rate",
    )
    parser.add_argument(
        "--drift-t1-decay",
        type=float,
        default=None,
        metavar="RATE_PER_KSHOT",
        help="override the spec's T1 decay drift rate",
    )
    parser.add_argument(
        "--drift-amp-decay",
        type=float,
        default=None,
        metavar="RATE_PER_KSHOT",
        help="override the spec's drive-amplitude decay drift rate",
    )
    parser.add_argument(
        "--drift-threshold",
        type=float,
        default=None,
        metavar="SCORE",
        help="override the drift-alarm threshold",
    )
    parser.add_argument(
        "--drift-no-recal",
        action="store_true",
        help=(
            "with --drift-demo: keep recalibration off (pure "
            "degradation, for comparison)"
        ),
    )
    return parser


def _apply_drift_flags(spec, args):
    """Fold the ``--drift-*`` serve flags into the loaded spec."""
    import dataclasses

    from repro.physics.drift import DEMO_DRIFT

    drift_fields = {}
    if args.drift_demo:
        drift_fields = DEMO_DRIFT.to_dict()
    for flag, field_name in (
        ("drift_if_detune", "if_detune_ghz_per_kshot"),
        ("drift_t1_decay", "t1_decay_per_kshot"),
        ("drift_amp_decay", "amplitude_decay_per_kshot"),
    ):
        value = getattr(args, flag)
        if value is not None:
            drift_fields[field_name] = value
    changes = {}
    if drift_fields:
        changes["drift"] = dataclasses.replace(spec.drift, **drift_fields)
    recal_fields = {}
    if args.drift_no_recal:
        # Forces recovery off even when the spec enables it — the flag
        # promises the pure-degradation comparison arm.
        recal_fields["enabled"] = False
    elif args.drift_demo:
        recal_fields["enabled"] = True
    if args.drift_threshold is not None:
        recal_fields["threshold"] = args.drift_threshold
    if recal_fields:
        changes["recalibration"] = dataclasses.replace(
            spec.recalibration, **recal_fields
        )
    return dataclasses.replace(spec, **changes) if changes else spec


def _run_serve(argv: list[str]) -> int:
    """The ``repro serve`` subcommand: warm once, run ``--repeat`` times."""
    from repro.serve import ReadoutService, ServeSpec

    args = build_serve_parser().parse_args(argv)
    if args.repeat < 1:
        raise ConfigurationError(f"--repeat must be >= 1, got {args.repeat}")
    spec = _apply_drift_flags(ServeSpec.from_file(args.spec), args)
    # The overrides fold into the spec, so the record's spec is the one
    # every run served.
    if args.shots is not None:
        spec = spec.with_traffic(shots=args.shots)
    if args.seed is not None:
        spec = spec.with_traffic(seed=args.seed)
    reports = []
    with ReadoutService.open(spec) as service:
        print(
            f"[serve] warmed in {service.stats.warm_seconds:.2f} s "
            f"({service.stats.cold_fits} cold fit(s))"
        )
        for _ in range(args.repeat):
            reports.append(service.run())
        stats = service.stats
    print(stats.format_table())
    if args.json is not None:
        payload = {
            "spec": spec.to_dict(),
            "service": stats.to_dict(),
            "runs": [report.to_dict() for report in reports],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"session record written to {args.json}")
    return 0


def build_record_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro record`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro record",
        description=(
            "Serve one run of traffic and tee every chunk into a "
            "versioned on-disk corpus (per-chunk .npy files plus a "
            "checksummed manifest), replayable bit-deterministically "
            "with 'repro replay'"
        ),
    )
    parser.add_argument(
        "--out",
        required=True,
        metavar="DIR",
        help="corpus directory to create (must not already hold one)",
    )
    parser.add_argument(
        "--shots",
        type=int,
        default=2000,
        help="shots of traffic to record (default: 2000)",
    )
    parser.add_argument(
        "--backend",
        choices=("simulator", "dummy"),
        default="simulator",
        help="generating backend to record from (default: simulator)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=256, help="shots per source chunk"
    )
    parser.add_argument(
        "--qubits-per-feedline",
        type=int,
        default=None,
        help="qubits on the recorded feedline (default: the full chip)",
    )
    parser.add_argument(
        "--profile",
        default="quick",
        help="calibration sizing profile: quick, full, or paper",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="traffic seed for the recording"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the corpus summary and run report as JSON to PATH",
    )
    return parser


def build_replay_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro replay`` subcommand (exposed for tests)."""
    from repro.pipeline.cluster import EXECUTOR_NAMES
    from repro.serve.spec import ClusterSpec

    parser = argparse.ArgumentParser(
        prog="repro replay",
        description=(
            "Serve a recorded corpus back through the streaming runtime, "
            "bit-deterministically: the manifest's chip SHA is validated "
            "against the serving chip, every chunk file against its "
            "checksum, and the replayed stream is the recorded one"
        ),
    )
    parser.add_argument(
        "--corpus",
        required=True,
        metavar="DIR",
        help="corpus directory written by 'repro record'",
    )
    parser.add_argument(
        "--feedlines",
        type=int,
        default=1,
        help=(
            "feedlines to broadcast the corpus to; > 1 replays over "
            "shared-memory process shards (default: 1)"
        ),
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default=ClusterSpec.executor,
        help="shard backend for --feedlines > 1 (default: %(default)s)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=256, help="shots per source chunk"
    )
    parser.add_argument(
        "--qubits-per-feedline",
        type=int,
        default=None,
        help="qubits per served feedline (must match the recording)",
    )
    parser.add_argument(
        "--profile",
        default="quick",
        help="calibration sizing profile: quick, full, or paper",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the corpus summary and run report as JSON to PATH",
    )
    return parser


def _run_record(argv: list[str]) -> int:
    """The ``repro record`` subcommand: serve once, tee to a corpus."""
    from repro.backends import load_corpus
    from repro.serve import (
        CalibrationSpec,
        ClusterSpec,
        ServeSpec,
        TrafficSpec,
        serve_once,
    )

    args = build_record_parser().parse_args(argv)
    spec = ServeSpec(
        traffic=TrafficSpec(
            shots=args.shots,
            chunk_size=args.chunk_size,
            seed=args.seed,
            backend=args.backend,
            record_path=args.out,
        ),
        cluster=ClusterSpec(
            qubits_per_feedline=args.qubits_per_feedline
        ),
        calibration=CalibrationSpec(profile=args.profile),
    )
    report = serve_once(spec)
    # Reload what was just written: the summary printed (and dumped) is
    # the *verified* on-disk corpus, not the writer's intent.
    corpus = load_corpus(args.out)
    print(report.format_table())
    summary = corpus.summary()
    print(
        f"[record] corpus written to {summary['path']} "
        f"({summary['n_chunks']} chunk(s), {summary['n_shots']} shots, "
        f"chip {summary['chip_sha'][:12]})"
    )
    if args.json is not None:
        payload = {"corpus": summary, "report": report.to_dict()}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"record written to {args.json}")
    return 0


def _run_replay_corpus(argv: list[str]) -> int:
    """The ``repro replay`` subcommand: serve a recorded corpus back."""
    from repro.backends import read_corpus_layout
    from repro.serve import (
        CalibrationSpec,
        ClusterSpec,
        ServeSpec,
        TrafficSpec,
        serve_once,
    )

    args = build_replay_parser().parse_args(argv)
    spec = ServeSpec(
        traffic=TrafficSpec(
            chunk_size=args.chunk_size,
            backend="replay",
            corpus_path=args.corpus,
        ),
        cluster=ClusterSpec(
            feedlines=args.feedlines,
            executor=args.executor,
            qubits_per_feedline=args.qubits_per_feedline,
        ),
        calibration=CalibrationSpec(profile=args.profile),
    )
    report = serve_once(spec)
    # Serving verified every chunk; the summary needs only the manifest.
    summary = read_corpus_layout(args.corpus).summary()
    print(report.format_table())
    print(
        f"[replay] served corpus {summary['path']} "
        f"({summary['n_shots']} shots, chip {summary['chip_sha'][:12]}) "
        f"on {args.feedlines} feedline(s)"
    )
    if args.json is not None:
        payload = {"corpus": summary, "report": report.to_dict()}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"replay record written to {args.json}")
    return 0


def _prune_registry(args) -> int:
    from repro.pipeline import CalibrationRegistry

    max_age_s, max_bytes = args.max_age_s, args.max_bytes
    if max_age_s is None and max_bytes is None:
        # No bounds given: clear everything. A zero size budget is robust
        # where a zero age is not (same-instant or future mtimes survive
        # a strict older-than-0s check).
        max_bytes = 0
    registry = CalibrationRegistry(args.registry)
    report = registry.prune(max_age_s=max_age_s, max_bytes=max_bytes)
    print(report.format_table())
    return 0


def _run_pipeline(argv: list[str]) -> int:
    from repro.serve import (
        BatchingSpec,
        CalibrationSpec,
        ClusterSpec,
        ServeSpec,
        TrafficSpec,
        serve_once,
    )

    args = build_pipeline_parser().parse_args(argv)
    if args.prune:
        return _prune_registry(args)
    # One-shot serving: the flag surface folds into a declarative
    # ServeSpec, the same config object `repro serve` loads from a file.
    design_kwargs = {} if args.design is None else {"design": args.design}
    spec = ServeSpec(
        traffic=TrafficSpec(shots=args.shots, chunk_size=args.chunk_size),
        cluster=ClusterSpec(
            feedlines=args.feedlines,
            executor=args.executor,
            workers=args.shard_workers,
            qubits_per_feedline=args.qubits_per_feedline,
        ),
        batching=BatchingSpec(batch_size=args.batch_size),
        calibration=CalibrationSpec(
            profile=args.profile,
            seed=args.seed,
            registry_dir=None if args.no_cache else args.registry,
            **design_kwargs,
        ),
    )
    start = time.perf_counter()
    report = serve_once(spec)
    elapsed = time.perf_counter() - start
    print(report.format_table())
    print(f"[pipeline completed in {elapsed:.1f} s]\n")
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.json}")
    return 0


def _run_experiments(argv: list[str]) -> int:
    """The ``repro run`` subcommand (also the legacy positional target)."""
    args = build_run_parser().parse_args(argv)
    discover()
    # Resolve selectors up front so a bad experiment name is a usage
    # error (exit 2), while a bad --profile still raises like the rest
    # of the CLI; run_suite then re-resolves the validated names.
    try:
        specs = experiments.select(args.selectors)
    except ConfigurationError as exc:  # carries the known-name list
        print(str(exc), file=sys.stderr)
        return 2

    print_lock = threading.Lock()

    def _print_entry(entry) -> None:
        # Stream each result as it completes (long suites give feedback
        # early); the lock keeps parallel workers' tables unmangled.
        with print_lock:
            print(entry.result.format_table())
            print(f"[{entry.name} completed in {entry.seconds:.1f} s]\n")

    suite = run_suite(
        [spec.name for spec in specs],
        profile=args.profile,
        seed=args.seed,
        workers=args.workers,
        on_result=_print_entry,
    )
    if len(suite.entries) > 1:
        print(suite.format_table())
        print()

    if args.json is not None:
        if len(suite.entries) == 1:
            payload = suite.entries[0].result.to_dict()
        else:
            payload = suite.to_dict()
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"results written to {args.json}")
    return 0


def _list_experiments(argv: list[str]) -> int:
    """The ``repro list`` subcommand."""
    args = build_list_parser().parse_args(argv)
    discover()
    print("available experiments:")
    if args.tags:
        width = max(len(name) for name in experiments.names())
        for spec in experiments.values():
            tags = ",".join(spec.tags) or "-"
            print(f"  {spec.name.ljust(width)}  [{tags}]  {spec.paper_ref}")
        print(f"\ntags: {', '.join(experiments.tags())}")
    else:
        for name in experiments.names():
            print(f"  {name}")
    print("  pipeline  (streaming runtime; see 'repro pipeline --help')")
    print("  serve     (warm serving sessions; see 'repro serve --help')")
    print("  record    (capture traffic to a corpus; see 'repro record --help')")
    print("  replay    (serve a recorded corpus; see 'repro replay --help')")
    print("  lint      (contract static analysis; see 'repro lint --help')")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Fast paths keep 'repro <sub> --help' on the subcommand's parser.
    if argv and argv[0] == "run":
        return _run_experiments(argv[1:])
    if argv and argv[0] == "list":
        return _list_experiments(argv[1:])
    if argv and argv[0] == "pipeline":
        return _run_pipeline(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve(argv[1:])
    if argv and argv[0] == "record":
        return _run_record(argv[1:])
    if argv and argv[0] == "replay":
        return _run_replay_corpus(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(argv[1:])

    # Legacy positional form. Peek at the experiment positional:
    # 'pipeline' routes to its own parser with the shared flags
    # (--profile, --seed) forwarded, so 'repro --profile full pipeline'
    # also works while flag *values* equal to 'pipeline' stay untouched.
    peek, extra = build_parser().parse_known_args(argv)
    if peek.experiment == "pipeline":
        forwarded = list(extra) + ["--profile", peek.profile]
        if peek.seed is not None:
            forwarded += ["--seed", str(peek.seed)]
        return _run_pipeline(forwarded)
    if peek.experiment == "serve":
        # The spec file carries the profile, so --profile does not
        # forward; --seed maps onto serve's own traffic-seed flag.
        forwarded = list(extra)
        if peek.seed is not None:
            forwarded += ["--seed", str(peek.seed)]
        return _run_serve(forwarded)
    if peek.experiment == "record":
        forwarded = list(extra) + ["--profile", peek.profile]
        if peek.seed is not None:
            forwarded += ["--seed", str(peek.seed)]
        return _run_record(forwarded)
    if peek.experiment == "replay":
        # The corpus fixes the traffic; only the profile forwards.
        return _run_replay_corpus(list(extra) + ["--profile", peek.profile])
    if peek.experiment == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(list(extra))
    if peek.experiment == "list":
        return _list_experiments(list(extra))

    args = build_parser().parse_args(argv)
    forwarded = [args.experiment, "--profile", args.profile]
    if args.seed is not None:
        forwarded += ["--seed", str(args.seed)]
    return _run_experiments(forwarded)


if __name__ == "__main__":
    raise SystemExit(main())
