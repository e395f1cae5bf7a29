"""Command-line entry point: run any paper experiment, or serve readout.

Subcommands::

    repro run <exp|tag|all> [...] [--profile P] [--seed S] [--workers N] [--json PATH]
    repro list [--tags]
    repro serve --spec spec.json [--shots N] [--seed S] [--repeat K] [--json PATH]
    repro registry prune DIR [--max-age-s S] [--max-bytes N]
    repro lint [--rules R1,R2] [--json [PATH]] [paths...]

Experiments resolve through the :data:`repro.api.experiments` registry,
so anything registered with the ``@experiment`` decorator is immediately
addressable by ``repro run``. ``repro serve`` is the one serving
command: a declarative :class:`repro.serve.ServeSpec` JSON file names
the traffic (simulated, recorded to a corpus with
``traffic.record_path``, or replayed with ``traffic.backend =
"replay"``), the feedlines, the calibration and any injected drift, and
one warmed :class:`repro.serve.ReadoutService` serves every run.

Examples::

    repro list --tags
    repro run table4 --profile quick --json table4.json
    repro run fidelity --workers 2
    repro run fig5b --profile full --seed 7
    repro serve --spec examples/serve_spec.json --repeat 5 --json serve.json
    repro serve --spec examples/record_spec.json
    repro serve --spec examples/replay_spec.json --json replay.json
    repro registry prune .repro-cache/calibration --max-age-s 604800
    repro lint src/ --json lint.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

from repro.api.registry import discover, experiments
from repro.api.suite import run_suite
from repro.exceptions import ConfigurationError

__all__ = [
    "main",
    "build_parser",
    "build_run_parser",
    "build_list_parser",
    "build_serve_parser",
    "build_registry_parser",
]


def build_parser() -> argparse.ArgumentParser:
    """Top-level parser: picks the subcommand (exposed for tests).

    Each subcommand parses its own options, so ``repro <command>
    --help`` prints that command's help.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient and Scalable Architectures for "
            "Multi-level Superconducting Qubit Readout' (DAC 2025)"
        ),
        epilog="'repro <command> --help' lists a command's options",
    )
    parser.add_argument(
        "command",
        choices=tuple(_COMMANDS),
        help=(
            "run: paper experiments; list: registered experiments; "
            "serve: readout serving sessions from a ServeSpec file; "
            "registry: calibration-registry upkeep; lint: contract "
            "static analysis"
        ),
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


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro serve`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve repeated streaming runs from one warmed ReadoutService "
            "session, configured by a declarative ServeSpec JSON file: "
            "calibration is fitted or loaded once at warm-up, then every "
            "run streams against the warm state with zero refits. The "
            "spec's traffic section records a corpus (record_path) or "
            "replays one (backend 'replay', corpus_path)"
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
    return parser


def _run_serve(argv: list[str]) -> int:
    """The ``repro serve`` subcommand: warm once, run ``--repeat`` times."""
    from repro.serve import ReadoutService, ServeSpec

    args = build_serve_parser().parse_args(argv)
    if args.repeat < 1:
        raise ConfigurationError(f"--repeat must be >= 1, got {args.repeat}")
    spec = ServeSpec.from_file(args.spec)
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


def build_registry_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro registry`` subcommand (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro registry",
        description=(
            "Maintain a calibration registry: 'prune' evicts stored "
            "artifacts by age and/or total size, and with neither bound "
            "clears the registry"
        ),
    )
    parser.add_argument(
        "action", choices=("prune",), help="prune: evict stored artifacts"
    )
    parser.add_argument(
        "directory", metavar="DIR", help="calibration-registry directory"
    )
    parser.add_argument(
        "--max-age-s",
        type=float,
        default=None,
        help="evict artifacts older than this many seconds",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help=(
            "evict oldest artifacts until the registry is at most this "
            "many bytes"
        ),
    )
    return parser


def _run_registry(argv: list[str]) -> int:
    """The ``repro registry`` subcommand."""
    from repro.pipeline import CalibrationRegistry

    args = build_registry_parser().parse_args(argv)
    max_age_s, max_bytes = args.max_age_s, args.max_bytes
    if max_age_s is None and max_bytes is None:
        # No bounds given: clear everything. A zero size budget is robust
        # where a zero age is not (same-instant or future mtimes survive
        # a strict older-than-0s check).
        max_bytes = 0
    registry = CalibrationRegistry(args.directory)
    report = registry.prune(max_age_s=max_age_s, max_bytes=max_bytes)
    print(report.format_table())
    return 0


def _run_experiments(argv: list[str]) -> int:
    """The ``repro run`` subcommand."""
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
    print(
        "  serve     (the streaming readout pipeline, from a ServeSpec "
        "file; see 'repro serve --help')"
    )
    print(
        "  registry  (calibration-registry upkeep; see 'repro registry "
        "--help')"
    )
    print("  lint      (contract static analysis; see 'repro lint --help')")
    return 0


def _run_lint(argv: list[str]) -> int:
    """The ``repro lint`` subcommand (the analysis package loads on use)."""
    from repro.analysis.cli import run_lint

    return run_lint(argv)


_COMMANDS = {
    "run": _run_experiments,
    "list": _list_experiments,
    "serve": _run_serve,
    "registry": _run_registry,
    "lint": _run_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Only the command word is parsed here: an unknown one is argparse's
    # usage error (exit 2), and the rest goes to the command's parser.
    command = build_parser().parse_args(argv[:1]).command
    return _COMMANDS[command](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
