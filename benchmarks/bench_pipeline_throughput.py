"""Streaming-pipeline bench: shots/sec and per-stage p50/p99 latency.

Calibrates once into a temporary registry, then streams simulated traffic
through the batched demod -> matched-filter -> discriminator -> ERASER
runtime, cold and warm. Shape asserted: the warm run serves calibration
from the registry without refitting, every stage reports latency, and the
measured per-shot compute latency is scored against the FPGA decision
budget.

The cluster sweep streams a feedline-count x shard-executor grid through
:class:`repro.pipeline.MultiFeedlineRunner` (warm registry, so the grid
times serving, not calibration) and records global shots/sec per cell —
the scaling story of the multi-feedline refactor.

The serve-warm bench (``pipeline_serve_warm``) compares one warmed
:class:`repro.serve.ReadoutService` session running the same traffic
repeatedly against the same number of cold :func:`repro.serve.serve_once`
calls: the session must perform zero refits after warm-up and beat the
cold calls' aggregate shots/sec (which pay calibration every time) —
the amortization story of the serving redesign.

The zero-copy bench (``pipeline_zero_copy``) replays one pre-generated
corpus through shared memory with the fused zero-copy engine and checks
it against the offline oracle — ``MLRDiscriminator.predict`` on the same
corpus with the same artifact, which runs the per-channel demod ->
decimate -> matched-filter chain. Assignment counts must be identical.
With the simulator out of the timed window, this is the
serving-throughput headline of the fused kernel + buffer-ring +
shared-memory refactor.

Runs standalone too (that is how the perf trajectory is recorded)::

    PYTHONPATH=src:. python benchmarks/bench_pipeline_throughput.py \
        --shots 2000 --json BENCH_pipeline.json
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time

import numpy as np

from benchmarks.conftest import record_bench_result, run_once
from repro.config import get_profile
from repro.pipeline import EXECUTOR_NAMES, MultiFeedlineRunner, PipelineConfig
from repro.serve import (
    BatchingSpec,
    CalibrationSpec,
    ReadoutService,
    ServeSpec,
    TrafficSpec,
    serve_once,
)


def _spec(shots, batch_size, registry_dir=None):
    """The single-feedline serving spec every arm here runs."""
    return ServeSpec(
        traffic=TrafficSpec(shots=shots),
        batching=BatchingSpec(batch_size=batch_size),
        calibration=CalibrationSpec(registry_dir=registry_dir),
    )


def _stream_cold_and_warm(profile, n_shots=2000, batch_size=64):
    """Cold (fit + stream) then warm (load + stream) runs, one registry.

    Returns the two runs' feedline reports.
    """
    with tempfile.TemporaryDirectory() as registry_dir:
        spec = _spec(n_shots, batch_size, registry_dir)
        cold = serve_once(spec, profile=profile).feedline_reports["feedline-0"]
        warm = serve_once(spec, profile=profile).feedline_reports["feedline-0"]
    return cold, warm


def _serve_warm_vs_cold(profile, shots=2000, repeat=2, batch_size=64):
    """One warm ReadoutService session vs ``repeat`` cold serve_once calls.

    Cold calls keep no registry, so each pays the full calibration fit;
    the warm session fits once during ``warm()`` and then serves every
    run from resident state. Fit calls are counted by instrumenting
    ``MLRDiscriminator.fit`` (in-process, single-feedline) so the
    zero-refit claim is measured, not assumed.
    """
    from repro.discriminators.mlr import MLRDiscriminator

    spec = _spec(shots, batch_size)
    fit_calls = []
    original_fit = MLRDiscriminator.fit

    def counting_fit(self, corpus, indices):
        fit_calls.append(1)
        return original_fit(self, corpus, indices)

    MLRDiscriminator.fit = counting_fit
    try:
        cold_walls = []
        for _ in range(repeat):
            start = time.perf_counter()
            serve_once(spec, profile=profile)
            cold_walls.append(time.perf_counter() - start)
        cold_fits = len(fit_calls)

        fit_calls.clear()
        with ReadoutService(spec, profile=profile) as service:
            for _ in range(repeat):
                service.run()
            stats = service.stats
        refits_during_runs = len(fit_calls) - stats.cold_fits
    finally:
        MLRDiscriminator.fit = original_fit

    return {
        "repeat": repeat,
        "n_shots_per_run": shots,
        "cold": {
            "run_walls_seconds": cold_walls,
            "fits": cold_fits,
            "shots_per_second": shots * repeat / sum(cold_walls),
        },
        "warm": {
            "warm_seconds": stats.warm_seconds,
            "run_walls_seconds": [run.wall_seconds for run in stats.runs],
            "fits_during_warm": stats.cold_fits,
            "refits_during_runs": refits_during_runs,
            "shots_per_second": stats.shots_per_second,
            "second_run_calibration_cached": (
                stats.runs[-1].calibration_cached if repeat > 1 else None
            ),
        },
    }


def _cluster_sweep(
    profile,
    feedline_counts=(1, 2, 3),
    executors=EXECUTOR_NAMES,
    shots=2000,
    qubits_per_feedline=5,
    rounds=3,
):
    """Feedline-count x executor grid over one warm shared registry.

    The largest feedline count is primed first (serial, cold) so every
    measured cell serves calibration from the registry; cells then time
    pure streaming + shard dispatch over one persistent warm runner per
    executor (its prefit forks process shards before any timed round),
    keeping the best of ``rounds`` repeats. Rounds alternate across
    executors (serial r0, process r0, serial r1, ...) so slow
    drift on the host — page-cache warming, thermal or neighbor load —
    lands on every backend equally instead of biasing whichever cell
    happens to run last.
    """
    from repro.pipeline.cluster import available_cpus
    from repro.physics.device import multi_feedline_chips

    cpus = available_cpus()
    chips = multi_feedline_chips(
        max(feedline_counts), n_qubits=qubits_per_feedline
    )
    results = {}
    with tempfile.TemporaryDirectory() as registry_dir:
        with MultiFeedlineRunner(
            chips, profile, executor="serial", registry_dir=registry_dir
        ) as primer:
            primer.prefit()
        for n_feedlines in feedline_counts:
            runners = {
                executor: MultiFeedlineRunner(
                    chips[:n_feedlines],
                    profile,
                    executor=executor,
                    registry_dir=registry_dir,
                )
                for executor in executors
            }
            try:
                for runner in runners.values():
                    runner.prefit()
                reports = {executor: [] for executor in executors}
                for _ in range(rounds):
                    for executor in executors:
                        reports[executor].append(
                            runners[executor].run(shots)
                        )
            finally:
                for runner in runners.values():
                    runner.close()
            for executor in executors:
                best = max(
                    reports[executor], key=lambda r: r.shots_per_second
                )
                results[f"feedlines{n_feedlines}_{executor}"] = {
                    "n_feedlines": n_feedlines,
                    "executor": executor,
                    "cpus": cpus,
                    "n_shots": best.n_shots,
                    "shots_per_second": best.shots_per_second,
                    "wall_seconds": best.wall_seconds,
                    "accuracy": best.accuracy,
                    "worst_p99_ms": best.worst_p99_ms(),
                    "budget_verdicts": best.budget_verdicts(),
                }
    return results


def _zero_copy(profile, shots=2000, batch_size=256, rounds=3):
    """Fused zero-copy serving vs the offline oracle, replayed.

    Traffic is pre-generated once, published to shared memory once
    (:class:`~repro.pipeline.shm.SharedTraceBlock`) and replayed
    ``rounds`` times (:meth:`MultiFeedlineRunner.dispatch_replay`), so
    the timed window contains discrimination only — the honest serving
    number, with the simulator out of the loop. The oracle is offline
    ``MLRDiscriminator.predict`` on the same corpus with the same
    registry artifact; served assignment counts must match it exactly.
    Both arms keep the fastest of ``rounds`` repeats.
    """
    from repro.data import generate_corpus
    from repro.physics.device import default_five_qubit_chip
    from repro.pipeline import (
        CalibrationRegistry,
        SharedTraceBlock,
        fit_or_load_discriminator,
    )

    chip = default_five_qubit_chip()
    corpus = generate_corpus(
        chip,
        shots_per_state=max(1, shots // chip.n_levels**chip.n_qubits),
        seed=profile.seed + 7,
    )
    with tempfile.TemporaryDirectory() as registry_dir:
        with MultiFeedlineRunner(
            [chip],
            profile,
            executor="serial",
            config=PipelineConfig(batch_size=batch_size),
            registry_dir=registry_dir,
        ) as runner:
            runner.prefit()  # cold fit lands before any timed replay
            block = SharedTraceBlock(
                corpus.feedline, corpus.prepared_levels, label="feedline-0"
            )
            try:
                served = max(
                    (runner.dispatch_replay(block) for _ in range(rounds)),
                    key=lambda report: report.shots_per_second,
                )
            finally:
                # The worker drops its mapping before the segment goes.
                runner.close()
                block.unlink()
            device = runner.feedlines[0].registry_device
        model, _ = fit_or_load_discriminator(
            profile,
            CalibrationRegistry(registry_dir),
            chip=chip,
            device=device,
        )
    oracle_wall = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        labels = model.predict(corpus)
        oracle_wall = min(oracle_wall, time.perf_counter() - start)

    (feedline,) = served.feedline_reports.values()
    fused = {
        "shots_per_second": served.shots_per_second,
        "wall_seconds": served.wall_seconds,
        "accuracy": feedline.accuracy,
        "assignment_counts": feedline.assignment_counts,
    }
    oracle = {
        "shots_per_second": corpus.n_traces / oracle_wall,
        "wall_seconds": oracle_wall,
        "accuracy": float(np.mean(labels == corpus.labels)),
        "assignment_counts": np.bincount(
            labels, minlength=chip.n_levels**chip.n_qubits
        ).tolist(),
    }
    return {
        "n_shots": corpus.n_traces,
        "batch_size": batch_size,
        "rounds": rounds,
        "oracle": oracle,
        "fused": fused,
        "counts_identical": (
            oracle["assignment_counts"] == fused["assignment_counts"]
        ),
        "speedup": fused["shots_per_second"] / oracle["shots_per_second"],
    }


def test_pipeline_zero_copy(benchmark, profile):
    result = run_once(benchmark, _zero_copy, profile, shots=1000, rounds=2)

    # Same traffic, same artifact: serving must decide exactly what the
    # offline oracle decides, and never be slower than its per-channel
    # chain.
    assert result["counts_identical"] is True
    assert result["fused"]["accuracy"] == result["oracle"]["accuracy"]
    assert (
        result["fused"]["shots_per_second"]
        >= result["oracle"]["shots_per_second"]
    )

    record_bench_result("pipeline_zero_copy", result)


def test_pipeline_throughput(benchmark, profile):
    cold, warm = run_once(benchmark, _stream_cold_and_warm, profile)
    print("\n" + warm.format_table())

    assert cold.calibration_cached is False
    assert warm.calibration_cached is True
    assert warm.n_shots == 2000
    assert warm.shots_per_second > 0
    for stage in ("matched_filter", "discriminate", "sink"):
        summary = warm.stage_summaries[stage]
        assert summary["p99_ms"] >= summary["p50_ms"] >= 0.0
    # A software runtime cannot beat the 5-cycle FPGA datapath.
    assert warm.budget is not None and warm.budget.slowdown > 1.0
    # Warm and cold runs stream the same traffic through the same model.
    assert warm.accuracy == cold.accuracy

    record_bench_result(
        "pipeline_throughput",
        {"cold": cold.to_dict(), "warm": warm.to_dict()},
    )


def test_pipeline_serve_warm(benchmark, profile):
    result = run_once(benchmark, _serve_warm_vs_cold, profile, repeat=2)

    # The warmed session must never refit: the same traffic served twice
    # performs zero fits after warm-up...
    assert result["warm"]["fits_during_warm"] == 1
    assert result["warm"]["refits_during_runs"] == 0
    assert result["warm"]["second_run_calibration_cached"] is True
    # ...and amortizing calibration must beat paying it per call.
    assert (
        result["warm"]["shots_per_second"]
        > result["cold"]["shots_per_second"]
    )
    assert result["cold"]["fits"] == result["repeat"]

    record_bench_result("pipeline_serve_warm", result)


def test_pipeline_cluster_sweep(benchmark, profile):
    # Two-qubit feedlines keep the pytest path fast; the standalone run
    # records the full five-qubit sweep.
    sweep = run_once(
        benchmark,
        _cluster_sweep,
        profile,
        feedline_counts=(1, 2),
        shots=600,
        qubits_per_feedline=2,
    )
    assert set(sweep) == {
        f"feedlines{n}_{ex}" for n in (1, 2) for ex in EXECUTOR_NAMES
    }
    for cell in sweep.values():
        assert cell["n_shots"] == 600 * cell["n_feedlines"]
        assert cell["shots_per_second"] > 0
        assert len(cell["budget_verdicts"]) == cell["n_feedlines"]
    # Identical seeded traffic: every executor discriminates the same
    # shots to the same labels at a given feedline count.
    for n in (1, 2):
        accs = {sweep[f"feedlines{n}_{ex}"]["accuracy"]
                for ex in EXECUTOR_NAMES}
        assert len(accs) == 1
    record_bench_result("pipeline_cluster_sweep", sweep)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shots", type=int, default=2000)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--profile", default="quick")
    parser.add_argument(
        "--feedlines",
        type=int,
        nargs="+",
        default=[1, 2, 3],
        metavar="N",
        help="feedline counts for the cluster sweep (default: 1 2 3)",
    )
    parser.add_argument(
        "--qubits-per-feedline",
        type=int,
        default=5,
        help="qubits per generated feedline in the sweep (default: 5)",
    )
    parser.add_argument(
        "--skip-sweep",
        action="store_true",
        help="only run the single-feedline cold/warm bench",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write cold/warm reports as JSON (e.g. BENCH_pipeline.json)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="runs per arm of the warm-service-vs-cold bench (default: 2)",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")

    profile = get_profile(args.profile)
    cold, warm = _stream_cold_and_warm(
        profile, n_shots=args.shots, batch_size=args.batch_size
    )
    print(cold.format_table())
    print()
    print(warm.format_table())
    payload = {
        "pipeline_throughput": {
            "cold": cold.to_dict(),
            "warm": warm.to_dict(),
        }
    }
    serve = _serve_warm_vs_cold(
        profile,
        shots=args.shots,
        repeat=args.repeat,
        batch_size=args.batch_size,
    )
    zero_copy = _zero_copy(
        profile, shots=args.shots, batch_size=args.batch_size * 4
    )
    payload["pipeline_zero_copy"] = zero_copy
    print("\nzero-copy replay vs offline oracle (shots/s):")
    print(f"  offline predict oracle  "
          f"{zero_copy['oracle']['shots_per_second']:>10.0f}")
    print(f"  fused zero-copy         "
          f"{zero_copy['fused']['shots_per_second']:>10.0f}  "
          f"({zero_copy['speedup']:.1f}x, counts identical: "
          f"{zero_copy['counts_identical']})")
    payload["pipeline_serve_warm"] = serve
    print("\nwarm service vs cold calls (aggregate shots/s):")
    print(f"  cold serve_once x{serve['repeat']}   "
          f"{serve['cold']['shots_per_second']:>10.0f}")
    print(f"  warm ReadoutService     "
          f"{serve['warm']['shots_per_second']:>10.0f}  "
          f"(warm-up {serve['warm']['warm_seconds']:.1f} s, "
          f"{serve['warm']['refits_during_runs']} refits)")
    if not args.skip_sweep:
        sweep = _cluster_sweep(
            profile,
            feedline_counts=tuple(args.feedlines),
            shots=args.shots,
            qubits_per_feedline=args.qubits_per_feedline,
        )
        payload["pipeline_cluster_sweep"] = sweep
        print("\nfeedlines x executor (global shots/s):")
        for name, cell in sweep.items():
            print(f"  {name:24s} {cell['shots_per_second']:>10.0f}")
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\nreport written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
