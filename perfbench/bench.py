"""One benchmark run: inputs, set-up, timed window, metrics, record.

With ``trace=False`` the run reports the end-to-end metrics from an
untraced window. With ``trace=True`` it runs the same workload twice,
half the time untraced and half with the layer wrappers installed, and
reports the per-layer metrics of the traced half plus how much slower
tracing made it.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench import layers
from perfbench.inputs import WORK_ROOT, prepare
from perfbench.provenance import fingerprint
from perfbench.workloads import (
    SETUP_REPEATS,
    SETUP_WARMUPS,
    WORKLOADS,
    Window,
    shm_segments,
)

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metric -> unit; every workload reports all of them.
END_TO_END = {
    "shots_per_s": "1/s",
    "setup_s": "s",
    "decide_p50_ms": "ms",
}

#: Per-layer metric -> unit. Times ending in ``_us`` are per decided
#: shot; ``_ms`` are per call (set-up loads, sink drain) or per run
#: (shared memory, dispatch, serving overhead). A layer a workload does
#: not reach from the benchmark's process reads 0.
#:
#: The decision-latency tail sits here, not with the end-to-end metrics,
#: and is taken from the untraced half. On a shared two-CPU host, stalls
#: of a few ms arrive about once a second and in bursts: across runs of
#: the same code the paced p99 spread 40-140 % of its median and the p90
#: up to 100 %, beyond any usable bound.
PER_LAYER = {
    "decide_p90_ms": "ms",
    "decide_p99_ms": "ms",
    "stages.mf_gemm_us": "us",
    "stages.scale_us": "us",
    "stages.head_l1_us": "us",
    "stages.head_l2_us": "us",
    "stages.head_l3_us": "us",
    "stages.decide_us": "us",
    "stages.engine_us": "us",
    "stages.batches": "count",
    "batching.rebatch_us": "us",
    "sink.enqueue_us": "us",
    "sink.work_us": "us",
    "sink.blocked_batches": "count",
    "sink.drain_ms": "ms",
    "drift.observe_us": "us",
    "runner.labels_us": "us",
    "runner.unattributed_frac": "frac",
    "backends.acquire_us": "us",
    "backends.corpus_load_ms": "ms",
    "registry.load_ms": "ms",
    "shm.publish_ms": "ms",
    "shm.unlink_ms": "ms",
    "cluster.dispatch_ms": "ms",
    "cluster.shard_imbalance": "ratio",
    "serve.run_overhead_ms": "ms",
    "paced.gen_lag_p99_ms": "ms",
    "trace_overhead_frac": "frac",
}


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(
    setup_spans, spans, plain: Window, traced: Window, plain_end_to_end
) -> dict:
    """Per-layer metrics of a traced window (see :data:`PER_LAYER`)."""
    shots = traced.decided

    def us(seconds: float) -> float:
        return seconds / shots * 1e6 if shots else 0.0

    runs = len(traced.samples)
    sharded = [s for s in traced.samples if len(s.feedline_walls) > 1]
    lag = traced.gen_lag_ms
    return {
        "decide_p90_ms": plain_end_to_end["decide_p90_ms"],
        "decide_p99_ms": plain_end_to_end["decide_p99_ms"],
        "stages.mf_gemm_us": us(spans.self_seconds("mf_gemm")),
        "stages.scale_us": us(spans.self_seconds("scale")),
        "stages.head_l1_us": us(spans.self_seconds("head_l1")),
        "stages.head_l2_us": us(spans.self_seconds("head_l2")),
        "stages.head_l3_us": us(spans.self_seconds("head_l3")),
        "stages.decide_us": us(
            spans.self_seconds("heads") + spans.total["digits"]
        ),
        "stages.engine_us": us(spans.total["engine"]),
        "stages.batches": spans.calls["engine"],
        "batching.rebatch_us": us(spans.self_seconds("rebatch")),
        "sink.enqueue_us": us(spans.total["sink_enqueue"]),
        "sink.work_us": us(spans.total["sink_work"]),
        "sink.blocked_batches": spans.counts["sink_blocked"],
        "sink.drain_ms": spans.per_call_ms("sink_drain"),
        "drift.observe_us": us(spans.total["drift"]),
        "runner.labels_us": us(spans.total["labels"]),
        "runner.unattributed_frac": 1.0 - spans.main_root_seconds / traced.wall,
        "backends.acquire_us": us(spans.total["acquire"]),
        "backends.corpus_load_ms": setup_spans.per_call_ms("corpus_load"),
        "registry.load_ms": setup_spans.per_call_ms("registry_load"),
        "shm.publish_ms": spans.total["shm_publish"] / runs * 1e3,
        "shm.unlink_ms": spans.total["shm_unlink"] / runs * 1e3,
        "cluster.dispatch_ms": _median_or_zero(
            (s.report_wall - max(s.feedline_walls)) * 1e3 for s in sharded
        ),
        "cluster.shard_imbalance": _median_or_zero(
            max(s.feedline_walls) / min(s.feedline_walls)
            for s in traced.samples
            if s.feedline_walls
        ),
        "serve.run_overhead_ms": _median_or_zero(
            (s.wall - s.report_wall) * 1e3 for s in traced.samples
        ),
        "paced.gen_lag_p99_ms": (
            float(np.percentile(lag, 99)) if lag is not None else 0.0
        ),
        "trace_overhead_frac": (
            traced.busy_per_shot() / plain.busy_per_shot() - 1.0
        ),
    }


def _untraced(workload, inputs, seconds: float):
    setups: list[float] = []
    session = None
    try:
        for index in range(SETUP_WARMUPS + SETUP_REPEATS):
            if session is not None:
                workload.close(session)
                session = None
            session, wall = workload.setup(inputs, f"setup{index}")
            setups.append(wall)
        window = workload.window(session, inputs, seconds)
    finally:
        if session is not None:
            workload.close(session)
    metrics = workload.end_to_end(window)
    metrics["setup_s"] = statistics.median(setups[SETUP_WARMUPS:])
    return metrics, [window], {"setup_samples_s": setups}


def _traced(workload, inputs, seconds: float):
    session, _ = workload.setup(inputs, "untraced")
    try:
        plain = workload.window(session, inputs, seconds / 2)
    finally:
        workload.close(session)
    tracer = layers.Tracer()
    with tracer:
        session, _ = workload.setup(inputs, "traced")
        try:
            setup_spans = tracer.snapshot()
            traced = workload.window(session, inputs, seconds / 2, tracer)
        finally:
            workload.close(session)
        spans = tracer.snapshot()
    untraced = workload.end_to_end(plain)
    metrics = per_layer(setup_spans, spans, plain, traced, untraced)
    detail = {
        "untraced": untraced,
        "traced": workload.end_to_end(traced),
        "span_seconds": dict(spans.total),
        "span_calls": dict(spans.calls),
    }
    return metrics, [plain, traced], detail


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (record, result)."""
    workload = WORKLOADS[name]
    layers.assert_pristine()
    shm_before = shm_segments()
    work = WORK_ROOT / f"run-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        inputs = prepare(seed, work, set(workload.devices.values()))
        if trace:
            metrics, windows, detail = _traced(workload, inputs, seconds)
        else:
            metrics, windows, detail = _untraced(workload, inputs, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    shm_after = shm_segments()
    leftover = (
        sorted(shm_after - shm_before)
        if shm_before is not None and shm_after is not None
        else []
    )
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    samples = [s for w in windows for s in w.samples]
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fingerprint": fingerprint(ROOT),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "runs": len(samples),
        "run_walls_s": [round(s.wall, 6) for s in samples],
        "errors": sorted({s.error for s in samples if s.error}),
        "leftover_shm": leftover
        + sorted({n for s in samples for n in s.leftover_shm}),
        "latency_batches": [
            int(w.latencies_ms.size)
            for w in windows
            if w.latencies_ms is not None
        ],
        "metrics": metrics,
        **detail,
    }
    result = {
        "correct": failed == 0 and not record["leftover_shm"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
    return record, result
