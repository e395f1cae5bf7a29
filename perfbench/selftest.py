"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They check that the harness would notice what it claims to measure: a
flipped label fails the oracle, a stalled sink shows in paced latency,
a leaked segment fails its run, the fingerprint is complete, and the
trace wrappers are gone after a traced run. The file is not named
``test_*.py``, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.backends.corpus import RecordedCorpus  # noqa: E402
from repro.ml.nn.layers import Dense  # noqa: E402
from repro.pipeline.runner import DEFAULT_DEVICE  # noqa: E402
from repro.pipeline.sink import EraserSpeculationSink  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.bench import END_TO_END, PER_LAYER, measure  # noqa: E402
from perfbench.inputs import WORK_ROOT, prepare  # noqa: E402
from perfbench.provenance import THREAD_VARS, fingerprint  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402
from perfbench.workloads import WORKLOADS, shm_segments  # noqa: E402


@pytest.fixture(scope="module")
def inputs():
    work = WORK_ROOT / f"selftest-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        yield prepare(
            seed=5, work=work, devices={DEFAULT_DEVICE, "feedline-0"}
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.fixture
def flipped(inputs):
    """The oracle with shot 0's label changed, restored afterwards."""
    oracle = inputs.oracle[DEFAULT_DEVICE]
    original = oracle.copy()
    oracle[0] = (oracle[0] + 1) % (3**5)
    yield inputs
    oracle[:] = original


def test_benchmark_json_matches_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert WORKLOAD_NAMES == tuple(WORKLOADS)


def test_fingerprint_fields_present():
    info = fingerprint(ROOT)
    for key in ("cpus", "python", "numpy", "blas", "thread_env", "git_sha",
                "timestamp"):
        assert key in info
    assert info["cpus"] >= 1
    assert set(info["blas"]) == {"name", "version"}
    assert set(info["thread_env"]) == set(THREAD_VARS)


def test_closed_loop_label_flip_fails_shots(inputs, flipped):
    workload = WORKLOADS["replay-b256"]
    service, _ = workload.setup(inputs, "flip")
    try:
        sample = workload.run_once(service, inputs)
    finally:
        service.close()
    assert sample.decided == inputs.corpus.n_shots
    assert sample.failed >= 1


def test_paced_label_flip_fails_shots(inputs, flipped):
    workload = WORKLOADS["paced-b16"]
    session, _ = workload.setup(inputs, "paced-flip")
    window = workload.window(session, inputs, 0.3)
    assert window.failed == 1


def test_unflipped_runs_pass_the_oracle(inputs):
    for name in ("replay-b256", "paced-b16"):
        workload = WORKLOADS[name]
        session, _ = workload.setup(inputs, f"clean-{name}")
        try:
            window = workload.window(session, inputs, 0.3)
        finally:
            workload.close(session)
        assert window.attempted > 0
        assert window.failed == 0, name


def test_stalled_sink_shows_in_paced_latency(inputs, monkeypatch):
    workload = WORKLOADS["paced-b16"]
    session, _ = workload.setup(inputs, "stall")
    clean = workload.window(session, inputs, 1.0).latencies_ms

    consume = EraserSpeculationSink.consume
    calls = []

    def stalled(self, levels, joint, batch_id):
        calls.append(batch_id)
        if len(calls) % 100 == 0:
            time.sleep(0.05)
        return consume(self, levels, joint, batch_id)

    monkeypatch.setattr(EraserSpeculationSink, "consume", stalled)
    stalled_lat = workload.window(session, inputs, 1.0).latencies_ms
    n_stalls = len(calls) // 100
    assert np.percentile(clean, 50) < 10.0
    assert np.percentile(stalled_lat, 99) > 40.0
    # Open loop: batches due during a stall wait behind it and are timed
    # from their due time, so far more batches than the stalled ones
    # themselves come out slow.
    assert np.sum(stalled_lat > 10.0) > 3 * n_stalls


def test_leftover_segment_fails_the_run(inputs):
    from multiprocessing import shared_memory

    workload = WORKLOADS["replay-b256"]
    service, _ = workload.setup(inputs, "leak")
    leaked = []

    class Leaky:
        def run(self):
            leaked.append(shared_memory.SharedMemory(create=True, size=64))
            return service.run()

    try:
        sample = workload.run_once(Leaky(), inputs)
    finally:
        service.close()
        for segment in leaked:
            segment.close()
            segment.unlink()
    if shm_segments() is None:
        pytest.skip("no /dev/shm on this platform")
    assert sample.leftover_shm
    assert sample.failed == sample.attempted


def test_tracer_restores_originals_on_error():
    with pytest.raises(RuntimeError, match="boom"):
        with layers.Tracer():
            assert Dense.forward is not layers.PRISTINE[(Dense, "forward")]
            raise RuntimeError("boom")
    layers.assert_pristine()
    assert vars(Dense)["forward"] is layers.PRISTINE[(Dense, "forward")]


def test_contained_reaps_orphaned_grandchildren():
    import os
    import subprocess

    from perfbench import procs

    # A child that starts a sleeping grandchild and exits at once, so the
    # grandchild is orphaned while the body is still running.
    spawn = (
        "import subprocess, sys;"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'],"
        " stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL);"
        "print(p.pid)"
    )
    with procs.contained(grace_s=0.5):
        out = subprocess.run(
            [sys.executable, "-c", spawn], capture_output=True, text=True,
            check=True,
        )
        grandchild = int(out.stdout)
        assert grandchild in procs.children()
    assert procs.children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(grandchild, 0)


def test_wrappers_gone_after_traced_run():
    record, result = measure("paced-b16", seed=6, seconds=1.0, trace=True)
    layers.assert_pristine()
    assert RecordedCorpus.chunks is layers.PRISTINE[(RecordedCorpus, "chunks")]
    assert set(result["metrics"]) == set(PER_LAYER)
    assert result["metrics"]["stages.batches"]["value"] > 0
    assert result["failed"] == 0 and result["correct"]
    assert record["fingerprint"]["cpus"] >= 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
