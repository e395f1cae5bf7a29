"""Shared fixtures: small chips and corpora reused across the suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data import generate_calibration_shots, generate_corpus
from repro.physics.adc import ADCConfig
from repro.physics.device import ChipConfig, QubitParams, default_five_qubit_chip


def make_two_qubit_chip(trace_len: int = 200, noise_std: float = 3.0) -> ChipConfig:
    """A light two-qubit chip for fast unit tests."""
    mhz = lambda v: 2.0 * math.pi * v * 1e-3  # noqa: E731 - local shorthand
    qubits = (
        QubitParams(
            name="A", if_frequency_ghz=-0.12, kappa=mhz(2.0), chi=mhz(1.0),
            amplitude=1.0, t1_ns=30_000.0, t1_2_ns=15_000.0,
            excite_01_rate=1e-5, excite_12_rate=2e-5, excite_02_rate=1e-6,
            prep_leak_prob=0.02, prep_thermal_prob=0.004,
        ),
        QubitParams(
            name="B", if_frequency_ghz=0.13, kappa=mhz(2.0), chi=mhz(0.9),
            amplitude=0.9, t1_ns=20_000.0, t1_2_ns=10_000.0,
            excite_01_rate=1e-5, excite_12_rate=3e-5, excite_02_rate=1e-6,
            prep_leak_prob=0.03, prep_thermal_prob=0.004,
        ),
    )
    crosstalk = np.zeros((2, 2), dtype=complex)
    crosstalk[0, 1] = crosstalk[1, 0] = 0.08 * np.exp(0.5j)
    return ChipConfig(
        qubits=qubits,
        adc=ADCConfig(),
        trace_len=trace_len,
        noise_std=noise_std,
        crosstalk=crosstalk,
    )


def serve_one_feedline(
    profile,
    chip: ChipConfig,
    n_shots: int,
    *,
    device: str,
    registry_dir=None,
    config=None,
    chunk_size: int = 256,
    **run_kwargs,
):
    """Stream simulated traffic through one chip's feedline chain.

    A one-feedline ``MultiFeedlineRunner`` on the serial executor, the
    chain every serving front runs; returns that feedline's report.
    ``run_kwargs`` go to ``MultiFeedlineRunner.run`` (seed, drift).
    """
    from repro.pipeline import FeedlineSpec, MultiFeedlineRunner

    with MultiFeedlineRunner(
        [FeedlineSpec("feedline-0", chip, device=device)],
        profile,
        executor="serial",
        config=config,
        chunk_size=chunk_size,
        registry_dir=registry_dir,
    ) as runner:
        report = runner.run(n_shots, **run_kwargs)
    return report.feedline_reports["feedline-0"]


def replay_once(runner, corpus):
    """Publish ``corpus`` to every feedline of ``runner``, serve it once.

    The runner closes before the segment is unlinked, so no worker still
    maps it. Returns the run's ``ClusterReport``.
    """
    from repro.pipeline.shm import SharedTraceBlock

    block = SharedTraceBlock(
        corpus.feedline,
        corpus.prepared_levels,
        label="+".join(spec.name for spec in runner.feedlines),
    )
    try:
        return runner.dispatch_replay(block)
    finally:
        runner.close()
        block.unlink()


@pytest.fixture(scope="session")
def two_qubit_chip() -> ChipConfig:
    return make_two_qubit_chip()


@pytest.fixture(scope="session")
def tiny_corpus(two_qubit_chip):
    """All 9 joint states of the two-qubit chip, 40 shots each."""
    return generate_corpus(two_qubit_chip, shots_per_state=40, seed=101)


@pytest.fixture(scope="session")
def tiny_calibration(two_qubit_chip):
    """Two-level calibration shots on the two-qubit chip."""
    return generate_calibration_shots(two_qubit_chip, n_shots=1200, seed=102)


@pytest.fixture(scope="session")
def five_qubit_chip():
    return default_five_qubit_chip()


@pytest.fixture(scope="session")
def five_qubit_corpus(five_qubit_chip):
    """A small corpus on the paper's five-qubit chip (all 243 states)."""
    return generate_corpus(five_qubit_chip, shots_per_state=6, seed=103)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


def pytest_sessionfinish(session, exitstatus):
    """Fail armed runs on outstanding lock-order or sanitizer reports.

    With ``REPRO_LOCK_DEBUG=1``, every traced lock in the serving stack
    reported its acquisitions into the process-wide graph while the
    suite ran; a cycle means two code paths disagree about acquisition
    order — a potential deadlock even if this run never blocked.

    With ``REPRO_SANITIZE=1``, the runtime sanitizers logged every
    use-after-recycle, shm lifetime breach, and still-live segment; any
    outstanding report fails the session with its witness. Tests that
    deliberately seed violations use private LockGraph / ReportLog /
    ShmLedger instances (or drain what they provoked), so the global
    sinks stay clean.
    """
    from repro.analysis import lockgraph, sanitizers

    if lockgraph.enabled():
        violations = lockgraph.GLOBAL_GRAPH.violations()
        if violations:
            print("\nlock-order violations in the global acquisition graph:")
            for violation in violations:
                print(violation.format())
            session.exitstatus = 1
    if sanitizers.enabled():
        reports = sanitizers.session_reports()
        if reports:
            print("\noutstanding sanitizer reports:")
            for report in reports:
                print(report.format())
            session.exitstatus = 1
