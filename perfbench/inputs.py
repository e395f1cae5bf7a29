"""Seeded benchmark inputs, built before any timing.

Three things feed every workload:

- a benchmark-owned calibration registry with every served artifact
  pre-fitted on the ``quick`` profile (``five-qubit-default``,
  ``feedline-0``, ``feedline-1``), so no metric ever contains a cold fit.
  Fitting takes seconds per artifact and depends only on the profile,
  so the fitted tree is kept under ``perfbench/_work/registry`` and
  reused by later runs in the same checkout;
- a trace corpus recorded from the simulator backend with the
  workload seed, through ``create_backend(..., record_path=...)``;
- the oracle: offline ``MLRDiscriminator.predict`` labels for every
  recorded shot, per served artifact.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.backends import create_backend, load_corpus
from repro.backends.corpus import RecordedCorpus
from repro.config import get_profile
from repro.data.basis import digits_to_state
from repro.data.dataset import ReadoutCorpus
from repro.physics.device import (
    ChipConfig,
    default_five_qubit_chip,
    multi_feedline_chips,
)
from repro.pipeline.registry import CalibrationRegistry
from repro.pipeline.runner import DEFAULT_DEVICE, fit_or_load_discriminator

#: Calibration profile every served artifact is fitted on.
PROFILE = "quick"

#: Shots in the recorded corpus: one closed-loop run serves all of them.
CORPUS_SHOTS = 4096

#: Chunk size the corpus is recorded (and replayed) with.
RECORD_CHUNK = 256

#: Feedlines of the cluster workload.
CLUSTER_FEEDLINES = 2

WORK_ROOT = Path(__file__).resolve().parent / "_work"


def served_chips() -> dict[str, ChipConfig]:
    """Registry device name -> chip, for every artifact a workload serves."""
    chips = {DEFAULT_DEVICE: default_five_qubit_chip()}
    for index, chip in enumerate(multi_feedline_chips(CLUSTER_FEEDLINES)):
        chips[f"feedline-{index}"] = chip
    return chips


def prefit_registry(root: Path) -> dict:
    """Fit (or load) every served artifact into ``root``; device -> model."""
    profile = get_profile(PROFILE)
    registry = CalibrationRegistry(root)
    return {
        device: fit_or_load_discriminator(
            profile, registry, chip=chip, device=device
        )[0]
        for device, chip in served_chips().items()
    }


def record_corpus(path: Path, seed: int, n_shots: int = CORPUS_SHOTS):
    """Record ``n_shots`` of simulator traffic for the default chip."""
    backend = create_backend(
        "simulator",
        default_five_qubit_chip(),
        chunk_size=RECORD_CHUNK,
        record_path=str(path),
    )
    with backend.open():
        for _ in backend.acquire(n_shots, seed=seed):
            pass
    return load_corpus(path)


def as_readout_corpus(corpus: RecordedCorpus, chip: ChipConfig) -> ReadoutCorpus:
    """Wrap a recorded corpus's arrays for offline ``predict``.

    ``chip`` is the serving chip: a feedline sibling demodulates the
    broadcast traces with its own tones, so its oracle must too. The
    initial/final levels are not recorded; the prepared levels stand in
    for them (offline ``predict`` reads neither).
    """
    levels = corpus.prepared_levels
    return ReadoutCorpus(
        feedline=corpus.feedline,
        labels=digits_to_state(levels.astype(np.int64), chip.n_levels),
        prepared_levels=levels,
        initial_levels=levels,
        final_levels=levels,
        chip=chip,
    )


@dataclass
class Inputs:
    """Everything a workload needs, generated from one seed."""

    corpus_path: Path
    corpus: RecordedCorpus
    #: Device -> offline joint label per corpus shot.
    oracle: dict[str, np.ndarray]
    #: Registry root holding every pre-fitted artifact.
    registry: Path
    #: Scratch directory of this run (registry copies live here).
    work: Path

    def oracle_counts(self, device: str, n_levels: int, n_qubits: int):
        """Oracle assignment counts over the whole corpus."""
        return np.bincount(
            self.oracle[device], minlength=n_levels**n_qubits
        )

    def fresh_registry(self, tag: str) -> Path:
        """A private copy of the fitted tree.

        Every timed set-up gets its own registry root, so each one loads
        its artifacts from disk instead of hitting the registry's
        process-local memo of an earlier load.
        """
        dest = self.work / f"registry-{tag}"
        shutil.copytree(
            self.registry, dest, ignore=shutil.ignore_patterns("*.lock", "*.tmp")
        )
        return dest


def prepare(seed: int, work: Path, devices) -> Inputs:
    """Build the inputs of one run under ``work``."""
    registry = WORK_ROOT / "registry"
    models = prefit_registry(registry)
    corpus_path = work / "corpus"
    corpus = record_corpus(corpus_path, seed)
    chips = served_chips()
    oracle = {
        device: models[device].predict(as_readout_corpus(corpus, chips[device]))
        for device in devices
    }
    return Inputs(
        corpus_path=corpus_path,
        corpus=corpus,
        oracle=oracle,
        registry=registry,
        work=work,
    )
