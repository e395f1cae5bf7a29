"""ERASER leakage speculation (MICRO'23) and its multi-level extension.

ERASER watches stabilizer measurements: a leaked qubit randomizes its
adjacent stabilizers, so a data qubit whose neighboring syndromes are
persistently active over a short window is speculated to be leaked and
receives an LRC. ERASER+M additionally consumes *multi-level* ancilla
readout: an ancilla read as |2> is direct evidence of leakage on the
ancilla and of transport from its data neighbors, sharpening speculation
exactly as the paper's Table I / Table VI report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import check_random_state
from repro.exceptions import ConfigurationError
from repro.qec.leakage_sim import LeakageParams, LeakageSimulator
from repro.qec.lrc import LRCModel
from repro.qec.surface_code import RotatedSurfaceCode

__all__ = [
    "EraserConfig",
    "SpeculationReport",
    "run_eraser",
    "LevelStreamSpeculator",
]


@dataclass(frozen=True)
class EraserConfig:
    """Policy knobs for ERASER speculation.

    Parameters
    ----------
    window:
        Number of recent cycles of syndrome activity to accumulate.
    activity_threshold:
        Minimum active (flipped-neighborhood) cycles within the window to
        speculate a data qubit leaked.
    multi_level:
        Enable ERASER+M: consume the ancilla multi-level readout stream.
        Stabilizer bits of ancillas read as |2> are excluded from the
        activity signal (they are garbage), flagged ancillas receive a
        targeted LRC immediately, and repeated adjacent-|2> evidence
        (leakage transport) triggers data-qubit speculation directly.
    direct_evidence_cycles:
        Window cycles with adjacent ancilla-|2> readouts required for the
        direct-evidence path of ERASER+M.
    """

    window: int = 3
    activity_threshold: int = 2
    multi_level: bool = False
    direct_evidence_cycles: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError("window must be >= 1")
        if self.activity_threshold < 1:
            raise ConfigurationError("activity_threshold must be >= 1")
        if self.direct_evidence_cycles < 1:
            raise ConfigurationError("direct_evidence_cycles must be >= 1")
        # A window holds at most ``window`` cycles of evidence, so a larger
        # threshold is a policy that can never fire.
        if self.activity_threshold > self.window:
            raise ConfigurationError(
                f"activity_threshold ({self.activity_threshold}) must be <= "
                f"window ({self.window})"
            )
        if self.direct_evidence_cycles > self.window:
            raise ConfigurationError(
                f"direct_evidence_cycles ({self.direct_evidence_cycles}) must "
                f"be <= window ({self.window})"
            )


@dataclass
class SpeculationReport:
    """Aggregated metrics over all shots of an ERASER run.

    Attributes
    ----------
    accuracy:
        Fraction of (data qubit, cycle) speculation calls that matched the
        ground-truth leakage flag.
    leakage_population:
        Mean fraction of leaked data qubits at the end of each shot.
    true_positive_rate, false_positive_rate:
        Speculation detection quality on the per-qubit-per-cycle calls.
    lrc_applications:
        Mean LRCs applied per shot.
    """

    accuracy: float
    leakage_population: float  # mean leaked-data fraction over all cycles
    true_positive_rate: float
    false_positive_rate: float
    lrc_applications: float
    n_shots: int = 0
    cycles: int = 0

    details: dict = field(default_factory=dict)


def _syndrome_activity(
    code: RotatedSurfaceCode,
    syndrome: np.ndarray,
    prev: np.ndarray,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Per-data-qubit activity bit: did >= 2 adjacent stabilizers flip?

    ``exclude`` marks stabilizers whose outcomes should be ignored —
    ERASER+M discards the bits of ancillas it has just read as leaked.
    """
    flips = (syndrome != prev).astype(np.int8)
    if exclude is not None:
        flips = flips.copy()
        flips[exclude] = 0
    activity = np.zeros(code.n_data, dtype=bool)
    for q in range(code.n_data):
        stabs = code.stabilizers_of_data(q)
        if sum(int(flips[s]) for s in stabs) >= 2:
            activity[q] = True
    return activity


class LevelStreamSpeculator:
    """ERASER+M's direct-evidence path over a *stream* of level readouts.

    The streaming readout runtime delivers per-shot multi-level labels; this
    consumer applies the same windowed policy ERASER+M uses on ancilla
    readouts (see :func:`run_eraser`): a qubit read as |2> accumulates
    direct leakage evidence, and ``direct_evidence_cycles`` hits inside a
    ``window``-cycle history trigger a speculation (an LRC request), which
    clears the qubit's accumulated evidence exactly as an applied LRC does.

    Unlike :func:`run_eraser`, which owns its own leakage simulator, this
    class is driven externally — it is the QEC-side endpoint of the
    ``repro.pipeline`` result sink.
    """

    def __init__(self, n_qubits: int, config: EraserConfig | None = None) -> None:
        if n_qubits < 1:
            raise ConfigurationError("n_qubits must be >= 1")
        self.config = config or EraserConfig(multi_level=True)
        self.n_qubits = n_qubits
        # Per qubit, the absolute cycle numbers of the |2> readouts inside
        # the last ``window`` cycles that no LRC has reset yet (at most
        # ``direct_evidence_cycles - 1`` of them). Only a |2> readout can
        # make a qubit fire, so the consumer walks the hits and costs
        # O(|2> readouts) per batch, not O(shots x qubits).
        self._pending: list[list[int]] = [[] for _ in range(n_qubits)]
        self.shots_seen = 0
        self.flags_per_qubit = np.zeros(n_qubits, dtype=np.int64)
        self.leaked_per_qubit = np.zeros(n_qubits, dtype=np.int64)

    @property
    def total_flags(self) -> int:
        """LRC requests issued so far."""
        return int(self.flags_per_qubit.sum())

    def update(self, levels: np.ndarray) -> np.ndarray:
        """Consume a batch of per-shot levels; returns speculation flags.

        Parameters
        ----------
        levels:
            Integer array (n_shots, n_qubits); each row is one readout
            cycle's multi-level labels.

        Returns
        -------
        Boolean array (n_shots, n_qubits): True where a leakage speculation
        (LRC request) fired on that cycle.
        """
        levels = np.asarray(levels)
        fired_rows, fired_qubits = self._advance(levels)
        flags = np.zeros(levels.shape, dtype=bool)
        if fired_rows:
            flags[fired_rows, fired_qubits] = True
        return flags

    def _advance(self, levels: np.ndarray) -> tuple[list[int], list[int]]:
        """Fold one ``(n_shots, n_qubits)`` level array into the state.

        Returns the ``(rows, qubits)`` where an LRC request fired, in
        the order they fired. :meth:`update` turns them into the
        per-shot flags array; the pipeline's sink, which keeps only the
        counters, calls this directly and builds no flags.
        """
        if levels.ndim != 2 or levels.shape[1] != self.n_qubits:
            raise ConfigurationError(
                f"levels must be (n_shots, {self.n_qubits}), got {levels.shape}"
            )
        window = self.config.window
        needed = self.config.direct_evidence_cycles
        first_cycle = self.shots_seen
        # (qubit, row) of every |2> readout, qubit-major and rows ascending.
        qubits, rows = (levels == 2).T.nonzero()
        fired_qubits: list[int] = []
        fired_rows: list[int] = []
        for q, row in zip(qubits.tolist(), rows.tolist()):
            cycle = first_cycle + row
            pending = self._pending[q]
            while pending and cycle - pending[0] >= window:
                del pending[0]
            pending.append(cycle)
            if len(pending) >= needed:
                # The requested LRC resets the evidence, as in run_eraser.
                pending.clear()
                fired_qubits.append(q)
                fired_rows.append(row)
        if fired_rows:
            self.flags_per_qubit += np.bincount(
                fired_qubits, minlength=self.n_qubits
            )
        self.leaked_per_qubit += np.bincount(qubits, minlength=self.n_qubits)
        self.shots_seen += levels.shape[0]
        return fired_rows, fired_qubits

    def summary(self) -> dict:
        """Aggregate counters for the pipeline report."""
        shots = max(self.shots_seen, 1)
        return {
            "shots_seen": self.shots_seen,
            "lrc_requests": self.total_flags,
            "lrc_rate": self.total_flags / shots,
            "leaked_readout_rate": float(self.leaked_per_qubit.sum())
            / (shots * self.n_qubits),
            "flags_per_qubit": [int(f) for f in self.flags_per_qubit],
        }


def run_eraser(
    code: RotatedSurfaceCode,
    cycles: int = 10,
    shots: int = 200,
    params: LeakageParams | None = None,
    config: EraserConfig | None = None,
    lrc: LRCModel | None = None,
    seed: int | np.random.Generator | None = None,
) -> SpeculationReport:
    """Run ERASER (or ERASER+M) speculation over repeated QEC cycles.

    Per cycle, each data qubit's recent syndrome activity (plus, for
    ERASER+M, adjacent-ancilla |2> readouts) is scored against the policy
    threshold; speculated qubits receive LRCs. Calls are scored against
    the simulator's ground truth to produce the paper's speculation
    accuracy, and the end-of-shot leakage population is averaged.
    """
    if cycles < 1 or shots < 1:
        raise ConfigurationError("cycles and shots must be >= 1")
    params = params or LeakageParams()
    config = config or EraserConfig()
    lrc = lrc or LRCModel()
    rng = check_random_state(seed)

    correct_calls = 0
    total_calls = 0
    true_positives = 0
    positives_truth = 0
    false_positives = 0
    negatives_truth = 0
    total_lrcs = 0
    population_sum = 0.0
    population_samples = 0

    neighbor_map = [code.stabilizers_of_data(q) for q in range(code.n_data)]

    for _ in range(shots):
        sim = LeakageSimulator(code, params, seed=rng)
        activity_history = np.zeros((config.window, code.n_data))
        evidence_history = np.zeros((config.window, code.n_data))
        prev_syndrome = np.zeros(code.n_ancilla, dtype=np.int8)
        for cycle in range(cycles):
            record = sim.run_cycle()
            if config.multi_level:
                leaked_ancillas = record.ancilla_level_readout == 2
                # The |2> readout flags these stabilizer bits as garbage;
                # exclude them from the data-qubit activity signal.
                activity = _syndrome_activity(
                    code, record.syndrome, prev_syndrome, exclude=leaked_ancillas
                ).astype(np.float64)
            else:
                leaked_ancillas = None
                activity = _syndrome_activity(
                    code, record.syndrome, prev_syndrome
                ).astype(np.float64)
            prev_syndrome = record.syndrome
            activity_history = np.roll(activity_history, -1, axis=0)
            activity_history[-1] = activity
            score = activity_history.sum(axis=0)

            if config.multi_level:
                direct = np.array(
                    [
                        any(leaked_ancillas[s] for s in neighbor_map[q])
                        for q in range(code.n_data)
                    ],
                    dtype=np.float64,
                )
                evidence_history = np.roll(evidence_history, -1, axis=0)
                evidence_history[-1] = direct
                evidence = evidence_history.sum(axis=0)
                # Syndrome path on the cleaned activity signal, plus a
                # direct path when transport evidence repeats.
                base = score >= config.activity_threshold
                strong_direct = evidence >= config.direct_evidence_cycles
                speculated = base | strong_direct
                # Targeted LRC on every ancilla read as leaked: the direct
                # benefit of multi-level readout.
                flagged = np.flatnonzero(leaked_ancillas)
                if flagged.size:
                    sim.ancilla_leaked = lrc.apply(
                        sim.ancilla_leaked, flagged, rng
                    )
                    total_lrcs += flagged.size
            else:
                speculated = score >= config.activity_threshold

            truth = record.data_leaked_truth
            correct_calls += int(np.sum(speculated == truth))
            total_calls += code.n_data
            true_positives += int(np.sum(speculated & truth))
            positives_truth += int(np.sum(truth))
            false_positives += int(np.sum(speculated & ~truth))
            negatives_truth += int(np.sum(~truth))

            targets = np.flatnonzero(speculated)
            if targets.size:
                sim.data_leaked = lrc.apply(sim.data_leaked, targets, rng)
                total_lrcs += targets.size
                # An applied LRC clears the accumulated evidence.
                activity_history[:, targets] = 0.0
                evidence_history[:, targets] = 0.0
            population_sum += sim.leakage_population
            population_samples += 1

    return SpeculationReport(
        accuracy=correct_calls / total_calls,
        leakage_population=population_sum / population_samples,
        true_positive_rate=(
            true_positives / positives_truth if positives_truth else 0.0
        ),
        false_positive_rate=(
            false_positives / negatives_truth if negatives_truth else 0.0
        ),
        lrc_applications=total_lrcs / shots,
        n_shots=shots,
        cycles=cycles,
    )
