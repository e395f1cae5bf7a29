"""Qutrit-assisted Toffoli decomposition.

The paper motivates multi-level readout partly through qudit algorithms,
citing efficient Toffoli decompositions that borrow the |2> level
(Gokhale et al. / Litteken et al., ISCA'23). The classic construction
implements a doubly-controlled X on three transmons with only **three
two-qutrit gates** (vs six CNOTs for the textbook qubit-only circuit):

1. ``X12`` on the *second* control, conditioned on the first control
   being |1> — temporarily hides the (1,1) control pattern in |2>;
2. ``X01`` on the target, conditioned on the second control being |2> —
   fires exactly for the original (1,1) pattern;
3. the inverse of step 1 (``X12`` is self-inverse), restoring the second
   control.

Because the intermediate state leaves the computational subspace, any
mid-circuit measurement needs three-level readout — the paper's point.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qudit.circuit import QuditCircuit

__all__ = [
    "controlled_shift",
    "qutrit_toffoli_circuit",
    "toffoli_truth_table",
    "two_qutrit_gate_count",
]


def controlled_shift(
    control_level: int, target_gate: np.ndarray, d: int = 3
) -> np.ndarray:
    """Two-qutrit unitary applying ``target_gate`` iff the control is at
    ``control_level`` (identity otherwise)."""
    if not 0 <= control_level < d:
        raise ConfigurationError(f"control_level must be in [0, {d})")
    if target_gate.shape != (d, d):
        raise ConfigurationError(f"target gate must be ({d}, {d})")
    dim = d * d
    gate = np.eye(dim, dtype=complex)
    start = control_level * d
    gate[start : start + d, start : start + d] = target_gate
    return gate


def qutrit_toffoli_circuit() -> QuditCircuit:
    """Three-qutrit circuit implementing Toffoli with 3 two-qutrit gates.

    Qudit order: (control A, control B, target).
    """
    from repro.qudit.gates import x01, x12

    circuit = QuditCircuit(3)
    # Step 1: if A == 1, swap B's |1> and |2>: B reaches |2> exactly when
    # the original control pattern was (1, 1); B in |0> is untouched.
    circuit.unitary(controlled_shift(1, x12()), (0, 1), "c1-x12")
    # Step 2: flip the target iff B is in |2> — true exactly when the
    # original pattern was (1, 1).
    circuit.unitary(controlled_shift(2, x01()), (1, 2), "c2-x01")
    # Step 3: undo step 1 (X12 is self-inverse).
    circuit.unitary(controlled_shift(1, x12()), (0, 1), "c1-x12")
    return circuit


def two_qutrit_gate_count(circuit: QuditCircuit) -> int:
    """Number of two-qudit operations in a circuit."""
    return sum(1 for op in circuit.operations if len(op.targets) == 2)


def toffoli_truth_table() -> dict[tuple[int, int, int], tuple[int, int, int]]:
    """Evaluate the qutrit Toffoli on all computational basis inputs.

    Returns a mapping from (A, B, target) inputs to the most likely
    measured output levels.
    """
    circuit = qutrit_toffoli_circuit()
    table = {}
    for a in (0, 1):
        for b in (0, 1):
            for t in (0, 1):
                rho = circuit.run((a, b, t))
                probs = rho.probabilities()
                winner = int(np.argmax(probs))
                digits = []
                rem = winner
                for _ in range(3):
                    digits.append(rem % 3)
                    rem //= 3
                table[(a, b, t)] = tuple(reversed(digits))
    return table
