"""A small gate-list circuit container for qudit experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.qudit.channels import leaky_cnot_kraus
from repro.qudit.density import DensityMatrix
from repro.qudit.gates import cnot_embedded, hadamard_embedded, x01, x12

__all__ = ["QuditCircuit"]


@dataclass
class _Operation:
    kind: str  # "unitary" | "kraus"
    payload: object
    targets: tuple[int, ...]
    label: str


@dataclass
class QuditCircuit:
    """An ordered list of unitaries and channels on ``n_qudits`` qutrits.

    Build with the fluent helpers, then :meth:`run` on an initial product
    state. Example — the paper's repeated-CNOT leakage experiment::

        circuit = QuditCircuit(2)
        for _ in range(12):
            circuit.leaky_cnot(0, 1)
        rho = circuit.run(initial_levels=(2, 0))
        rho.leakage_population(1)
    """

    n_qudits: int
    d: int = 3
    operations: list[_Operation] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_qudits < 1:
            raise ConfigurationError("n_qudits must be >= 1")

    def _check_targets(self, targets: tuple[int, ...]) -> None:
        for t in targets:
            if not 0 <= t < self.n_qudits:
                raise ConfigurationError(
                    f"target {t} out of range [0, {self.n_qudits})"
                )

    def unitary(
        self, gate: np.ndarray, targets: tuple[int, ...], label: str = "U"
    ) -> "QuditCircuit":
        """Append an arbitrary unitary on ``targets``."""
        self._check_targets(targets)
        self.operations.append(_Operation("unitary", gate, targets, label))
        return self

    def kraus(
        self,
        operators: list[np.ndarray],
        targets: tuple[int, ...],
        label: str = "channel",
    ) -> "QuditCircuit":
        """Append a Kraus channel on ``targets``."""
        self._check_targets(targets)
        self.operations.append(_Operation("kraus", operators, targets, label))
        return self

    def x01(self, qudit: int) -> "QuditCircuit":
        """Pi pulse on the 0-1 transition."""
        return self.unitary(x01(self.d), (qudit,), "x01")

    def x12(self, qudit: int) -> "QuditCircuit":
        """Pi pulse on the 1-2 transition (prepares |2> from |1>)."""
        return self.unitary(x12(self.d), (qudit,), "x12")

    def h(self, qudit: int) -> "QuditCircuit":
        """Embedded Hadamard."""
        return self.unitary(hadamard_embedded(self.d), (qudit,), "h")

    def cnot(self, control: int, target: int) -> "QuditCircuit":
        """Ideal embedded CNOT."""
        return self.unitary(cnot_embedded(self.d), (control, target), "cnot")

    def leaky_cnot(
        self,
        control: int,
        target: int,
        p_flip: float = 0.05,
        p_transfer: float = 0.0175,
        p_leak: float = 0.011,
    ) -> "QuditCircuit":
        """CNOT with the leakage-faulty behavior of Sec III.A."""
        return self.kraus(
            leaky_cnot_kraus(p_flip, p_transfer, p_leak, self.d),
            (control, target),
            "leaky_cnot",
        )

    @property
    def depth(self) -> int:
        """Number of appended operations."""
        return len(self.operations)

    def run(
        self, initial_levels: tuple[int, ...] | list[int] | None = None
    ) -> DensityMatrix:
        """Execute on a fresh product state and return the final state."""
        levels = (
            [0] * self.n_qudits if initial_levels is None else list(initial_levels)
        )
        if len(levels) != self.n_qudits:
            raise ConfigurationError(
                f"initial_levels must have {self.n_qudits} entries"
            )
        state = DensityMatrix.from_levels(levels, self.d)
        for op in self.operations:
            if op.kind == "unitary":
                state.apply_unitary(op.payload, op.targets)
            else:
                state.apply_kraus(op.payload, op.targets)
        return state
