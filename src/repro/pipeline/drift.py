"""Online drift detection for streaming discrimination.

A warm serving session never refits — which is only safe while the
device still looks like it did at calibration time. :class:`DriftMonitor`
watches two cheap, label-free signals on every discriminated micro-batch
and turns them into one scalar ``drift_score``:

- **Assignment-distribution shift** — an exponentially weighted moving
  histogram of the joint-state assignments, scored against the
  calibration-time reference distribution stored in the artifact with a
  smoothed symmetric KL divergence over the **per-qubit marginals**. A
  detuned resonator or decayed T1 skews which levels the heads emit
  long before anyone inspects accuracy (which live traffic has no
  labels for anyway). Marginals, not the joint histogram: the joint
  space grows as ``3^n`` and a finite-sample histogram over hundreds of
  mostly-empty states carries an O((K-1)/2n) sampling-noise divergence
  that would swamp any real signal — per-qubit level distributions keep
  the estimator dense at every qubit count, and a drifting channel
  moves its own marginal first anyway.
- **Score-margin erosion** — the EWMA of the heads' mean top-2
  probability margin relative to the calibration-time margin. Confidence
  collapses first: a drifting channel pushes shots toward the decision
  boundary even while the argmax still lands right.

The monitor is per-feedline state owned by one pipeline run (the
feedline is the unit of calibration, so it is also the unit of drift),
folds each batch's ``bincount`` — the one the run takes for its
assignment counts — into an EWMA blended in place, and never touches
the discrimination path —
detection can never change an assignment. Marginals are one
matvec against a 0/1 projection built once per ``(n_levels,
n_qubits)``, so a run's set-up and summary cost a few numpy calls.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.data.basis import state_to_digits
from repro.exceptions import ConfigurationError

__all__ = ["DriftMonitor"]

#: Laplace smoothing mass added to both distributions before the KL so
#: states the reference never produced cannot blow the divergence up to
#: infinity on a single stray assignment.
_SMOOTHING = 1e-4


@functools.lru_cache(maxsize=16)
def _marginal_projection(n_levels: int, n_qubits: int) -> np.ndarray:
    """0/1 ``(n_levels**n_qubits, n_qubits * n_levels)`` projection.

    Row ``s`` has a one in column ``q * n_levels + d`` for each qubit
    ``q`` whose level in joint state ``s`` is ``d`` (the
    :func:`repro.data.basis.digits_to_state` convention: qubit 0 is the
    most-significant digit), so ``joint_dist @ projection`` lists every
    qubit's marginal. Read-only: one instance serves every monitor.
    """
    states = np.arange(n_levels**n_qubits)
    digits = state_to_digits(states, n_qubits, n_levels)
    projection = np.zeros((states.size, n_qubits * n_levels))
    projection[
        states[:, None], np.arange(n_qubits) * n_levels + digits
    ] = 1.0
    projection.flags.writeable = False
    return projection


class DriftMonitor:
    """Scores streamed assignments against calibration-time references.

    Parameters
    ----------
    reference_assignment:
        Joint-state assignment distribution the discriminator produced
        on its own calibration corpus (sums to 1, size
        ``n_levels ** n_qubits``).
    reference_margin:
        Mean top-2 probability margin at calibration time; ``None``
        disables the margin signal (old artifacts).
    threshold:
        ``drift_score`` at or above which :attr:`alarm` trips.
    alpha:
        EWMA weight of the newest batch, in (0, 1].
    min_shots:
        Shots the monitor must see before it is willing to alarm —
        guards against a single unlucky micro-batch tripping
        recalibration.
    n_levels:
        Levels per qubit (3 throughout the paper); with the reference
        size it fixes the qubit count the marginals are taken over.
    """

    def __init__(
        self,
        reference_assignment: np.ndarray,
        reference_margin: float | None = None,
        threshold: float = 0.1,
        alpha: float = 0.25,
        min_shots: int = 50,
        n_levels: int = 3,
    ) -> None:
        reference = np.asarray(reference_assignment, dtype=np.float64)
        if reference.ndim != 1 or reference.size < 2:
            raise ConfigurationError(
                "reference_assignment must be a 1-D distribution over "
                f"joint states, got shape {reference.shape}"
            )
        total = reference.sum()
        if not np.isfinite(total) or total <= 0 or reference.min() < 0:
            raise ConfigurationError(
                "reference_assignment must be a non-negative distribution"
            )
        if n_levels < 2:
            raise ConfigurationError(
                f"n_levels must be >= 2, got {n_levels}"
            )
        n_qubits = round(math.log(reference.size, n_levels))
        if n_levels**n_qubits != reference.size:
            raise ConfigurationError(
                f"reference size {reference.size} is not a power of "
                f"n_levels={n_levels}"
            )
        if threshold <= 0:
            raise ConfigurationError(
                f"threshold must be positive, got {threshold}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if min_shots < 0:
            raise ConfigurationError(
                f"min_shots must be >= 0, got {min_shots}"
            )
        self.reference = reference / total
        self.n_levels = int(n_levels)
        self.n_qubits = int(n_qubits)
        self._projection = _marginal_projection(self.n_levels, self.n_qubits)
        # The reference side of every divergence, smoothed once.
        self._reference_marginals = self._smoothed(
            self._marginals(self.reference)
        )
        self.reference_margin = (
            None if reference_margin is None else float(reference_margin)
        )
        self.threshold = float(threshold)
        self.alpha = float(alpha)
        self.min_shots = int(min_shots)
        self._ewma_dist: np.ndarray | None = None
        # Scratch for each batch's normalized histogram.
        self._batch_dist = np.empty_like(self.reference)
        self._ewma_margin: float | None = None
        self._n_shots = 0
        self._n_batches = 0

    @property
    def n_shots(self) -> int:
        """Shots observed so far."""
        return self._n_shots

    def observe(
        self,
        joint: np.ndarray,
        mean_margin: float | None = None,
        *,
        counts: np.ndarray | None = None,
    ) -> None:
        """Fold one discriminated micro-batch into the monitor state.

        ``counts`` is the batch's ``bincount`` over the reference's
        joint states when the caller already took it (a pipeline run
        does, for its assignment counts); otherwise it is taken from
        ``joint`` here. The EWMA blends in place,
        ``e *= 1 - alpha; e += alpha * p``: the same IEEE sums as
        ``alpha * p + (1 - alpha) * e``, so the state is bit-identical
        to blending fresh arrays.
        """
        if counts is None:
            joint = np.asarray(joint)
            if joint.size == 0:
                return
            counts = np.bincount(joint.ravel(), minlength=self.reference.size)
        if counts.size != self.reference.size:
            raise ConfigurationError(
                f"joint labels exceed the reference's {self.reference.size} "
                "states"
            )
        n_shots = int(counts.sum())
        if n_shots == 0:
            return
        if self._ewma_dist is None:
            self._ewma_dist = counts / n_shots
        else:
            batch = np.divide(counts, n_shots, out=self._batch_dist)
            batch *= self.alpha
            self._ewma_dist *= 1.0 - self.alpha
            self._ewma_dist += batch
        if mean_margin is not None and np.isfinite(mean_margin):
            if self._ewma_margin is None:
                self._ewma_margin = float(mean_margin)
            else:
                self._ewma_margin = (
                    self.alpha * float(mean_margin)
                    + (1.0 - self.alpha) * self._ewma_margin
                )
        self._n_shots += n_shots
        self._n_batches += 1

    def _marginals(self, joint_dist: np.ndarray) -> np.ndarray:
        """Per-qubit level distributions, (n_qubits, n_levels).

        Joint labels follow the :func:`repro.data.basis.digits_to_state`
        convention (qubit 0 is the most-significant digit).
        """
        return (joint_dist @ self._projection).reshape(
            self.n_qubits, self.n_levels
        )

    @staticmethod
    def _smoothed(marginals: np.ndarray) -> np.ndarray:
        """Laplace-smoothed, renormalized level distributions (rows)."""
        marginals = marginals + _SMOOTHING
        return marginals / marginals.sum(axis=1, keepdims=True)

    def _divergence(self) -> float:
        """Smoothed symmetric KL vs the reference, worst qubit marginal.

        Marginals keep the estimator dense (``n_levels`` bins per qubit
        instead of ``n_levels**n_qubits`` joint states), so the
        finite-sample divergence floor stays negligible at any qubit
        count; the max over qubits keeps one drifting channel visible
        on a wide device.
        """
        if self._ewma_dist is None:
            return 0.0
        p = self._smoothed(self._marginals(self._ewma_dist))
        q = self._reference_marginals
        # KL(p||q) + KL(q||p) = sum (p - q) log(p / q), per qubit.
        symmetric = 0.5 * ((p - q) * np.log(p / q)).sum(axis=1)
        return float(symmetric.max())

    def _margin_erosion(self) -> float:
        """Fractional loss of head confidence vs calibration time."""
        if (
            self._ewma_margin is None
            or self.reference_margin is None
            or self.reference_margin <= 0
        ):
            return 0.0
        return max(0.0, 1.0 - self._ewma_margin / self.reference_margin)

    @property
    def drift_score(self) -> float:
        """Scalar drift evidence: the stronger of the two signals.

        Zero on a stationary device, growing with detuning/decay; both
        components are dimensionless, so one threshold covers both
        failure modes.
        """
        return max(self._divergence(), self._margin_erosion())

    @property
    def alarm(self) -> bool:
        """Whether the score crossed the threshold with enough evidence."""
        return self._alarm(self.drift_score)

    def _alarm(self, score: float) -> bool:
        return self._n_shots >= self.min_shots and score >= self.threshold

    def summary(self) -> dict:
        """JSON-able digest for reports.

        Evaluates each signal once; the score and the alarm are derived
        from those values, as :attr:`drift_score` and :attr:`alarm` do.
        """
        divergence = self._divergence()
        erosion = self._margin_erosion()
        score = max(divergence, erosion)
        return {
            "drift_score": score,
            "assignment_divergence": divergence,
            "margin_erosion": erosion,  # repro: allow(json-finite) clamped to [0, 1] by construction
            "threshold": self.threshold,
            "n_shots": self._n_shots,
            "n_batches": self._n_batches,
            "alarm": self._alarm(score),
        }
