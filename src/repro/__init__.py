"""Multi-level superconducting qubit readout — DAC 2025 reproduction.

This package reproduces "Efficient and Scalable Architectures for Multi-level
Superconducting Qubit Readout" (Mude, Maurya, Lienhard, Tannu; DAC 2025).

Layout
------
``repro.physics``
    Dispersive-readout simulator: state-dependent resonator dynamics,
    relaxation/excitation jumps, multiplexing, crosstalk, ADC.
``repro.data``
    Basis-state bookkeeping and synthetic readout corpora.
``repro.dsp``
    Demodulation, filtering, mean-trace values, matched filters.
``repro.ml``
    From-scratch numpy ML: feedforward networks, LDA/QDA, k-means,
    spectral clustering, fidelity metrics.
``repro.discriminators``
    The paper's discriminator (matched filters + modular per-qubit NN) and
    the FNN / HERQULES baselines, plus calibration-free leakage detection.
``repro.fpga``
    Analytic FPGA resource / latency / power models.
``repro.qudit``
    Qutrit density-matrix simulator used for the CNOT-leakage study.
``repro.qec``
    Surface-code leakage dynamics, ERASER/ERASER+M speculation, and the
    QEC cycle-time model.
``repro.pipeline``
    Streaming readout runtime: trace sources, micro-batched fused
    matched-filter/NN stages (demod folded into the kernels), a calibration
    registry serving fitted artifacts by (device, qubit, profile),
    an inline ERASER+M sink for QEC leakage speculation, and per-stage
    latency/throughput instrumentation against the FPGA cycle budget.
``repro.experiments``
    One runner per paper table/figure, with quick/full/paper profiles.
"""

from repro.config import FULL, PAPER, QUICK, Profile, get_profile
from repro.version import __version__

__all__ = [
    "__version__",
    "Profile",
    "QUICK",
    "FULL",
    "PAPER",
    "get_profile",
]
