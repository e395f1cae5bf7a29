"""Serving benchmark for the streaming readout stack.

Run from the repository root::

    python3 perfbench/run.py --workload replay-b256 --seed 1 --seconds 10 --trace 0

See ``perfbench/run.py`` for the workloads and metrics, and
``perfbench/selftest.py`` for the harness self-tests.
"""
