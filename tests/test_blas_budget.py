"""Per-shard OpenBLAS thread budget of the process shard executor."""

import os

import numpy as np
import pytest

from repro.pipeline.blas import limit_openblas_threads, openblas_controls
from repro.pipeline.cluster import ProcessShardExecutor, available_cpus

CONTROLS = openblas_controls()
needs_openblas = pytest.mark.skipif(
    CONTROLS is None, reason="numpy is not linked against a loaded OpenBLAS"
)


def _threads_after_gemm(state, index: int) -> tuple[int, int]:
    """Worker task: (OpenBLAS thread count, OS threads after a GEMM)."""
    a = np.full((256, 256), float(index + 1))
    a @ a
    return openblas_controls().get_threads(), len(os.listdir("/proc/self/task"))


@pytest.fixture
def restore_blas_threads():
    before = CONTROLS.get_threads()
    yield
    CONTROLS.set_threads(before)


@needs_openblas
def test_process_shards_get_their_cpu_share(restore_blas_threads):
    # Start from the full count so earlier pools in this session do not
    # decide the outcome.
    CONTROLS.set_threads(available_cpus())
    share = max(1, available_cpus() // 2)
    executor = ProcessShardExecutor(2)
    try:
        results = executor.map(_threads_after_gemm, [(0, 0), (1, 1)])
    finally:
        executor.close()
    for blas_threads, os_threads in results:
        assert blas_threads == share
        if share == 1:
            # No OpenBLAS helper thread: the worker's main thread only.
            assert os_threads == 1
        else:
            assert os_threads <= share
    # The creating process keeps the lowered count.
    assert CONTROLS.get_threads() == share


@needs_openblas
def test_limit_only_ever_lowers(restore_blas_threads):
    CONTROLS.set_threads(1)
    assert limit_openblas_threads(available_cpus() + 4) == 1
    CONTROLS.set_threads(2)
    assert limit_openblas_threads(1) == 1


def test_no_openblas_mapped_is_a_no_op(tmp_path):
    maps = tmp_path / "maps"
    maps.write_text(
        "7f0000000000-7f0000001000 r-xp 00000000 08:01 42 /usr/lib/libm.so.6\n"
        "7f0000002000-7f0000003000 rw-p 00000000 00:00 0\n"
    )
    before = CONTROLS.get_threads() if CONTROLS is not None else None
    assert openblas_controls(str(maps)) is None
    assert limit_openblas_threads(1, str(maps)) is None
    assert openblas_controls(str(tmp_path / "missing")) is None
    if CONTROLS is not None:
        assert CONTROLS.get_threads() == before
