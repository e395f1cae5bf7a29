"""OpenBLAS thread budget for process shards.

A process shard's GEMMs are small (one serving batch at a time), yet
OpenBLAS starts a helper thread per CPU for them, and after each call
those helpers busy-wait for more work. Two shards with one helper each
on a two-CPU box spend their time spinning against each other's compute.
:class:`~repro.pipeline.cluster.ProcessShardExecutor` therefore lowers
the creating process's OpenBLAS thread count to its per-shard share
before it forks its shard workers. Forked workers inherit the count;
with a share of one they never start a spinning helper.

The library numpy already loaded is found through ``/proc/self/maps``
and driven with stdlib ``ctypes``, so no extra dependency is needed.
Where no OpenBLAS is mapped (another BLAS, or no ``/proc``), every
function here is a no-op.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, NamedTuple

__all__ = [
    "BlasThreadControls",
    "openblas_controls",
    "limit_openblas_threads",
]

#: (setter, getter) symbol pairs: numpy's ``scipy-openblas`` wheel build
#: (ILP64, renamed symbols) first, then a plain system OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class BlasThreadControls(NamedTuple):
    """Thread-count entry points of one loaded OpenBLAS library."""

    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]


def _mapped_libraries(maps_path: str) -> list[str]:
    """Paths of the mapped files whose name mentions OpenBLAS, in order."""
    try:
        with open(maps_path) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths: list[str] = []
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in os.path.basename(path).lower() and path not in paths:
            paths.append(path)
    return paths


#: Successful lookups by maps path. Generating ``/proc/self/maps`` costs
#: milliseconds, and a loaded library never moves (forked children share
#: the parent's mapping), so each process searches at most once.
_FOUND: dict[str, BlasThreadControls] = {}


def openblas_controls(
    maps_path: str = "/proc/self/maps",
) -> BlasThreadControls | None:
    """The thread controls of the OpenBLAS mapped into this process.

    Returns ``None`` when no mapped library exports a known setter and
    getter pair.
    """
    if maps_path in _FOUND:
        return _FOUND[maps_path]
    for path in _mapped_libraries(maps_path):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            _FOUND[maps_path] = BlasThreadControls(setter, getter)
            return _FOUND[maps_path]
    return None


def limit_openblas_threads(
    limit: int, maps_path: str = "/proc/self/maps"
) -> int | None:
    """Lower this process's OpenBLAS thread count to at most ``limit``.

    Never raises the count. Returns the count in force afterwards, or
    ``None`` when no OpenBLAS is loaded (nothing is changed).
    """
    controls = openblas_controls(maps_path)
    if controls is None:
        return None
    limit = max(1, int(limit))
    if controls.get_threads() > limit:
        controls.set_threads(limit)
    return controls.get_threads()
