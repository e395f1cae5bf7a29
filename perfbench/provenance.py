"""Machine fingerprint written into every result record.

The BLAS thread variables are recorded exactly as found and never set
or cleared: on a two-CPU box the process cluster's rate roughly doubles
with ``OPENBLAS_NUM_THREADS=1``, so they are part of what is measured.
"""

from __future__ import annotations

import datetime
import os
import platform
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": None, "version": None}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout at ``root``, read from ``.git``; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def fingerprint(root: Path) -> dict:
    """CPU count, interpreter, numpy and BLAS build, thread env, git SHA."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cpus = os.cpu_count()
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_sha": git_sha(root),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
