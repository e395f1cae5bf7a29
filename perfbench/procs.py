"""Keep every process a benchmark run starts inside it, and end them all.

A ``cluster2-process`` run starts process shards, and each shard that
attaches a shared-memory segment starts its own multiprocessing resource
tracker. A shard's tracker outlives the shard, and the parent's tracker
outlives the parent, so without care a run leaves processes behind.

:func:`contained` makes the benchmark the child subreaper of everything
it starts (Linux ``PR_SET_CHILD_SUBREAPER``): an orphaned grandchild is
re-parented to the benchmark instead of to init. On every way out it
stops the parent's resource tracker, waits for every child to end, and
kills and reaps whatever is still there after a grace period.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import time
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36

#: How long children get to end on their own before they are killed.
GRACE_S = 10.0


def become_subreaper() -> bool:
    """Adopt orphaned descendants; False where the kernel has no such call."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> list[int]:
    """PIDs of this process's live or unreaped children, from ``/proc``."""
    me = os.getpid()
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        # The command name may hold spaces and parentheses; the parent
        # PID is the second field after its closing parenthesis.
        fields = text[text.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(stat.parent.name))
    return pids


def stop_resource_tracker() -> None:
    """Let this process's resource tracker, if it started one, end.

    The tracker runs until its pipe is closed, which otherwise happens
    only when this process exits. Closing it here lets the tracker end
    while it is still a child that :func:`end_children` reaps (or kills,
    should a stray copy of the pipe keep it alive).
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    if fd is None:
        return
    with contextlib.suppress(OSError):
        os.close(fd)
    tracker._fd = None
    tracker._pid = None


def _reap_until(deadline: float) -> bool:
    """Reap children as they end; True once none is left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid:
            continue
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def end_children(grace_s: float = GRACE_S) -> None:
    """Wait for every child to end; kill and reap those that do not."""
    if _reap_until(time.monotonic() + grace_s):
        return
    # Killing a child re-parents its own children to this process, so
    # repeat until nothing is left.
    for _ in range(100):
        pids = children()
        if not pids:
            break
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        _reap_until(time.monotonic() + 1.0)
    _reap_until(time.monotonic())


@contextlib.contextmanager
def contained(grace_s: float = GRACE_S):
    """Run the body as subreaper; stop and reap every child afterwards."""
    become_subreaper()
    try:
        yield
    finally:
        stop_resource_tracker()
        end_children(grace_s)
