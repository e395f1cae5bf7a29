"""Runtime lock-order detection for the serving stack.

The calibration→serve hand-off holds several locks with nesting — the
registry's per-key fit locks and their guard, the flock
``.npz.lock`` sidecar, and each serving session's recalibration gate. A
consistent global acquisition order is what makes that deadlock-free,
and this module machine-checks it at runtime:

- :func:`trace_lock` is the factory the lock-using modules call instead
  of ``threading.Lock()``/``RLock()``. With the ``REPRO_LOCK_DEBUG``
  environment flag unset it returns a plain lock (zero overhead); set,
  it returns a :class:`TracedLock` that reports every acquire/release to
  the process-wide :data:`GLOBAL_GRAPH`.
- :class:`LockGraph` records, per thread, which locks were *held* when
  each lock was acquired — the lock-acquisition graph. An edge
  ``A -> B`` means "B was acquired while holding A" and carries a
  witness (thread, held chain, call site).
- :meth:`LockGraph.violations` finds cycles in that graph — including
  the two-node ``A -> B`` / ``B -> A`` acquire-while-holding inversion —
  and returns them with the witness trace of every edge on the cycle.
  A cycle is a *potential* deadlock: two threads interleaving those
  acquisition orders can block forever even if this run did not.

The advisory flock sidecar around cold calibration fits participates as
a graph node too (:func:`note_flock_acquire`/:func:`note_flock_release`
are called by :mod:`repro.pipeline.registry`), so an inversion between
an in-process lock and the cross-process file lock is just as visible.

Arming the tier-1 suite::

    REPRO_LOCK_DEBUG=1 python -m pytest -x -q

(the pytest hook in ``tests/conftest.py`` fails the session when the
global graph ends up cyclic). Tests that *seed* inversions build a
private :class:`LockGraph` so the global one stays clean.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ENV_FLAG",
    "enabled",
    "LockEdge",
    "LockOrderViolation",
    "LockOrderError",
    "LockGraph",
    "TracedLock",
    "trace_lock",
    "note_flock_acquire",
    "note_flock_release",
    "GLOBAL_GRAPH",
]

#: Environment flag arming the detector (any value but ''/'0'/'false').
ENV_FLAG = "REPRO_LOCK_DEBUG"


def enabled() -> bool:
    """Whether the lock-order detector is armed for this process."""
    return os.environ.get(ENV_FLAG, "").strip().lower() not in (
        "", "0", "false", "off",
    )


def _call_site() -> str:
    """``file.py:line`` of the nearest caller outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - the stack always has a caller
        return "<unknown>"
    return f"{Path(frame.f_code.co_filename).name}:{frame.f_lineno}"


@dataclass(frozen=True)
class LockEdge:
    """Witness that ``target`` was acquired while ``source`` was held."""

    source: str
    target: str
    thread: str
    held: tuple[str, ...]
    site: str

    def format(self) -> str:
        chain = " -> ".join(self.held)
        return (
            f"{self.source} -> {self.target}  [thread {self.thread} at "
            f"{self.site}, holding: {chain}]"
        )


@dataclass(frozen=True)
class LockOrderViolation:
    """One cycle in the acquisition graph, with per-edge witnesses."""

    cycle: tuple[str, ...]
    witnesses: tuple[LockEdge, ...]

    def format(self) -> str:
        arrows = " -> ".join(self.cycle + (self.cycle[0],))
        lines = [f"lock-order cycle: {arrows}"]
        for edge in self.witnesses:
            lines.append(f"  witness: {edge.format()}")
        return "\n".join(lines)


class LockOrderError(RuntimeError):
    """Raised by :meth:`LockGraph.check` when the graph is cyclic."""

    def __init__(self, violations: "list[LockOrderViolation]") -> None:
        self.violations = tuple(violations)
        super().__init__(
            "\n".join(violation.format() for violation in violations)
        )


class LockGraph:
    """Per-thread held-lock tracking plus the global acquisition graph."""

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._edges: dict[tuple[str, str], LockEdge] = {}
        self._local = threading.local()

    # -- recording -----------------------------------------------------

    def _held(self) -> list[str]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def note_acquire(self, name: str, site: str | None = None) -> None:
        """Record that the current thread acquired ``name``."""
        held = self._held()
        if name not in held and held:
            # First witness per (source, target) edge wins — the graph
            # cares about the order's existence, not its frequency.
            edge_site = site if site is not None else _call_site()
            thread = threading.current_thread().name
            chain = tuple(held)
            with self._guard:
                for source in held:
                    self._edges.setdefault(
                        (source, name),
                        LockEdge(
                            source=source,
                            target=name,
                            thread=thread,
                            held=chain,
                            site=edge_site,
                        ),
                    )
        # RLock re-entries still push, so releases balance symmetrically
        # (a re-entry adds no edge: name is already in the held list).
        held.append(name)

    def note_release(self, name: str) -> None:
        """Record that the current thread released ``name``."""
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index] == name:
                del held[index]
                return

    def held_by_current_thread(self) -> tuple[str, ...]:
        return tuple(self._held())

    # -- analysis ------------------------------------------------------

    def edges(self) -> dict[tuple[str, str], LockEdge]:
        with self._guard:
            return dict(self._edges)

    def clear(self) -> None:
        with self._guard:
            self._edges.clear()

    def violations(self) -> list[LockOrderViolation]:
        """Every distinct cycle in the acquisition graph, with witnesses.

        A two-node cycle is the classic ``A -> B`` / ``B -> A``
        inversion; longer cycles are transitive deadlock potential.
        Cycles are canonicalized (rotated to their lexicographically
        smallest node) so each is reported once.
        """
        edges = self.edges()
        adjacency: dict[str, list[str]] = {}
        for source, target in edges:
            adjacency.setdefault(source, []).append(target)

        seen: set[tuple[str, ...]] = set()
        violations: list[LockOrderViolation] = []
        for start, target in sorted(edges):
            # The edge closes a cycle iff target reaches start.
            path = self._find_path(adjacency, target, start)
            if path is None:
                continue
            # path is [target, ..., start]; prepend start and drop its
            # duplicate at the end to walk the cycle once.
            cycle = tuple([start] + path[:-1])
            canonical = self._canonicalize(cycle)
            if canonical in seen:
                continue
            seen.add(canonical)
            witnesses = tuple(
                edges[pair]
                for pair in zip(canonical, canonical[1:] + canonical[:1])
                if pair in edges
            )
            violations.append(
                LockOrderViolation(cycle=canonical, witnesses=witnesses)
            )
        return violations

    def check(self) -> None:
        """Raise :class:`LockOrderError` if the graph holds any cycle."""
        violations = self.violations()
        if violations:
            raise LockOrderError(violations)

    @staticmethod
    def _find_path(
        adjacency: dict[str, list[str]], start: str, goal: str
    ) -> "list[str] | None":
        """Shortest node path from ``start`` to ``goal`` (BFS), or None."""
        if start == goal:
            return [start]
        queue = [[start]]
        visited = {start}
        while queue:
            path = queue.pop(0)
            for neighbor in adjacency.get(path[-1], ()):
                if neighbor == goal:
                    return path + [neighbor]
                if neighbor not in visited:
                    visited.add(neighbor)
                    queue.append(path + [neighbor])
        return None

    @staticmethod
    def _canonicalize(cycle: tuple[str, ...]) -> tuple[str, ...]:
        """Rotate the cycle so it starts at its smallest node."""
        pivot = cycle.index(min(cycle))
        return cycle[pivot:] + cycle[:pivot]


#: The process-wide graph every armed :func:`trace_lock` reports into.
GLOBAL_GRAPH = LockGraph()


class TracedLock:
    """A named lock reporting acquire/release order to a lock graph.

    Wraps a real ``threading.Lock`` (or ``RLock``), so blocking and
    mutual exclusion are exactly the stdlib's; the wrapper only adds
    graph bookkeeping after a *successful* acquire.
    """

    def __init__(
        self,
        name: str,
        graph: LockGraph | None = None,
        *,
        rlock: bool = False,
    ) -> None:
        self.name = name
        self._graph = GLOBAL_GRAPH if graph is None else graph
        self._lock = threading.RLock() if rlock else threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._graph.note_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._lock.release()
        self._graph.note_release(self.name)

    def locked(self) -> bool:
        locked = getattr(self._lock, "locked", None)
        return bool(locked()) if callable(locked) else False

    def __enter__(self) -> "TracedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TracedLock({self.name!r})"


def trace_lock(name: str, *, rlock: bool = False, graph: LockGraph | None = None):
    """A lock for ``name``: plain when the detector is off, traced when on.

    This is the patch point the lock-using modules call instead of
    ``threading.Lock()``. An explicit ``graph`` always yields a
    :class:`TracedLock` (how tests seed private graphs); otherwise the
    ``REPRO_LOCK_DEBUG`` flag decides at creation time, so arming a run
    means setting the flag before the process imports the serving stack.
    """
    if graph is None and not enabled():
        return threading.RLock() if rlock else threading.Lock()
    return TracedLock(name, graph, rlock=rlock)


def _flock_node(path) -> str:
    """Stable graph-node name for one artifact's flock sidecar."""
    parts = Path(path).parts[-3:]
    return "flock:" + "/".join(parts)


def note_flock_acquire(path) -> None:
    """Record taking the flock sidecar for ``path`` (armed runs only)."""
    if enabled():
        GLOBAL_GRAPH.note_acquire(_flock_node(path))


def note_flock_release(path) -> None:
    """Record dropping the flock sidecar for ``path`` (armed runs only)."""
    if enabled():
        GLOBAL_GRAPH.note_release(_flock_node(path))
