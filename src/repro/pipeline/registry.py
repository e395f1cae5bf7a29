"""Calibration registry: fit once, serve fitted artifacts by key.

Discriminator calibration (matched-filter kernel estimation + NN training)
is minutes of work; serving a fitted model is milliseconds. The registry
makes that asymmetry explicit: fitted artifacts are serialized via the
:class:`~repro.discriminators.base.Discriminator` artifact hooks to one
``.npz`` per :class:`CalibrationKey` under a root directory, and
:meth:`CalibrationRegistry.get_or_fit` turns any pipeline start-up into a
cache lookup — a warm run never retrains.

Keys are (device, qubit, profile, version): ``qubit`` is ``"all"`` for
joint artifacts like the paper's discriminator (whose per-qubit heads
share one feature front-end) and ``"q<i>"`` for genuinely per-qubit
artifacts. ``version`` (default 0) numbers recalibrations of the same
logical artifact: hot recalibration fits version N+1 while version N
keeps serving, then atomically swaps — the fit-once contract holds *per
version*, and a stored version is never rewritten (recalibration picks
the next one through :meth:`CalibrationRegistry.latest_version`).
"""

from __future__ import annotations

import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

try:  # pragma: no cover - POSIX everywhere we run; gate, don't require
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

import numpy as np

from repro.analysis.lockgraph import (
    note_flock_acquire,
    note_flock_release,
    trace_lock,
)
from repro.data.dataset import ReadoutCorpus
from repro.discriminators.base import Discriminator
from repro.exceptions import ConfigurationError, DataError

__all__ = ["CalibrationKey", "CalibrationRegistry", "PruneReport"]

_SLUG = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Versioned artifact stems: ``<qubit>.v<N>`` (version 0 stays bare
#: ``<qubit>`` so pre-versioning registries remain readable in place).
_VERSIONED_STEM = re.compile(r"^(?P<qubit>.+)\.v(?P<version>\d+)$")

#: Process-wide per-(root, key) fit locks: concurrent ``get_or_fit`` calls
#: for the same artifact from threads of one process — e.g. two user
#: threads warming sessions over identical feedlines — serialize here so
#: exactly one fits and the rest get the warm artifact. Keyed by the
#: resolved root so two registry *instances* over the same directory
#: still share a lock. In-process only; separate OS processes (process
#: shards included) coordinate through :func:`_artifact_file_lock` (an
#: advisory ``flock`` sidecar held across the cold fit), falling back to
#: the atomic rename in :meth:`CalibrationRegistry.save` where locking
#: is unavailable (a duplicated fit there is wasted work, never a
#: corrupt artifact).
_FIT_LOCKS: dict[tuple[str, "CalibrationKey"], object] = {}
_FIT_LOCKS_GUARD = trace_lock("registry.fit-locks-guard")


def _fit_lock(root: Path, key: "CalibrationKey"):
    with _FIT_LOCKS_GUARD:
        return _FIT_LOCKS.setdefault(
            (str(root.resolve()), key),
            trace_lock(
                "registry.fit-lock:"
                f"{key.device}/{key.qubit}/{key.profile}.v{key.version}"
            ),
        )


def _fit_lock_discard(root: Path, key: "CalibrationKey") -> None:
    """Drop a key's fit lock once its artifact is on disk.

    Keeps the lock table from growing one entry per key for the process
    lifetime. Waiters already queued on the old lock object are
    unaffected, and any later caller that mints a fresh lock re-checks
    the (now stored) artifact before fitting, so fit-once still holds.
    """
    with _FIT_LOCKS_GUARD:
        _FIT_LOCKS.pop((str(root.resolve()), key), None)


def _lock_file_for(artifact_path: Path) -> Path:
    """Sidecar advisory-lock file for one artifact path.

    The ``.npz.lock`` suffix keeps lock files out of the ``*.npz``
    artifact enumeration in :meth:`CalibrationRegistry.keys`.
    """
    return artifact_path.with_name(artifact_path.name + ".lock")


@contextmanager
def _artifact_file_lock(artifact_path: Path) -> Iterator[bool]:
    """Advisory cross-process lock around one artifact's cold fit.

    Process shards sharing a calibration key each used to fit the same
    artifact independently — wasted work, never corruption, thanks to
    the atomic rename in :meth:`CalibrationRegistry.save`. Holding an
    ``fcntl.flock`` on a sidecar file while fitting dedupes that: the
    first process fits while the rest block, then re-check the (now
    stored) artifact and load it instead.

    Because ``prune`` may unlink a sidecar while a fit
    holds it, acquisition re-checks after locking that the path still
    names the locked inode — a lock won on an unlinked or replaced file
    would not exclude the next opener — and retries on a fresh file
    otherwise.

    Yields whether the lock was actually taken. Degrades to an unlocked
    fit wherever advisory locking is unavailable (no ``fcntl``, or a
    filesystem that refuses to lock) — the atomic-rename fallback keeps
    that path correct, merely duplicated.
    """
    if fcntl is None:
        yield False
        return
    lock_path = _lock_file_for(artifact_path)
    handle = None
    # Each retry means another process unlinked the sidecar between our
    # open and flock; bounded so pathological churn degrades to an
    # unlocked (rename-protected) fit instead of spinning.
    for _ in range(20):
        try:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
            candidate = open(lock_path, "a+b")
        except OSError:
            yield False
            return
        try:
            fcntl.flock(candidate, fcntl.LOCK_EX)
        except OSError:
            candidate.close()
            yield False
            return
        try:
            on_disk = os.stat(lock_path)
        except OSError:
            on_disk = None  # unlinked while we waited for the lock
        held = os.fstat(candidate.fileno())
        if on_disk is not None and (
            (on_disk.st_dev, on_disk.st_ino) == (held.st_dev, held.st_ino)
        ):
            handle = candidate
            break
        candidate.close()
    if handle is None:  # pragma: no cover - needs adversarial churn
        yield False
        return
    # The sidecar participates in the lock-order graph as its own node,
    # so an inversion between a thread lock and the cross-process flock
    # is just as visible as one between two thread locks.
    note_flock_acquire(artifact_path)
    try:
        yield True
    finally:
        note_flock_release(artifact_path)
        try:
            fcntl.flock(handle, fcntl.LOCK_UN)
        except OSError:  # pragma: no cover - unlock cannot really fail
            pass
        handle.close()


def _unlink_lock_sidecar(artifact_path: Path) -> None:
    """Remove an artifact's lock sidecar — unless a cold fit holds it.

    ``prune`` used to unlink sidecars unconditionally.
    That defeats the cross-process fit dedup: a fitter holds the flock
    on inode X, the prune unlinks the path, and the next cold caller
    opens a *fresh* sidecar inode it can lock immediately — two
    processes then fit the same key concurrently (harmless for artifact
    integrity thanks to the atomic rename, but exactly the duplicated
    work the sidecar exists to prevent). A non-blocking probe lock
    distinguishes the cases: if it cannot be taken, a fit is in flight
    and the sidecar must stay; if it can, we hold the inode exclusively
    and re-check (as the fit path does) that the path still names it
    before unlinking.
    """
    lock_path = _lock_file_for(artifact_path)
    if fcntl is None:
        lock_path.unlink(missing_ok=True)
        return
    try:
        handle = open(lock_path, "a+b")
    except OSError:
        return  # nothing to remove (or unreadable: leave it alone)
    try:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            return  # a cold fit holds it; removing would fork the lock
        try:
            on_disk = os.stat(lock_path)
        except OSError:
            return  # already gone
        held = os.fstat(handle.fileno())
        if (on_disk.st_dev, on_disk.st_ino) == (held.st_dev, held.st_ino):
            lock_path.unlink(missing_ok=True)
    finally:
        handle.close()


@dataclass(frozen=True)
class CalibrationKey:
    """Identity of one calibration artifact.

    Parameters
    ----------
    device:
        Device identifier, e.g. ``"five-qubit-default"``.
    qubit:
        ``"all"`` for a joint artifact or ``"q<i>"`` for one qubit's.
    profile:
        Sizing-profile name the calibration was run under.
    """

    device: str
    qubit: str = "all"
    profile: str = "quick"
    version: int = 0

    def __post_init__(self) -> None:
        for field_name in ("device", "qubit", "profile"):
            value = getattr(self, field_name)
            if not _SLUG.match(value):
                raise ConfigurationError(
                    f"CalibrationKey.{field_name} must be a filesystem-safe "
                    f"slug, got {value!r}"
                )
        if isinstance(self.version, bool) or not isinstance(self.version, int):
            raise ConfigurationError(
                f"CalibrationKey.version must be an integer, got "
                f"{self.version!r}"
            )
        if self.version < 0:
            raise ConfigurationError(
                f"CalibrationKey.version must be >= 0, got {self.version}"
            )
        if _VERSIONED_STEM.match(self.qubit):
            raise ConfigurationError(
                f"CalibrationKey.qubit {self.qubit!r} collides with the "
                "versioned artifact naming scheme; use the version field"
            )

    def with_version(self, version: int) -> "CalibrationKey":
        """Same logical artifact at a different recalibration version."""
        from dataclasses import replace

        return replace(self, version=version)

    @property
    def stem(self) -> str:
        """Artifact file stem: bare for version 0, ``.v<N>`` beyond."""
        return (
            self.qubit if self.version == 0 else f"{self.qubit}.v{self.version}"
        )

    @property
    def relative_path(self) -> Path:
        return Path(self.device) / self.profile / f"{self.stem}.npz"


@dataclass(frozen=True)
class PruneReport:
    """Outcome of one :meth:`CalibrationRegistry.prune` call."""

    removed: tuple[CalibrationKey, ...]
    bytes_freed: int
    n_remaining: int
    bytes_remaining: int

    def format_table(self) -> str:
        lines = [
            f"calibration registry prune: removed {len(self.removed)} "
            f"artifact(s), freed {self.bytes_freed} bytes",
            f"remaining: {self.n_remaining} artifact(s), "
            f"{self.bytes_remaining} bytes",
        ]
        for key in self.removed:
            lines.append(f"  - {key.device}/{key.profile}/{key.stem}")
        return "\n".join(lines)


class CalibrationRegistry:
    """Disk-backed store of fitted discriminator artifacts.

    Parameters
    ----------
    root:
        Directory holding the artifact tree
        (``<root>/<device>/<profile>/<qubit>.npz``); created on demand.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: CalibrationKey) -> Path:
        return self.root / key.relative_path

    def __contains__(self, key: CalibrationKey) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> Iterator[CalibrationKey]:
        """Scan the tree for stored artifacts.

        Foreign files under the root (non-slug path components) are
        skipped rather than aborting the whole enumeration.
        """
        for path in sorted(self.root.glob("*/*/*.npz")):
            if path.name.endswith(".tmp.npz"):
                continue
            stem, version = path.stem, 0
            match = _VERSIONED_STEM.match(stem)
            if match:
                stem = match.group("qubit")
                version = int(match.group("version"))
            try:
                yield CalibrationKey(
                    device=path.parent.parent.name,
                    qubit=stem,
                    profile=path.parent.name,
                    version=version,
                )
            except ConfigurationError:
                continue

    def save(self, key: CalibrationKey, discriminator: Discriminator) -> Path:
        """Serialize a fitted discriminator under ``key`` (atomically).

        The artifact is written to a sibling temp file and renamed into
        place, so a run killed mid-write can never leave a truncated file
        that later reads as a warm cache hit.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.npz")
        try:
            discriminator.save_artifacts(tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def load(self, key: CalibrationKey) -> Discriminator:
        """Rebuild the fitted discriminator stored under ``key``."""
        path = self.path_for(key)
        if not path.is_file():
            raise DataError(f"no calibration artifact for {key}")
        return Discriminator.load_artifacts(path)

    def latest_version(self, key: CalibrationKey) -> int | None:
        """Highest stored version of ``key``'s logical artifact.

        Versions are compared across every stored artifact sharing the
        key's (device, profile, qubit); ``None`` when none exist.
        """
        versions = [
            stored.version
            for stored in self.keys()
            if (stored.device, stored.profile, stored.qubit)
            == (key.device, key.profile, key.qubit)
        ]
        return max(versions) if versions else None

    def prune(
        self,
        max_age_s: float | None = None,
        max_bytes: int | None = None,
        *,
        now: float | None = None,
    ) -> PruneReport:
        """Evict stored artifacts by age and/or total size.

        Artifacts older than ``max_age_s`` (by file mtime) are removed
        first; if the surviving tree still exceeds ``max_bytes``, the
        oldest artifacts are evicted until it fits. With neither bound
        given nothing is removed (the report still counts the tree).
        Emptied device/profile directories are cleaned up.

        Parameters
        ----------
        max_age_s:
            Maximum artifact age in seconds; ``0`` evicts everything.
        max_bytes:
            Maximum total size of the artifact tree in bytes.
        now:
            Reference timestamp (defaults to ``time.time()``), for tests.
        """
        if max_age_s is not None and max_age_s < 0:
            raise ConfigurationError("max_age_s must be >= 0")
        if max_bytes is not None and max_bytes < 0:
            raise ConfigurationError("max_bytes must be >= 0")
        reference = time.time() if now is None else now

        entries = []  # (mtime, key, path, size)
        for key in self.keys():
            path = self.path_for(key)
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, key, path, stat.st_size))
        entries.sort(key=lambda e: e[0])

        removed: list[CalibrationKey] = []
        bytes_freed = 0
        survivors = []
        for mtime, key, path, size in entries:
            if max_age_s is not None and reference - mtime > max_age_s:
                removed.append(key)
                bytes_freed += size
                path.unlink(missing_ok=True)
                _unlink_lock_sidecar(path)
            else:
                survivors.append((mtime, key, path, size))

        if max_bytes is not None:
            total = sum(size for _, _, _, size in survivors)
            while survivors and total > max_bytes:
                mtime, key, path, size = survivors.pop(0)  # oldest first
                removed.append(key)
                bytes_freed += size
                total -= size
                path.unlink(missing_ok=True)
                _unlink_lock_sidecar(path)

        # Orphaned sidecars: a sidecar that had to be left behind (held
        # by a fit while its artifact was removed) is reclaimed by the
        # next prune once released.
        for lock_path in self.root.glob("*/*/*.npz.lock"):
            artifact = lock_path.with_name(lock_path.name[: -len(".lock")])
            if not artifact.exists():
                _unlink_lock_sidecar(artifact)

        self._remove_empty_dirs()
        return PruneReport(
            removed=tuple(removed),
            bytes_freed=bytes_freed,
            n_remaining=len(survivors),
            bytes_remaining=sum(size for _, _, _, size in survivors),
        )

    def _remove_empty_dirs(self) -> None:
        """Drop emptied ``<device>/<profile>`` directories after a prune."""
        for profile_dir in self.root.glob("*/*/"):
            if profile_dir.is_dir() and not any(profile_dir.iterdir()):
                profile_dir.rmdir()
        for device_dir in self.root.glob("*/"):
            if device_dir.is_dir() and not any(device_dir.iterdir()):
                device_dir.rmdir()

    def get_or_fit(
        self,
        key: CalibrationKey,
        factory: Callable[[], Discriminator],
        corpus: ReadoutCorpus | Callable[[], ReadoutCorpus],
        indices: np.ndarray | None = None,
    ) -> tuple[Discriminator, bool]:
        """Serve the cached artifact, or fit, store, and serve it.

        Parameters
        ----------
        key:
            Artifact identity.
        factory:
            Builds the (unfitted) discriminator when the cache misses.
        corpus:
            Training corpus, or a zero-argument callable producing it —
            pass a callable so a warm hit never pays corpus generation.
        indices:
            Training rows for the cache-miss fit (all rows when ``None``).

        Returns
        -------
        (discriminator, cached):
            The fitted model and whether it came from the cache.

        Concurrent calls for the same key (from any number of registry
        instances over the same root, e.g. sharded feedline workers)
        stay fit-once: a per-key lock serializes the miss path, and
        late arrivals re-check the cache under the lock before fitting.
        Across OS processes an advisory file lock on an ``.npz.lock``
        sidecar extends the same dedup to process shards sharing a key;
        where file locking is unavailable the atomic artifact rename
        keeps duplicated fits harmless.
        Every warm hit deserializes the artifact from disk: a serving
        worker resolves each version once and keeps the model itself
        (see :class:`repro.pipeline.cluster.FeedlineWorker`).
        """

        def _try_load() -> Discriminator | None:
            path = self.path_for(key)
            if not path.is_file():
                return None
            try:
                return self.load(key)
            except Exception:  # repro: allow(broad-except) corrupt artifact of any vintage is a miss
                # A corrupt or unreadable artifact (e.g. written by an
                # older incompatible version) is a cache miss, not a
                # permanently poisoned key: drop it and refit. Only the
                # artifact, though — this path can run while *we* hold
                # the lock sidecar, and unlinking a held sidecar would
                # let another process mint a fresh lock and fit the
                # same key concurrently.
                path.unlink(missing_ok=True)
            return None

        loaded = _try_load()
        if loaded is not None:
            return loaded, True
        with _fit_lock(self.root, key):
            # Whoever held the lock first may have fitted this key
            # while we waited; serve their artifact instead of refitting.
            loaded = _try_load()
            if loaded is not None:
                return loaded, True
            with _artifact_file_lock(self.path_for(key)):
                # Another *process* may likewise have fitted this key
                # while we waited on the file lock; final re-check.
                loaded = _try_load()
                if loaded is not None:
                    return loaded, True
                discriminator = factory()
                if callable(corpus):
                    corpus = corpus()
                idx = (
                    np.arange(corpus.n_traces)
                    if indices is None
                    else np.asarray(indices)
                )
                discriminator.fit(corpus, idx)
                self.save(key, discriminator)
        _fit_lock_discard(self.root, key)
        return discriminator, False
