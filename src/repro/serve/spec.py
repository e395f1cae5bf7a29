"""Declarative serving configuration: one spec, every front end.

:class:`ServeSpec` is the one frozen, composable source of truth for a
serving session: ``repro serve`` spec files load into it and the
per-feedline :class:`repro.pipeline.PipelineConfig` derives from it.
Its sections:

- :class:`TrafficSpec` — what is streamed (shots per run, source
  chunking, traffic seed) and which instrument backend it comes from
  (``simulator``/``dummy``/``replay``/``socket``, with record/replay
  corpus paths).
- :class:`ClusterSpec` — where it runs (feedlines, shard executor and
  workers, qubits per feedline).
- :class:`BatchingSpec` — how it is batched (micro-batch size).
- :class:`CalibrationSpec` — how discriminators are calibrated (profile,
  design, registry root, seed override).
- :class:`DriftSpec` — simulated device drift injected across the
  session (readout-tone detuning, T1/contrast decay per kilo-shot).
- :class:`RecalibrationSpec` — the drift response: alarm threshold on
  the online drift score, recalibration shot budget, cooldown, and cap.

Specs serialize losslessly: ``spec == ServeSpec.from_dict(spec.to_dict())``
holds for every valid spec, and :meth:`ServeSpec.from_file` /
:meth:`ServeSpec.to_file` round-trip through JSON. Validation is
*exhaustive*: a spec with several bad fields raises one
:class:`~repro.exceptions.ConfigurationError` naming all of them (section
qualified, e.g. ``traffic.shots``), so a config file is fixed in one edit
pass instead of one error at a time.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.config import Profile, get_profile
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only; the pipeline package
    # is imported lazily (see _Section._problems implementations) so the
    # spec layer stays importable without pulling the full runtime in.
    from repro.pipeline.runner import PipelineConfig

__all__ = [
    "TrafficSpec",
    "ClusterSpec",
    "BatchingSpec",
    "CalibrationSpec",
    "DriftSpec",
    "RecalibrationSpec",
    "ServeSpec",
]


def _check_int(
    problems: list[str],
    name: str,
    value: Any,
    minimum: int | None = None,
    optional: bool = False,
) -> None:
    """Append a problem unless ``value`` is an int within bounds."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{name} must be an integer, got {value!r}")
        return
    if minimum is not None and value < minimum:
        problems.append(f"{name} must be >= {minimum}, got {value}")


def _check_number(
    problems: list[str],
    name: str,
    value: Any,
    positive: bool = False,
) -> None:
    """Append a problem unless ``value`` is a (positive) real number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{name} must be a number, got {value!r}")
        return
    if positive and value <= 0:
        problems.append(f"{name} must be positive, got {value}")


def _check_str(
    problems: list[str], name: str, value: Any, optional: bool = False
) -> None:
    """Append a problem unless ``value`` is a non-empty string."""
    if value is None and optional:
        return
    if not isinstance(value, str) or not value:
        problems.append(f"{name} must be a non-empty string, got {value!r}")


def _check_bool(problems: list[str], name: str, value: Any) -> None:
    if not isinstance(value, bool):
        problems.append(f"{name} must be a boolean, got {value!r}")


@dataclass(frozen=True)
class _Section:
    """Shared spec-section behavior: exhaustive validation + dict I/O."""

    def _problems(self) -> list[str]:
        """Every invalid field of this section, as human-readable lines."""
        return []

    def __post_init__(self) -> None:
        problems = self._problems()
        if problems:
            exc = ConfigurationError(
                f"invalid {type(self).__name__}: " + "; ".join(problems)
            )
            exc.problems = tuple(problems)
            raise exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def _from_section(
        cls, data: Mapping, section: str, problems: list[str]
    ) -> "_Section | None":
        """Build this section from a mapping, accumulating *all* errors.

        Unknown keys and invalid field values are appended to
        ``problems`` (section-qualified); missing keys take the field
        defaults. Returns ``None`` when the section could not be built.
        """
        if not isinstance(data, Mapping):
            problems.append(
                f"{section} must be a mapping of fields, got {data!r}"
            )
            return None
        known = {f.name for f in fields(cls)}
        for key in sorted(set(data) - known):
            problems.append(f"{section}.{key}: unknown field")
        kwargs = {key: value for key, value in data.items() if key in known}
        try:
            return cls(**kwargs)
        except ConfigurationError as exc:
            problems.extend(
                f"{section}.{p}" for p in getattr(exc, "problems", (str(exc),))
            )
            return None


@dataclass(frozen=True)
class TrafficSpec(_Section):
    """What one serving run streams, and which instrument it comes from.

    Parameters
    ----------
    shots:
        Shots of traffic per :meth:`ReadoutService.run` call (per
        feedline in a cluster). Stream-bound backends (``replay``,
        ``socket``) deliver their own fixed shot count instead.
    chunk_size:
        Shots per source chunk (the :class:`TraceSource` granularity).
    seed:
        Traffic seed (non-negative — it feeds ``np.random``). ``None``
        uses the resolved profile's seed + 1, so live traffic never
        replays the calibration corpus stream.
    backend:
        Instrument backend serving the traffic — one of
        :data:`repro.backends.BACKEND_NAMES` (``simulator``/``dummy``/
        ``replay``/``socket``).
    corpus_path:
        Recorded-corpus directory to replay (required by, and only
        meaningful with, the ``replay`` backend).
    record_path:
        Tee the served traffic into a versioned corpus at this
        directory (any generating backend; invalid with ``replay``).
    socket_path:
        ``AF_UNIX`` socket path the ``socket`` backend connects to
        (required by, and only meaningful with, that backend).
    """

    shots: int = 2000
    chunk_size: int = 256
    seed: int | None = None
    backend: str = "simulator"
    corpus_path: str | None = None
    record_path: str | None = None
    socket_path: str | None = None

    def _problems(self) -> list[str]:
        problems: list[str] = []
        _check_int(problems, "shots", self.shots, minimum=1)
        _check_int(problems, "chunk_size", self.chunk_size, minimum=1)
        _check_int(problems, "seed", self.seed, minimum=0, optional=True)
        _check_str(problems, "backend", self.backend)
        _check_str(problems, "corpus_path", self.corpus_path, optional=True)
        _check_str(problems, "record_path", self.record_path, optional=True)
        _check_str(problems, "socket_path", self.socket_path, optional=True)
        if isinstance(self.backend, str) and self.backend:
            problems.extend(self._backend_problems())
        return problems

    def _backend_problems(self, drifting: bool = False) -> list[str]:
        """The backend cross-field rules this traffic breaks.

        See :func:`repro.backends.registry.backend_problems`;
        ``drifting`` says whether the session injects drift.
        """
        from repro.backends.registry import backend_problems

        return backend_problems(
            self.backend,
            corpus_path=self.corpus_path,
            record_path=self.record_path,
            socket_path=self.socket_path,
            drifting=drifting,
        )


@dataclass(frozen=True)
class ClusterSpec(_Section):
    """Where the traffic is served.

    Parameters
    ----------
    feedlines:
        Readout groups to serve, one discrimination chain each; ``1`` is
        a one-feedline cluster.
    executor:
        Shard backend for multi-feedline serving: ``process`` (one OS
        process per shard) or ``serial`` (the calling thread). Validated
        — but inert — with one feedline, which always runs ``serial``.
    workers:
        Shard workers (``None``: one per feedline, capped at the CPU
        count).
    qubits_per_feedline:
        Qubits multiplexed on each served readout group. ``None`` serves
        the base device's full complement — the chip itself defines the
        default, not a magic number here.
    """

    feedlines: int = 1
    executor: str = "process"
    workers: int | None = None
    qubits_per_feedline: int | None = None

    def _problems(self) -> list[str]:
        problems: list[str] = []
        _check_int(problems, "feedlines", self.feedlines, minimum=1)
        _check_str(problems, "executor", self.executor)
        if isinstance(self.executor, str) and self.executor:
            from repro.pipeline.cluster import EXECUTOR_NAMES

            if self.executor not in EXECUTOR_NAMES:
                known = ", ".join(EXECUTOR_NAMES)
                problems.append(
                    f"executor must be one of: {known}; got {self.executor!r}"
                )
        _check_int(problems, "workers", self.workers, minimum=1, optional=True)
        _check_int(
            problems,
            "qubits_per_feedline",
            self.qubits_per_feedline,
            minimum=1,
            optional=True,
        )
        return problems


@dataclass(frozen=True)
class BatchingSpec(_Section):
    """How the stream is micro-batched.

    Parameters
    ----------
    batch_size:
        Shots per dispatched micro-batch.
    """

    batch_size: int = 64

    def _problems(self) -> list[str]:
        problems: list[str] = []
        _check_int(problems, "batch_size", self.batch_size, minimum=1)
        return problems


@dataclass(frozen=True)
class CalibrationSpec(_Section):
    """How discriminators are calibrated before serving.

    Parameters
    ----------
    profile:
        Sizing-profile name (``quick``/``full``/``paper``). Resolved at
        warm-up; :class:`ReadoutService` also accepts a ready
        :class:`~repro.config.Profile` override for ad-hoc sizings.
    design:
        Registered discriminator design to serve (must resolve to the
        MLR family; checked at warm-up against the plugin registry).
    registry_dir:
        Calibration-registry root. ``None`` gives each service session a
        private temporary registry, discarded on close.
    seed:
        Profile seed override (``Profile.with_seed``); shifts both the
        calibration corpus and the derived default traffic seed.
    """

    profile: str = "quick"
    design: str = "ours"
    registry_dir: str | None = None
    seed: int | None = None

    def _problems(self) -> list[str]:
        problems: list[str] = []
        _check_str(problems, "profile", self.profile)
        _check_str(problems, "design", self.design)
        _check_str(problems, "registry_dir", self.registry_dir, optional=True)
        # np.random seeds must be non-negative, same as traffic.seed.
        _check_int(problems, "seed", self.seed, minimum=0, optional=True)
        return problems


@dataclass(frozen=True)
class DriftSpec(_Section):
    """Simulated device drift injected across the serving session.

    All rates are per kilo-shot of session traffic and map directly
    onto :class:`repro.physics.drift.DriftModel`; the all-zero default
    is a stationary device (no injection, no behavior change).

    Parameters
    ----------
    if_detune_ghz_per_kshot:
        Linear readout-tone detuning (GHz per 1000 shots); may be
        negative.
    t1_decay_per_kshot:
        Exponential T1 decay rate per 1000 shots.
    amplitude_decay_per_kshot:
        Exponential drive-amplitude (assignment-contrast) decay rate
        per 1000 shots.
    """

    if_detune_ghz_per_kshot: float = 0.0
    t1_decay_per_kshot: float = 0.0
    amplitude_decay_per_kshot: float = 0.0

    def _problems(self) -> list[str]:
        problems: list[str] = []
        _check_number(
            problems, "if_detune_ghz_per_kshot", self.if_detune_ghz_per_kshot
        )
        for name in ("t1_decay_per_kshot", "amplitude_decay_per_kshot"):
            value = getattr(self, name)
            _check_number(problems, name, value)
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ) and value < 0:
                problems.append(f"{name} must be >= 0, got {value}")
        return problems

    @property
    def active(self) -> bool:
        """Whether any drift is actually injected."""
        return (
            self.if_detune_ghz_per_kshot != 0.0
            or self.t1_decay_per_kshot != 0.0
            or self.amplitude_decay_per_kshot != 0.0
        )

    def model(self):
        """The :class:`~repro.physics.drift.DriftModel` this spec names,
        or ``None`` for a stationary device."""
        if not self.active:
            return None
        from repro.physics.drift import DriftModel

        return DriftModel(
            if_detune_ghz_per_kshot=self.if_detune_ghz_per_kshot,
            t1_decay_per_kshot=self.t1_decay_per_kshot,
            amplitude_decay_per_kshot=self.amplitude_decay_per_kshot,
        )


@dataclass(frozen=True)
class RecalibrationSpec(_Section):
    """How a session responds to a drift alarm.

    Parameters
    ----------
    enabled:
        Refit in the shard workers when a run's drift alarm trips,
        hot-swapping the next calibration-artifact version. Off by
        default: detection always reports, recovery is opt-in.
    threshold:
        Drift score at which the alarm trips (also the per-run
        ``drift_score`` threshold surfaced in reports).
    shot_budget:
        Calibration shots per basis state for recalibration fits;
        ``None`` reuses the profile's ``shots_per_state`` (a smaller
        budget trades recovery fidelity for refit latency).
    cooldown_runs:
        Runs that must complete after a recalibration before another
        may trigger — a still-drifting device must not thrash refits.
    max_recalibrations:
        Hard cap on recalibrations per session; ``None`` is unlimited.
    min_shots:
        Shots a run's monitor must see before it may alarm.
    """

    enabled: bool = False
    threshold: float = 0.1
    shot_budget: int | None = None
    cooldown_runs: int = 1
    max_recalibrations: int | None = None
    min_shots: int = 50

    def _problems(self) -> list[str]:
        problems: list[str] = []
        _check_bool(problems, "enabled", self.enabled)
        _check_number(problems, "threshold", self.threshold, positive=True)
        _check_int(
            problems, "shot_budget", self.shot_budget, minimum=1, optional=True
        )
        _check_int(problems, "cooldown_runs", self.cooldown_runs, minimum=0)
        _check_int(
            problems,
            "max_recalibrations",
            self.max_recalibrations,
            minimum=0,
            optional=True,
        )
        _check_int(problems, "min_shots", self.min_shots, minimum=0)
        return problems


#: Section name -> section class, in canonical serialization order.
_SECTIONS: dict[str, type[_Section]] = {
    "traffic": TrafficSpec,
    "cluster": ClusterSpec,
    "batching": BatchingSpec,
    "calibration": CalibrationSpec,
    "drift": DriftSpec,
    "recalibration": RecalibrationSpec,
}


@dataclass(frozen=True)
class ServeSpec:
    """The single declarative source of truth for one serving session.

    Aggregates :class:`TrafficSpec`, :class:`ClusterSpec`,
    :class:`BatchingSpec`, :class:`CalibrationSpec`, :class:`DriftSpec`
    and :class:`RecalibrationSpec`; both front ends (``repro serve
    --spec`` and :func:`repro.serve.serve_once`) take this object.
    Frozen, fully validated on construction, JSON round-trip stable.
    """

    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    batching: BatchingSpec = field(default_factory=BatchingSpec)
    calibration: CalibrationSpec = field(default_factory=CalibrationSpec)
    drift: DriftSpec = field(default_factory=DriftSpec)
    recalibration: RecalibrationSpec = field(
        default_factory=RecalibrationSpec
    )

    def __post_init__(self) -> None:
        problems = [
            f"{name} must be a {cls.__name__}, got "
            f"{type(getattr(self, name)).__name__}"
            for name, cls in _SECTIONS.items()
            if not isinstance(getattr(self, name), cls)
        ]
        if not problems:
            problems = self._cross_section_problems()
        if problems:
            exc = ConfigurationError(
                "invalid ServeSpec: " + "; ".join(problems)
            )
            exc.problems = tuple(problems)
            raise exc

    def _cross_section_problems(self) -> list[str]:
        """Constraints spanning sections (each section is already valid)."""
        # The traffic section already keeps every rule that drift does
        # not enter, so only the drift rule can be left here.
        problems = [
            f"drift: {problem}"
            for problem in self.traffic._backend_problems(self.drift.active)
        ]
        backend = self.traffic.backend
        if self.cluster.feedlines > 1:
            if backend in ("dummy", "socket"):
                problems.append(
                    f"traffic.backend: the {backend!r} backend serves a "
                    f"single feedline only, got cluster.feedlines="
                    f"{self.cluster.feedlines}"
                )
            if self.traffic.record_path is not None:
                problems.append(
                    "traffic.record_path: recording requires "
                    "cluster.feedlines == 1, got "
                    f"{self.cluster.feedlines}"
                )
        return problems

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """Nested plain-value form; ``json.dumps``-able as is."""
        return {
            name: getattr(self, name).to_dict() for name in _SECTIONS
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServeSpec":
        """Inverse of :meth:`to_dict`; missing sections take defaults.

        Validation is exhaustive: every unknown section, unknown field,
        and invalid value across *all* sections is collected and raised
        as one :class:`ConfigurationError`, so a bad spec file is fixed
        in a single edit pass.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"ServeSpec data must be a mapping of sections, got {data!r}"
            )
        problems: list[str] = []
        for key in sorted(set(data) - set(_SECTIONS)):
            known = ", ".join(_SECTIONS)
            problems.append(
                f"{key}: unknown section (expected one of: {known})"
            )
        sections: dict[str, _Section | None] = {}
        for name, section_cls in _SECTIONS.items():
            if name in data:
                sections[name] = section_cls._from_section(
                    data[name], name, problems
                )
            else:
                sections[name] = section_cls()
        if problems:
            exc = ConfigurationError(
                "invalid ServeSpec: " + "; ".join(problems)
            )
            exc.problems = tuple(problems)
            raise exc
        return cls(**sections)

    @classmethod
    def from_file(cls, path: str | Path) -> "ServeSpec":
        """Load a spec from a JSON file (see :meth:`to_file`)."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read spec file {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"spec file {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)

    def to_file(self, path: str | Path) -> Path:
        """Write the spec as indented JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    # -- derivation helpers --------------------------------------------

    def with_traffic(self, **changes) -> "ServeSpec":
        """Copy of this spec with some :class:`TrafficSpec` fields replaced."""
        return dataclasses.replace(
            self, traffic=dataclasses.replace(self.traffic, **changes)
        )

    def resolved_profile(self, override: Profile | None = None) -> Profile:
        """The calibration :class:`Profile` this spec serves under.

        ``override`` (a ready Profile instance, e.g. an ad-hoc test
        sizing) wins over the spec's named profile; the spec's seed
        override is applied in either case.
        """
        profile = (
            override
            if override is not None
            else get_profile(self.calibration.profile)
        )
        if self.calibration.seed is not None:
            profile = profile.with_seed(self.calibration.seed)
        return profile

    def pipeline_config(self) -> "PipelineConfig":
        """The per-feedline :class:`PipelineConfig` this spec derives."""
        from repro.pipeline.runner import PipelineConfig

        return PipelineConfig(
            batch_size=self.batching.batch_size,
            drift_threshold=self.recalibration.threshold,
            drift_min_shots=self.recalibration.min_shots,
        )
