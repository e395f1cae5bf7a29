"""Discriminator plugin registry: one source of truth for design names.

Historically the design-name → class mapping lived in three places — the
experiment layer's ``_build``, the pipeline runner's hard-coded factory,
and the artifact loader's class table — and adding a discriminator meant
editing all of them.  This module replaces the trio with a single
registry:

- :func:`register` is a class decorator that publishes a discriminator
  under a design name (plus optional aliases) for everything that selects
  designs by string: ``experiments.common.get_trained``, the pipeline's
  calibration factory, and a serving spec's ``calibration.design``.
- Each registered class provides a ``from_profile(profile)`` classmethod
  mapping a sizing :class:`~repro.config.Profile` to a ready-to-fit
  instance (training budget, learning rate, derived seed).
- The registry also records every concrete :class:`Discriminator`
  subclass by class name (via ``Discriminator.__init_subclass__``) so
  ``Discriminator.load_artifacts`` dispatches through the same table.

New discriminators join the system by decorating the class::

    @register("mydesign", aliases=("md",))
    class MyDiscriminator(Discriminator):
        @classmethod
        def from_profile(cls, profile):
            return cls(epochs=profile.nn_epochs, seed=profile.seed + 42)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.config import Profile
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from repro.discriminators.base import Discriminator

__all__ = [
    "DiscriminatorSpec",
    "register",
    "get",
    "names",
    "specs",
    "build",
    "artifact_class",
    "record_artifact_class",
    "NN_LEARNING_RATE",
]

#: Learning rate shared by the matched-filter discriminator heads
#: (referenced by ``from_profile`` builders and the experiment runners).
NN_LEARNING_RATE = 3e-3

#: Design name -> spec for every registered discriminator design.
_SPECS: dict[str, "DiscriminatorSpec"] = {}
#: Alias -> canonical design name.
_ALIASES: dict[str, str] = {}
#: Class name -> class for artifact loading (every Discriminator subclass,
#: registered design or not).
_ARTIFACT_CLASSES: dict[str, type] = {}


@dataclass(frozen=True)
class DiscriminatorSpec:
    """One registered discriminator design.

    Parameters
    ----------
    name:
        Canonical design name (the paper's vocabulary: ``"ours"``,
        ``"herqules"``, ``"fnn"``, ...).
    cls:
        The :class:`Discriminator` subclass.
    aliases:
        Alternative names resolving to this design.
    description:
        One-line summary shown in CLI/design listings.
    """

    name: str
    cls: type
    aliases: tuple[str, ...] = ()
    description: str = ""

    def build(self, profile: Profile) -> "Discriminator":
        """Instantiate the design sized for ``profile`` (unfitted)."""
        return self.cls.from_profile(profile)


def register(
    name: str, *, aliases: tuple[str, ...] = (), description: str = ""
) -> Callable[[type], type]:
    """Class decorator publishing a discriminator design by name."""

    def _decorate(cls: type) -> type:
        if not callable(getattr(cls, "from_profile", None)):
            raise ConfigurationError(
                f"{cls.__name__} must define from_profile() to register "
                f"as design {name!r}"
            )
        spec = DiscriminatorSpec(
            name=name,
            cls=cls,
            aliases=tuple(aliases),
            description=description or (cls.__doc__ or "").splitlines()[0],
        )
        for key in (name, *spec.aliases):
            owner = _ALIASES.get(key)
            if owner is not None and _SPECS[owner].cls is not cls:
                raise ConfigurationError(
                    f"discriminator design {key!r} already registered by "
                    f"{_SPECS[owner].cls.__name__}"
                )
        _SPECS[name] = spec
        for key in (name, *spec.aliases):
            _ALIASES[key] = name
        return cls

    return _decorate


def get(name: str) -> DiscriminatorSpec:
    """Look up a design by canonical name or alias."""
    canonical = _ALIASES.get(name)
    if canonical is None:
        known = ", ".join(sorted(_SPECS))
        raise ConfigurationError(
            f"unknown discriminator design {name!r}; expected one of: {known}"
        )
    return _SPECS[canonical]


def names() -> tuple[str, ...]:
    """Canonical names of all registered designs (sorted)."""
    return tuple(sorted(_SPECS))


def specs() -> Iterator[DiscriminatorSpec]:
    """All registered design specs, sorted by name."""
    for name in names():
        yield _SPECS[name]


def build(name: str, profile: Profile) -> "Discriminator":
    """Instantiate a registered design sized for ``profile``."""
    return get(name).build(profile)


def record_artifact_class(cls: type) -> None:
    """Track a concrete Discriminator subclass for artifact loading.

    Called from ``Discriminator.__init_subclass__`` — every subclass is
    loadable from artifacts by class name, registered design or not.
    """
    _ARTIFACT_CLASSES[cls.__name__] = cls


def artifact_class(class_name: str) -> type | None:
    """The Discriminator subclass stored under ``class_name``, if any."""
    return _ARTIFACT_CLASSES.get(class_name)
