"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch package failures with a single ``except`` clause while standard
``ValueError``/``TypeError`` semantics are preserved through multiple
inheritance.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError, ValueError):
    """A configuration object is inconsistent or out of range."""


class DataError(ReproError, ValueError):
    """A dataset or trace container is malformed for the requested use."""


class NotFittedError(ReproError, RuntimeError):
    """A model was used for inference before being fitted/trained."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible shape."""


class ShardCrashedError(ReproError, RuntimeError):
    """A process shard died or its pipe broke in the middle of a call."""
