"""Typed errors shared across the package."""


class RootcoverError(Exception):
    """Base class for all package errors."""


class NotCoprime(RootcoverError):
    """A modular inverse or reduction was requested for non-coprime arguments."""


class BadInput(RootcoverError):
    """Arguments violate a documented precondition."""


class BadParams(BadInput):
    """Invalid preset or closed-form parameters."""


class Degenerate(RootcoverError):
    """The local cone is one of the excluded degenerate shapes."""


class NotInterior(RootcoverError):
    """The chosen lattice point lies on the boundary of the cone."""


class Exhausted(RootcoverError):
    """A randomized search ran out of trials."""

    def __init__(self, trials, message=None):
        self.trials = trials
        super().__init__(message or f"search exhausted after {trials} trials")


class IncompatiblePartition(RootcoverError):
    """Branch multiplicities do not match the base pair."""


class DegenerateCone(Degenerate):
    """A triple-point cone required by a global invariant is degenerate."""


class ConfigError(RootcoverError):
    """Invalid sweep configuration."""


class CertificationError(RootcoverError):
    """An exact certification check of a computed object failed."""
