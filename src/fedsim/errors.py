"""Exception types shared across the simulator."""

from __future__ import annotations


class FedsimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FedsimError):
    """Invalid configuration value, key, or process parameter."""


class ContractViolationError(FedsimError):
    """An input violated a documented precondition (e.g. a non-symmetric
    matrix passed to the symmetric eigensolver)."""


class CapacityError(FedsimError):
    """Problem size exceeds what the requested method can handle."""


class StatisticalError(FedsimError):
    """A Monte Carlo estimate could not be formed (e.g. zero usable samples)."""


class DivergedRunError(FedsimError):
    """A simulated run produced a non-finite iterate.

    Carries the round and client where divergence was detected, plus any
    metrics rows recorded before the failure.
    """

    def __init__(self, message: str, round_index: int, client: int | None = None,
                 rows=None):
        super().__init__(message)
        self.round_index = round_index
        self.client = client
        self.rows = rows if rows is not None else []
