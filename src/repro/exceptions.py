"""Exception hierarchy for the S-RAPS reproduction.

All library-raised errors derive from :class:`SRapsError` so that callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration problems from runtime scheduling/allocation
failures.
"""

from __future__ import annotations


class SRapsError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(SRapsError):
    """Raised when a system configuration is inconsistent or unknown."""


class DataLoaderError(SRapsError):
    """Raised when telemetry input (a job record, profile or SWF trace) is malformed."""


class SchedulingError(SRapsError):
    """Raised when a scheduling policy produces an invalid decision.

    Examples include scheduling a job onto nodes that are already busy (the
    ScheduleFlow corner case reported in the paper's artifact evaluation) or
    requesting more nodes than the system owns.
    """


class AllocationError(SRapsError):
    """Raised by the resource manager for invalid allocation or release."""


class SimulationError(SRapsError):
    """Raised when the simulation engine reaches an inconsistent state."""


class ExternalSchedulerError(SRapsError):
    """Raised when an external scheduler adapter violates its protocol."""


class MLModelError(SRapsError):
    """Raised by the ML pipeline for unfit models or malformed feature sets."""
