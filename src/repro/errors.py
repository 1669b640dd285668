"""Exception hierarchy for the NDA reproduction library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """A simulation configuration is invalid or internally inconsistent."""


class AssemblyError(ReproError):
    """A program could not be assembled (bad operand, unknown label, ...)."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state.

    This always indicates a bug in the simulator (or a hand-built program
    that violates the ISA contract), never a property of the simulated
    workload.
    """


class DeadlockError(SimulationError):
    """The pipeline made no forward progress for too many cycles."""
