"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish scheduling failures (which are often
*expected*, e.g. during a feasibility search) from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid internal state."""


class SchedulingError(ReproError):
    """A scheduling request could not be satisfied."""


class InfeasibleScheduleError(SchedulingError):
    """No conflict-free schedule exists for the given demands and frame size.

    Raised by the ILP scheduler, the Bellman-Ford schedule recovery and the
    admission controller when the instance is provably infeasible.  The
    optional :attr:`certificate` carries solver-specific evidence (for
    example the negative cycle found by Bellman-Ford).
    """

    def __init__(self, message: str, certificate: object = None) -> None:
        super().__init__(message)
        self.certificate = certificate


class SolverError(SchedulingError):
    """The underlying MILP solver failed for a reason other than infeasibility."""


class RoutingError(ReproError):
    """No route exists between the requested endpoints."""


class AdmissionError(SchedulingError):
    """A flow could not be admitted under the configured QoS constraints."""
