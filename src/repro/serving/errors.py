"""Exception hierarchy of the online serving layer.

Every error the serving subsystem raises on purpose derives from
:class:`ServingError`, so callers can catch one type at the service
boundary.  Ingestion errors are deliberately loud: a traffic feed that
goes backwards or skips ticks is a broken feed, and silently papering
over it would corrupt every window assembled afterwards.
"""

from __future__ import annotations

__all__ = [
    "ServingError",
    "UnknownSegmentError",
    "StaleObservationError",
    "StreamGapError",
    "InvalidObservationError",
    "IncompleteWindowError",
]


class ServingError(RuntimeError):
    """Base class for all serving-layer errors."""


class UnknownSegmentError(ServingError):
    """A request or observation referenced a segment outside the corridor."""


class StaleObservationError(ServingError):
    """An observation arrived out of order (step <= the segment's latest)."""


class StreamGapError(ServingError):
    """An observation skipped ticks; the stream must be reset to resume."""


class InvalidObservationError(ServingError):
    """An observation carries a value no sensor can report.

    Non-finite fields and negative speeds are rejected at the boundary,
    before any window could serve them.  Finite readings outside the
    plausible range are the :class:`repro.attacks.defense.PerturbationGate`'s
    business: it quarantines them instead.
    """


class IncompleteWindowError(ServingError):
    """A segment does not (yet) have a complete model input window."""
