"""Shared exception types."""


class CapabilityError(TypeError):
    """An operation was invoked with a satisfaction function lacking a
    required capability (e.g. additivity)."""


class ExtractionUnavailableError(RuntimeError):
    """The trace lacks the data the extraction needs (e.g. no blocking
    project in a Phragmen run that exhausted its candidates)."""


class GuardExceededError(RuntimeError):
    """An exact but exponential procedure was invoked beyond its size guard."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: the program computed something
    its own invariants rule out (e.g. rule charges that miss a cost)."""


class InconsistentAuditError(InvariantError):
    """Axiom verdicts break the implication lattice: a checker is wrong."""
