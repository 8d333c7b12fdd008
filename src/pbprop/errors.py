"""Shared exception types."""


class CapabilityError(TypeError):
    """An operation was invoked with a satisfaction function lacking a
    required capability (e.g. additivity)."""


class GuardExceededError(RuntimeError):
    """An exact but exponential procedure was invoked beyond its size guard."""


class InconsistentAuditError(RuntimeError):
    """Axiom verdicts break the implication lattice: a checker is wrong."""
