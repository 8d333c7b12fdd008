"""Shared exception types."""


class CapabilityError(TypeError):
    """An operation was invoked with a satisfaction function lacking a
    required capability (e.g. additivity)."""


class GuardExceededError(RuntimeError):
    """An exact but exponential procedure was invoked beyond its size guard."""


class InconsistentAuditError(RuntimeError):
    """Axiom verdicts break the implication lattice: a checker is wrong."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: the program computed something
    its own invariants rule out (e.g. rule charges that miss a cost)."""
