"""Exception hierarchy for the repro library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class GraphError(ReproError):
    """Raised for structurally invalid graphs or illegal graph operations."""


class NotBipartiteError(GraphError):
    """Raised when a bipartite graph is required but the input is not one."""


class VertexError(GraphError):
    """Raised when a vertex reference does not exist in a graph."""


class EdgeError(GraphError):
    """Raised when an edge reference is invalid or does not exist."""


class SchemeError(ReproError):
    """Raised when a pebbling scheme is malformed or invalid for a graph."""


class SolverError(ReproError):
    """Raised when a pebbling solver cannot handle its input."""


class InstanceTooLargeError(SolverError):
    """Raised when an exact solver is asked to exceed its size budget."""


class BudgetExhaustedError(SolverError):
    """Raised when a cooperative :class:`repro.runtime.Budget` trips.

    ``reason`` records which resource ran out: ``"deadline"`` (wall clock)
    or ``"nodes"`` (search-node budget).
    """

    def __init__(self, message: str, reason: str = "nodes") -> None:
        super().__init__(message)
        self.reason = reason


class InjectedFaultError(ReproError):
    """Raised by the deterministic fault-injection harness (chaos testing)."""


class PredicateError(ReproError):
    """Raised for type mismatches between join predicates and tuple values."""


class GeometryError(ReproError):
    """Raised for degenerate or invalid geometric primitives."""


class RelationError(ReproError):
    """Raised for malformed relations or catalog misuse."""


class ReductionError(ReproError):
    """Raised when a complexity reduction receives an out-of-scope instance."""


class GadgetError(ReproError):
    """Raised when gadget certification fails or no gadget can be found."""


class WorkloadError(ReproError):
    """Raised for invalid workload-generator parameters."""
