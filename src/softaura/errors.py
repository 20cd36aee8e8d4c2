"""Exception types and structured violation records shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class SoftAuraError(Exception):
    """Base class for every domain error raised by this package."""


class ContextMismatch(SoftAuraError):
    """Operands belong to different (universe, parameters) contexts."""


class UnknownPoint(SoftAuraError):
    def __init__(self, point: str, param: str | None = None):
        self.point = point
        self.param = param
        where = f" in slice {param!r}" if param is not None else ""
        super().__init__(f"unknown point {point!r}{where}")


class MissingParameter(SoftAuraError):
    def __init__(self, param: str):
        self.param = param
        super().__init__(f"no slice given for parameter {param!r}")


class ExtraParameter(SoftAuraError):
    def __init__(self, param: str):
        self.param = param
        super().__init__(f"slice given for undeclared parameter {param!r}")


class UnknownParameter(SoftAuraError):
    def __init__(self, param: str):
        self.param = param
        super().__init__(f"unknown parameter {param!r}")


class CapExceeded(SoftAuraError):
    """An enumeration would pass its cap; `family` names what it enumerates.

    Families: "aura topology", "ambient members", "witness search",
    "scope functions", "topology generation".
    """

    def __init__(self, required: int, cap: int, family: str):
        self.required = required
        self.cap = cap
        self.family = family
        super().__init__(f"{family}: enumeration needs {required} members, cap is {cap}")


class NotSingletonE(SoftAuraError):
    """The operation is only defined for single-parameter contexts."""


class SpaceMismatch(SoftAuraError):
    """Mapping endpoints do not share the required space."""


class InvalidPartition(SoftAuraError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class InternalNonMonotone(SoftAuraError):
    """Defensive: a closure slice shrank during iteration (implementation bug)."""


class PreconditionUnmet(SoftAuraError):
    def __init__(self, member_index: int, reason: str = ""):
        self.member_index = member_index
        msg = f"family member {member_index} violates the precondition"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class SizeGuard(SoftAuraError):
    """The requested exhaustive family exceeds the size guard."""


@dataclass(frozen=True)
class MembershipViolation:
    """Point is missing from its own scope slice at `param`."""

    point: str
    param: str

    def __str__(self) -> str:
        return f"scope of {self.point!r} does not contain it at {self.param!r}"


@dataclass(frozen=True)
class NotOpen:
    """The soft set assigned to `point` is not a member of the topology."""

    point: str

    def __str__(self) -> str:
        return f"scope of {self.point!r} is not a topology member"


class TopologyViolation(SoftAuraError):
    """First axiom failure found while validating a topology candidate.

    kind is one of: missing-null, missing-absolute, missing-union,
    missing-intersection.  witness names the offending member pair when the
    kind involves one.
    """

    def __init__(self, kind: str, witness: tuple[str, ...] = ()):
        self.kind = kind
        self.witness = witness
        detail = f" (witness: {', '.join(witness)})" if witness else ""
        super().__init__(f"{kind}{detail}")


class ScopeViolations(SoftAuraError):
    """All scope-function violations, collected exhaustively."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations) or "scope violations")


class DocumentError(SoftAuraError):
    """A document is structurally malformed (schema-level, not domain-level)."""
