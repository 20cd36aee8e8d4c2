"""Exception types and structured violation records shared across the package."""

from __future__ import annotations

#: Sets a field of a frozen record; only a record's own __init__ calls it.
_setfield = object.__setattr__


class _Frozen:
    """Base of the package's slotted records: values fixed at construction.

    A record's fields are its `__slots__`, in order, unless the class lists
    them in `_fields`.  Records have field-wise repr, equality and hashing;
    records of different types never compare equal.  Every __init__ ends
    with one call, `_freeze(self, *values)`, the values in `_fields` order;
    a hand-written one validates its arguments first.  A record class that
    defines no __init__ gets one taking exactly its fields, generated once
    per class the way collections.namedtuple generates __new__.  _freeze
    sets each field slot and keeps the same values as the tuple `_values`,
    which equality and hashing read instead of every field.  Only derived
    slots outside `_fields` are set with _setfield.  Later assignment
    raises AttributeError.
    """

    __slots__ = ("_values",)

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__slots__" not in cls.__dict__:
            return
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        # each field slot's own setter, resolved once per class
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)
        if "__init__" not in cls.__dict__:
            fields = ", ".join(cls._fields)
            namespace = {"_freeze": _freeze}
            exec(f"def __init__(self, {fields}):\n    _freeze(self, {fields})\n", namespace)
            init = cls.__init__ = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__module__ = cls.__module__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore slots as (None, {slot: value})
        for name, value in state[1].items():
            _setfield(self, name, value)


#: Sets `_values` of a frozen record; only _freeze calls it.
_setvalues = _Frozen._values.__set__


def _freeze(record: _Frozen, *values) -> None:
    """Set the fields of `record`, given in `_fields` order, then its `_values`."""
    for setter, value in zip(record._setters, values):
        setter(record, value)
    _setvalues(record, values)


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
    "scope functions", "topology generation", "soft sets", "mappings".
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


class MembershipViolation(_Frozen):
    """Point is missing from its own scope slice at `param`."""

    __slots__ = ("point", "param")

    def __str__(self) -> str:
        return f"scope of {self.point!r} does not contain it at {self.param!r}"


class NotOpen(_Frozen):
    """The soft set assigned to `point` is not a member of the topology."""

    __slots__ = ("point",)

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
