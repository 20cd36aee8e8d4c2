"""Finite soft sets and their parameterwise Boolean algebra.

A soft set over a context (X, E) assigns to every parameter e in E a subset
of the universe X.  Slices are stored as bitmasks over the declared universe
order, so the algebra is O(|E|) integer arithmetic and every value is
immutable and hashable.  The declared order of points and parameters is the
canonical order used by every rendering and enumeration in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import (
    ContextMismatch,
    ExtraParameter,
    MissingParameter,
    UnknownPoint,
)

#: Default ceiling on universe size.  Bitmask integers scale past this; the
#: limit exists to catch accidentally huge inputs.  Pass Context(..., limit=n)
#: to raise it for a deliberate large universe.
DEFAULT_UNIVERSE_LIMIT = 64


@dataclass(frozen=True)
class Context:
    """Ordered universe and parameter set scoping every other value.

    Identifiers are opaque strings; equality of contexts is equality of the
    two declared tuples, order included.
    """

    universe: tuple[str, ...]
    parameters: tuple[str, ...]
    limit: int = field(default=DEFAULT_UNIVERSE_LIMIT, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "universe", tuple(self.universe))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        if not self.universe:
            raise ValueError("universe must be nonempty")
        if not self.parameters:
            raise ValueError("parameter set must be nonempty")
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("duplicate point identifiers")
        if len(set(self.parameters)) != len(self.parameters):
            raise ValueError("duplicate parameter identifiers")
        if len(self.universe) > self.limit:
            raise ValueError(
                f"universe has {len(self.universe)} points, limit is {self.limit}; "
                "pass Context(..., limit=...) to raise it deliberately"
            )

    @cached_property
    def point_index(self) -> dict[str, int]:
        return {x: i for i, x in enumerate(self.universe)}

    @cached_property
    def param_index(self) -> dict[str, int]:
        return {e: i for i, e in enumerate(self.parameters)}

    @cached_property
    def n_points(self) -> int:
        return len(self.universe)

    @cached_property
    def n_params(self) -> int:
        return len(self.parameters)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.universe)) - 1

    def mask_of(self, points: Iterable[str], param: str | None = None) -> int:
        """Bitmask for a collection of point names; unknown names raise."""
        index = self.point_index
        mask = 0
        for p in points:
            try:
                mask |= 1 << index[p]
            except KeyError:
                raise UnknownPoint(p, param) from None
        return mask

    def points_of(self, mask: int) -> tuple[str, ...]:
        """Point names of a bitmask, in canonical (declared) order."""
        return tuple(x for i, x in enumerate(self.universe) if mask >> i & 1)


def _require_same_context(a: Context, b: Context) -> None:
    if a is not b and a != b:
        raise ContextMismatch("operands have different contexts")


@dataclass(frozen=True)
class SoftSet:
    """Immutable soft set: one universe bitmask per parameter.

    `masks[i]` is the slice at `context.parameters[i]`.  All operations are
    pure and parameterwise.
    """

    context: Context
    masks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(self.masks))
        if len(self.masks) != self.context.n_params:
            raise ValueError("one mask per parameter required")
        full = self.context.full_mask
        for m in self.masks:
            if not 0 <= m <= full:
                raise ValueError("slice mask out of range for the universe")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_slices(cls, context: Context, slices: Mapping[str, Iterable[str]]) -> "SoftSet":
        """Build from {parameter: points}.  The mapping must be total on E."""
        for e in context.parameters:
            if e not in slices:
                raise MissingParameter(e)
        for e in slices:
            if e not in context.param_index:
                raise ExtraParameter(e)
        return cls(context, tuple(context.mask_of(slices[e], e) for e in context.parameters))

    @classmethod
    def null(cls, context: Context) -> "SoftSet":
        return cls(context, (0,) * context.n_params)

    @classmethod
    def absolute(cls, context: Context) -> "SoftSet":
        return cls(context, (context.full_mask,) * context.n_params)

    @classmethod
    def point(cls, context: Context, x: str) -> "SoftSet":
        """The soft point of x: every slice is {x}."""
        if x not in context.point_index:
            raise UnknownPoint(x)
        bit = 1 << context.point_index[x]
        return cls(context, (bit,) * context.n_params)

    # -- accessors ---------------------------------------------------------

    def points(self, param: str) -> tuple[str, ...]:
        """Slice at `param` as point names in canonical order."""
        ctx = self.context
        if param not in ctx.param_index:
            raise ExtraParameter(param)
        return ctx.points_of(self.masks[ctx.param_index[param]])

    def as_dict(self) -> dict[str, tuple[str, ...]]:
        """All slices as {parameter: points}, canonical order throughout."""
        return {e: self.context.points_of(m) for e, m in zip(self.context.parameters, self.masks)}

    def is_null(self) -> bool:
        return all(m == 0 for m in self.masks)

    def is_absolute(self) -> bool:
        full = self.context.full_mask
        return all(m == full for m in self.masks)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "SoftSet") -> "SoftSet":
        _require_same_context(self.context, other.context)
        return _trusted(self.context, tuple(a | b for a, b in zip(self.masks, other.masks)))

    def intersect(self, other: "SoftSet") -> "SoftSet":
        _require_same_context(self.context, other.context)
        return _trusted(self.context, tuple(a & b for a, b in zip(self.masks, other.masks)))

    def complement(self) -> "SoftSet":
        full = self.context.full_mask
        return _trusted(self.context, tuple(full & ~m for m in self.masks))

    def is_subset_of(self, other: "SoftSet") -> bool:
        _require_same_context(self.context, other.context)
        return all(a & ~b == 0 for a, b in zip(self.masks, other.masks))

    __or__ = union
    __and__ = intersect
    __invert__ = complement

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{e}={{{', '.join(pts)}}}" for e, pts in self.as_dict().items()
        )
        return f"SoftSet({inner})"


def _trusted(context: Context, masks: tuple[int, ...]) -> SoftSet:
    """A SoftSet built without __post_init__, for library-computed masks.

    The caller guarantees that `masks` is a tuple of one in-range mask per
    parameter of `context`, computed from masks already checked there.
    Writing the instance dict directly skips the validation and the frozen
    __setattr__; equality, hashing and repr are those of any SoftSet.
    """
    s = object.__new__(SoftSet)
    d = s.__dict__
    d["context"] = context
    d["masks"] = masks
    return s


def make_soft_set(context: Context, slices: Mapping[str, Iterable[str]]) -> SoftSet:
    """Alias for SoftSet.from_slices."""
    return SoftSet.from_slices(context, slices)


def big_union(context: Context, sets: Iterable[SoftSet]) -> SoftSet:
    """Union of any finite family; the empty family yields the null soft set."""
    out = SoftSet.null(context)
    for s in sets:
        out = out.union(s)
    return out


def big_intersect(context: Context, sets: Iterable[SoftSet]) -> SoftSet:
    """Intersection of any finite family; the empty family yields the absolute soft set."""
    out = SoftSet.absolute(context)
    for s in sets:
        out = out.intersect(s)
    return out


def iter_all_soft_sets(context: Context) -> Iterator[SoftSet]:
    """Every soft set over the context, in canonical combined-bitmask order.

    The combined rank places parameter 0 in the least significant bits; the
    last parameter varies slowest.  Intended for small exhaustive scans; the
    caller is responsible for sizing (2^(|X|*|E|) values).
    """
    n = context.n_points
    m = context.n_params
    slice_mask = (1 << n) - 1
    for combined in range(1 << (n * m)):
        yield _trusted(
            context, tuple((combined >> (i * n)) & slice_mask for i in range(m))
        )
