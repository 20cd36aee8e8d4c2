"""Finite soft sets and their parameterwise Boolean algebra.

A soft set over a context (X, E) assigns to every parameter e in E a subset
of the universe X.  Slices are stored as bitmasks over the declared universe
order, so the algebra is O(|E|) integer arithmetic and every value is
immutable and hashable.  The declared order of points and parameters is the
canonical order used by every rendering and enumeration in the package.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ContextMismatch,
    ExtraParameter,
    MissingParameter,
    UnknownPoint,
    _Frozen,
    _setfield,
)

#: Default ceiling on universe size.  Bitmask integers scale past this; the
#: limit exists to catch accidentally huge inputs.  Pass Context(..., limit=n)
#: to raise it for a deliberate large universe.
DEFAULT_UNIVERSE_LIMIT = 64


class Context(_Frozen):
    """Ordered universe and parameter set scoping every other value.

    Identifiers are opaque strings; equality of contexts is equality of the
    two declared tuples, order included.  `limit` is neither shown nor
    compared; the indexes and sizes are derived once, on construction.
    """

    _fields = ("universe", "parameters")
    __slots__ = (*_fields, "limit", "point_index", "param_index", "n_points", "n_params", "full_mask")

    def __init__(
        self,
        universe: tuple[str, ...],
        parameters: tuple[str, ...],
        limit: int = DEFAULT_UNIVERSE_LIMIT,
    ):
        universe, parameters = tuple(universe), tuple(parameters)
        if not universe:
            raise ValueError("universe must be nonempty")
        if not parameters:
            raise ValueError("parameter set must be nonempty")
        if len(set(universe)) != len(universe):
            raise ValueError("duplicate point identifiers")
        if len(set(parameters)) != len(parameters):
            raise ValueError("duplicate parameter identifiers")
        if len(universe) > limit:
            raise ValueError(
                f"universe has {len(universe)} points, limit is {limit}; "
                "pass Context(..., limit=...) to raise it deliberately"
            )
        self._store(universe, parameters)
        _setfield(self, "limit", limit)
        _setfield(self, "point_index", {x: i for i, x in enumerate(universe)})
        _setfield(self, "param_index", {e: i for i, e in enumerate(parameters)})
        _setfield(self, "n_points", len(universe))
        _setfield(self, "n_params", len(parameters))
        _setfield(self, "full_mask", (1 << len(universe)) - 1)

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


class SoftSet(_Frozen):
    """Immutable soft set: one universe bitmask per parameter.

    `masks[i]` is the slice at `context.parameters[i]`.  All operations are
    pure and parameterwise.  Equality and hashing read the two fields
    directly and `_values` stays unset, so _trusted builds no extra tuple.
    """

    __slots__ = ("context", "masks")

    def __init__(self, context: Context, masks: tuple[int, ...]):
        masks = tuple(masks)
        if len(masks) != context.n_params:
            raise ValueError("one mask per parameter required")
        full = context.full_mask
        for m in masks:
            if not 0 <= m <= full:
                raise ValueError("slice mask out of range for the universe")
        _setfield(self, "context", context)
        _setfield(self, "masks", masks)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.context, self.masks) == (other.context, other.masks)

    def __hash__(self) -> int:
        return hash((self.context, self.masks))

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


_new = object.__new__
_set_context = SoftSet.context.__set__
_set_masks = SoftSet.masks.__set__


def _trusted(context: Context, masks: tuple[int, ...]) -> SoftSet:
    """A SoftSet built without __init__, for library-computed masks.

    The caller guarantees that `masks` is a tuple of one in-range mask per
    parameter of `context`, computed from masks already checked there.
    Writing the slots through their descriptors skips the validation and the
    frozen __setattr__; equality, hashing and repr are those of any SoftSet.
    """
    s = _new(SoftSet)
    _set_context(s, context)
    _set_masks(s, masks)
    return s


def _pack(masks: Sequence[int], n: int) -> int:
    """One n*m-bit integer for the slices of an n-point soft set, parameter i at bit i*n up.

    Integer order on packed sets is the canonical order of soft sets.
    """
    out = 0
    for i, m in enumerate(masks):
        out |= m << (i * n)
    return out


def _unpack(ctx: Context, g: int) -> SoftSet:
    """The soft set over ctx whose packed form is g."""
    n = ctx.n_points
    return _trusted(ctx, tuple((g >> (i * n)) & ctx.full_mask for i in range(ctx.n_params)))


def make_soft_set(context: Context, slices: Mapping[str, Iterable[str]]) -> SoftSet:
    """Alias for SoftSet.from_slices."""
    return SoftSet.from_slices(context, slices)


def iter_all_soft_sets(context: Context) -> Iterator[SoftSet]:
    """Every soft set over the context, in canonical packed order (see _pack).

    The last parameter varies slowest.  Intended for small exhaustive scans;
    the caller is responsible for sizing (2^(|X|*|E|) values).
    """
    for g in range(1 << (context.n_points * context.n_params)):
        yield _unpack(context, g)
