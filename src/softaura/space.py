"""Soft topologies, scope functions, and the spaces that combine them.

A soft topology is a family of soft sets containing the null and absolute
sets and closed under unions and intersections (pairwise closure suffices on
a finite family).  A scope function assigns every point an open soft set
containing the point in every slice; a space bundles a context, a topology,
and a scope function.

The discrete topology is intensional: membership is decided by a predicate,
no 2^(|X|*|E|) family is ever materialised.  Validated and generated
topologies are extensional with named members.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    CapExceeded,
    ContextMismatch,
    MembershipViolation,
    NotOpen,
    ScopeViolations,
    TopologyViolation,
    _Frozen,
    _setfield,
)
from .softset import Context, SoftSet, _pack, _require_same_context, _unpack

#: Default ceiling for enumeration results, overridable per call.
DEFAULT_CAP = 1_000_000

DISCRETE = "discrete"
INDISCRETE = "indiscrete"
EXPLICIT = "explicit"
GENERATED = "generated"

#: Names reserved for the implicit null/absolute members.
NULL_NAME = "null"
ABSOLUTE_NAME = "absolute"


class SoftTopology(_Frozen):
    """A soft topology over a context.

    kind "discrete" is intensional (members is None, contains() is a
    predicate); all other kinds carry an ordered tuple of (name, SoftSet)
    members.  Generated topologies also retain their subbasis so they can be
    re-encoded in the form they were declared.
    """

    _fields = ("context", "kind", "members", "subbasis")
    __slots__ = (*_fields, "_member_masks")

    def __init__(
        self,
        context: Context,
        kind: str,
        members: tuple[tuple[str, SoftSet], ...] | None = None,
        subbasis: tuple[tuple[str, SoftSet], ...] | None = None,
    ):
        if kind == DISCRETE:
            if members is not None:
                raise ValueError("discrete topology is intensional; no member list")
        else:
            if members is None:
                raise ValueError(f"{kind} topology requires members")
        self._store(context, kind, members, subbasis)
        _setfield(self, "_member_masks", frozenset(s.masks for _, s in members or ()))

    @property
    def is_extensional(self) -> bool:
        return self.kind != DISCRETE

    def contains(self, s: SoftSet) -> bool:
        if s.context != self.context:
            return False
        if self.kind == DISCRETE:
            return True
        return s.masks in self._member_masks

    def member_named(self, name: str) -> SoftSet | None:
        if self.members is None:
            return None
        for n, s in self.members:
            if n == name:
                return s
        return None

    def __iter__(self) -> Iterator[tuple[str, SoftSet]]:
        if self.members is None:
            raise TypeError("discrete topology is intensional; it cannot be iterated")
        return iter(self.members)

    def __len__(self) -> int:
        if self.members is None:
            raise TypeError("discrete topology is intensional; it has no member count")
        return len(self.members)


def discrete_topology(context: Context) -> SoftTopology:
    """All soft sets over the context, held intensionally."""
    return SoftTopology(context, DISCRETE)


def indiscrete_topology(context: Context) -> SoftTopology:
    """Just the null and absolute soft sets."""
    members = (
        (NULL_NAME, SoftSet.null(context)),
        (ABSOLUTE_NAME, SoftSet.absolute(context)),
    )
    return SoftTopology(context, INDISCRETE, members)


def _as_named_members(sets) -> list[tuple[str, SoftSet]]:
    if isinstance(sets, Mapping):
        items = list(sets.items())
    else:
        items = list(sets)
    names = [n for n, _ in items]
    if len(set(names)) != len(names):
        raise ValueError("member names must be unique")
    return items


def validate_topology(context: Context, sets) -> SoftTopology:
    """Check the axioms on a named family and certify it as a topology.

    `sets` is a name -> SoftSet mapping (or (name, set) pairs) that must
    already include the null and absolute sets.  Checking is fail-fast: the
    first violation found, scanning null, absolute, then member pairs in
    declared order (union before intersection per pair), raises
    TopologyViolation.  Pairwise closure is sufficient on a finite family.
    Closure itself is decided in one pass: a family holding null and
    absolute is closed iff it equals the unions of its least open
    neighbourhoods, so the pairwise scan runs only to name the violation.
    """
    items = _as_named_members(sets)
    for _, s in items:
        _require_same_context(context, s.context)

    by_masks = {s.masks: n for n, s in reversed(items)}
    null_masks = SoftSet.null(context).masks
    abs_masks = SoftSet.absolute(context).masks
    if null_masks not in by_masks:
        raise TopologyViolation("missing-null")
    if abs_masks not in by_masks:
        raise TopologyViolation("missing-absolute")

    n = context.n_points
    packed = sorted(_pack(masks, n) for masks in by_masks)
    if _unions(_least_opens(packed, n * context.n_params), len(packed)) != packed:
        for (name_a, a), (name_b, b) in itertools.combinations(items, 2):
            if tuple(x | y for x, y in zip(a.masks, b.masks)) not in by_masks:
                raise TopologyViolation("missing-union", (name_a, name_b))
            if tuple(x & y for x, y in zip(a.masks, b.masks)) not in by_masks:
                raise TopologyViolation("missing-intersection", (name_a, name_b))

    return SoftTopology(context, EXPLICIT, tuple(items))


def _least_opens(masks: Iterable[int], width: int) -> list[int]:
    """Per bit p < width, the meet of the masks holding p (full if none): p's least open neighbourhood."""
    least = [(1 << width) - 1] * width
    for s in masks:
        rest = s
        while rest:
            low = rest & -rest
            least[low.bit_length() - 1] &= s
            rest ^= low
    return least


def _unions(basis: Iterable[int], limit: int) -> list[int] | None:
    """Every union of basis masks, 0 included, ascending; None once more than `limit` turn up.

    A frontier search from {0} under `| u`: members times distinct basis masks
    steps, and past `limit` members it stops within one member's expansion.
    """
    basis = set(basis)
    seen = {0}
    frontier = [0]
    while frontier:
        grown = []
        for s in frontier:
            for u in basis:
                t = s | u
                if t not in seen:
                    seen.add(t)
                    grown.append(t)
            if len(seen) > limit:
                return None
        frontier = grown
    return sorted(seen)


def generate_topology(context: Context, subbasis, cap: int = DEFAULT_CAP) -> SoftTopology:
    """Smallest topology containing the subbasis.

    Soft sets pack into n*m-bit masks (softset._pack), so canonical order is
    integer order.  The members are the unions of the least open
    neighbourhoods U(p), the meets of the subbasis members holding p
    (Alexandroff).  Beyond max(cap, s0) members, s0 counting the distinct
    null, absolute and subbasis masks, CapExceeded is raised after about
    that many times n*m set operations.

    Derived members are named G1, G2, ... in canonical bitmask order,
    skipping subbasis names so that none is shadowed; the result keeps the
    subbasis for round-tripping.
    """
    sub_items = _as_named_members(subbasis)
    for _, s in sub_items:
        _require_same_context(context, s.context)
    reserved = {NULL_NAME, ABSOLUTE_NAME}
    for name, _ in sub_items:
        if name in reserved:
            raise ValueError(f"subbasis name {name!r} is reserved")

    n, m = context.n_points, context.n_params
    named = {SoftSet.null(context).masks: NULL_NAME, SoftSet.absolute(context).masks: ABSOLUTE_NAME}
    for name, s in sub_items:
        named.setdefault(s.masks, name)
    limit = max(len(named), cap)
    packed = (_pack(s.masks, n) for _, s in sub_items)
    family = _unions(_least_opens(packed, n * m), limit)
    if family is None:
        raise CapExceeded(limit + 1, cap, "topology generation")
    declared = {name for name, _ in sub_items}
    fresh = (name for name in (f"G{i}" for i in itertools.count(1)) if name not in declared)
    members = tuple((named.get(s.masks) or next(fresh), s) for s in (_unpack(context, g) for g in family))
    return SoftTopology(context, GENERATED, members, subbasis=tuple(sub_items))


class ScopeFunction(_Frozen):
    """Total assignment of an open soft set to every point, stored in universe order."""

    __slots__ = ("context", "assignment")

    def __init__(self, context: Context, assignment: tuple[SoftSet, ...]):
        if len(assignment) != context.n_points:
            raise ValueError("assignment must be total on the universe")
        self._store(context, assignment)

    def of(self, x: str) -> SoftSet:
        return self.assignment[self.context.point_index[x]]

    def items(self) -> Iterator[tuple[str, SoftSet]]:
        return iter(zip(self.context.universe, self.assignment))


def _check_scope(context: Context, topology: SoftTopology, assignment: Sequence[SoftSet]) -> None:
    """Raise ScopeViolations with every violation, in validate_scope's order."""
    violations: list = []
    for xi, (x, s) in enumerate(zip(context.universe, assignment)):
        if not topology.contains(s):
            violations.append(NotOpen(x))
        for ei, e in enumerate(context.parameters):
            if not s.masks[ei] >> xi & 1:
                violations.append(MembershipViolation(x, e))
    if violations:
        raise ScopeViolations(violations)


def _ordered_scope(context: Context, topology: SoftTopology, assignment: Mapping[str, SoftSet]) -> ScopeFunction:
    """A point -> soft set table in universe order, checked for shape and context only."""
    _require_same_context(context, topology.context)
    missing = [x for x in context.universe if x not in assignment]
    if missing:
        raise ValueError(f"assignment missing points: {missing}")
    extra = [x for x in assignment if x not in context.point_index]
    if extra:
        raise ValueError(f"assignment names unknown points: {extra}")

    ordered = tuple(assignment[x] for x in context.universe)
    for s in ordered:
        _require_same_context(context, s.context)
    return ScopeFunction(context, ordered)


def validate_scope(context: Context, topology: SoftTopology, assignment: Mapping[str, SoftSet]) -> ScopeFunction:
    """Check a point -> soft set table and certify it as a scope function.

    Violations are collected exhaustively (per point: NotOpen first, then
    MembershipViolation per parameter in declared order) and raised together
    as ScopeViolations.
    """
    scope = _ordered_scope(context, topology, assignment)
    _check_scope(context, topology, scope.assignment)
    return scope


class SoftAuraSpace(_Frozen):
    """A context, a soft topology over it, and a scope function into it.

    scope_masks[xi][ei] is the bitmask of the scope slice of point xi at
    parameter ei.  scope_columns[ei] is the same table compiled for the
    closure kernel: the (1 << xi, scope_masks[xi][ei]) pairs in universe
    order.
    """

    _fields = ("context", "topology", "scope")
    __slots__ = (*_fields, "scope_masks", "scope_columns")

    def __init__(self, context: Context, topology: SoftTopology, scope: ScopeFunction):
        if topology.context != context or scope.context != context:
            raise ContextMismatch("topology and scope must share the space context")
        _check_scope(context, topology, scope.assignment)
        self._store(context, topology, scope)
        masks = tuple(s.masks for s in scope.assignment)
        _setfield(self, "scope_masks", masks)
        bits = [1 << xi for xi in range(context.n_points)]
        _setfield(self, "scope_columns", tuple(tuple(zip(bits, col)) for col in zip(*masks)))

    @classmethod
    def from_assignment(
        cls, context: Context, topology: SoftTopology, assignment: Mapping[str, SoftSet]
    ) -> "SoftAuraSpace":
        """The space of a point -> soft set table, raising what validate_scope raises.

        The scope is scanned once, by the space itself; validate_scope
        followed by the constructor would scan it twice.
        """
        return cls(context, topology, _ordered_scope(context, topology, assignment))


def make_space(
    universe: Iterable[str],
    parameters: Iterable[str],
    scope: Mapping[str, Mapping[str, Iterable[str]]],
    topology: SoftTopology | None = None,
) -> SoftAuraSpace:
    """Convenience builder from plain tables; defaults to the discrete topology."""
    ctx = Context(tuple(universe), tuple(parameters))
    topo = topology if topology is not None else discrete_topology(ctx)
    assignment = {x: SoftSet.from_slices(ctx, scope[x]) for x in ctx.universe}
    return SoftAuraSpace.from_assignment(ctx, topo, assignment)
