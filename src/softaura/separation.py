"""Separation axioms decided from the scope table.

T0 asks, for each pair of distinct points, for some parameter excluding one
point from the other's scope; T1 asks for every parameter to exclude both
ways, which happens exactly when every scope slice is the singleton of its
point, and is equivalent to the disjoint-scopes axiom T2.  Regularity asks,
per point, parameter and aura-closed set avoiding the point there, for
disjoint aura-open slices separating them; T3 is regular plus T1.

At parameter e the aura-open slices are the sets closed under the reach
preorder of the scope slices (Alexandroff), so the least one holding x is
its reach set R_e(x).  Regularity fails at (x, e) iff R_e(x) meets the reach
of its complement; that complement, absolute elsewhere, is the witness.
Nothing is enumerated, so no cap applies.

Deciders scan in canonical order (points, then points, then parameters), so
the reported witness of a failed axiom is always the first violation in
that order.
"""

from __future__ import annotations

from .errors import _Frozen
from .operators import _reach_masks, aura_closure
from .softset import SoftSet
from .space import SoftAuraSpace


class PairWitness(_Frozen):
    """Two points (ordered as scanned) and, when one decides, the parameter."""

    __slots__ = ("x", "y", "param")

    def __init__(self, x: str, y: str, param: str | None = None):
        self._store(x, y, param)


class RegularityWitness(_Frozen):
    """A point, a parameter, and an aura-closed set that no open pair separates."""

    __slots__ = ("point", "param", "closed_set")


class SeparationReport(_Frozen):
    __slots__ = ("t0", "t1", "t2", "regular", "t3", "witnesses")


def _t0(space: SoftAuraSpace) -> tuple[bool, PairWitness | None]:
    sm = space.scope_masks
    ctx = space.context
    n, m = ctx.n_points, ctx.n_params
    for xi in range(n):
        for yi in range(xi + 1, n):
            if all(
                sm[xi][ei] >> yi & 1 and sm[yi][ei] >> xi & 1 for ei in range(m)
            ):
                return False, PairWitness(ctx.universe[xi], ctx.universe[yi])
    return True, None


def _t1(space: SoftAuraSpace) -> tuple[bool, PairWitness | None]:
    # Both-ways exclusion over unordered pairs equals one-way exclusion over
    # ordered pairs; scanning ordered pairs gives the canonical first atom
    # "y inside the scope of x at e".
    sm = space.scope_masks
    ctx = space.context
    n, m = ctx.n_points, ctx.n_params
    for xi in range(n):
        for yi in range(n):
            if yi == xi:
                continue
            for ei in range(m):
                if sm[xi][ei] >> yi & 1:
                    return False, PairWitness(
                        ctx.universe[xi], ctx.universe[yi], ctx.parameters[ei]
                    )
    return True, None


def _t2(space: SoftAuraSpace) -> tuple[bool, PairWitness | None]:
    sm = space.scope_masks
    ctx = space.context
    n, m = ctx.n_points, ctx.n_params
    for xi in range(n):
        for yi in range(xi + 1, n):
            for ei in range(m):
                if sm[xi][ei] & sm[yi][ei]:
                    return False, PairWitness(
                        ctx.universe[xi], ctx.universe[yi], ctx.parameters[ei]
                    )
    return True, None


def _regular(space: SoftAuraSpace) -> tuple[bool, RegularityWitness | None]:
    # Aura-open sets are slicewise products, so only the e-slices matter.  The
    # largest closed slice avoiding x, X \ R_e(x), is the hardest to separate
    # from x, and the least open slice around a set is the union of R_e over it.
    ctx = space.context
    n, full = ctx.n_points, ctx.full_mask
    reaches = [_reach_masks(space, ei) for ei in range(ctx.n_params)]
    for xi in range(n):
        for ei, reach in enumerate(reaches):
            closed = full & ~reach[xi]
            if any(reach[yi] & reach[xi] for yi in range(n) if closed >> yi & 1):
                masks = [full] * ctx.n_params
                masks[ei] = closed
                return False, RegularityWitness(
                    ctx.universe[xi],
                    ctx.parameters[ei],
                    SoftSet(ctx, tuple(masks)),
                )
    return True, None


def separation_report(space: SoftAuraSpace) -> SeparationReport:
    """Decide T0, T1, T2, regular and T3, each with its own canonical scan."""
    t0, w0 = _t0(space)
    t1, w1 = _t1(space)
    t2, w2 = _t2(space)
    regular, wr = _regular(space)
    witnesses: dict[str, PairWitness | RegularityWitness] = {}
    if w0 is not None:
        witnesses["t0"] = w0
    if w1 is not None:
        witnesses["t1"] = w1
    if w2 is not None:
        witnesses["t2"] = w2
    if wr is not None:
        witnesses["regular"] = wr
    return SeparationReport(t0, t1, t2, regular, t1 and regular, witnesses)


def t1_via_singleton_scopes(space: SoftAuraSpace) -> bool:
    """The T1 characterization: every scope slice is the singleton of its point."""
    sm = space.scope_masks
    return all(
        sm[xi][ei] == 1 << xi
        for xi in range(space.context.n_points)
        for ei in range(space.context.n_params)
    )


class SingletonClosureCheck(_Frozen):
    """Result of the soft-point closure test; vacuous when the space is not T1."""

    __slots__ = ("holds", "vacuous")


def t1_singleton_closure(space: SoftAuraSpace) -> SingletonClosureCheck:
    """In a T1 space every soft point is its own aura closure; vacuously true otherwise."""
    if not t1_via_singleton_scopes(space):
        return SingletonClosureCheck(True, True)
    ctx = space.context
    holds = all(
        aura_closure(space, SoftSet.point(ctx, x)) == SoftSet.point(ctx, x)
        for x in ctx.universe
    )
    return SingletonClosureCheck(holds, False)
