"""Aura closure and interior operators, and the open-set families they induce.

For a space with scope function a, the aura closure of G collects, slice by
slice, the points whose scope meets G; the aura interior keeps the points
whose scope fits inside G.  The closure is grounded, enlarging, monotone and
additive but not idempotent; iterating it per parameter to a fixpoint gives
the idempotent (Kuratowski) closure.  Both operators are O(|X|^2 * |E|)
bitmask scans.

A soft set is aura-open when it equals its own interior; slice by slice the
aura-open sets form, at each parameter, the family of sets closed upward
under taking scopes, and the full aura-open family is the product of those
per-parameter families.
"""

from __future__ import annotations

import itertools
from .errors import CapExceeded, InternalNonMonotone, NotSingletonE, UnknownParameter, _Frozen
from .softset import SoftSet, _require_same_context, _trusted
from .space import DEFAULT_CAP, SoftAuraSpace, _unions

#: Closure-kind tags used wherever an operator variant can be selected.
CECH = "cech"
KURATOWSKI = "kuratowski"

#: Target-family tags for continuity (mapping.py): the target's aura-open
#: family, the complements of its closure fixpoints, or its ambient topology.
TARGET_AURA = "aura"
TARGET_KURATOWSKI = "kuratowski"
TARGET_AMBIENT = "ambient"


def _slice_closure_fn(space: SoftAuraSpace, kind: str):
    """The closure of `space` named by `kind` on one slice, (ei, mask) -> mask; ValueError for any other kind."""
    if kind == CECH:
        cols = space.scope_columns
        return lambda ei, g: _closure_slice(cols[ei], g)
    if kind == KURATOWSKI:
        return lambda ei, g: _fixpoint_slice(space, ei, g)[0]
    raise ValueError(f"unknown closure kind {kind!r}")


def _closure_slice(col, g: int) -> int:
    """One closure step on slice g of one parameter: the bits of the points whose scope slice in `col` meets g."""
    out = 0
    for bit, mask in col:
        if mask & g:
            out |= bit
    return out


def _fixpoint_slice(space: SoftAuraSpace, ei: int, g: int) -> tuple[int, int]:
    """(fixpoint, strictly growing steps) of the closure iterated on slice g at ei.

    A step that shrinks the slice raises InternalNonMonotone naming the parameter.
    """
    col = space.scope_columns[ei]
    growth = 0
    while True:
        nxt = _closure_slice(col, g)
        if g & ~nxt:
            raise InternalNonMonotone(f"slice shrank at parameter {space.context.parameters[ei]!r}")
        if nxt == g:
            return g, growth
        g = nxt
        growth += 1


def aura_closure(space: SoftAuraSpace, g: SoftSet) -> SoftSet:
    """Slicewise: every point whose scope slice meets the corresponding slice of g."""
    _require_same_context(space.context, g.context)
    return _trusted(space.context, tuple(map(_closure_slice, space.scope_columns, g.masks)))


def aura_interior(space: SoftAuraSpace, g: SoftSet) -> SoftSet:
    """Slicewise X - cl(X - g): every point whose scope slice misses X - g, so lies inside g."""
    _require_same_context(space.context, g.context)
    full = space.context.full_mask
    return _trusted(
        space.context,
        tuple(full ^ _closure_slice(col, full ^ gm) for col, gm in zip(space.scope_columns, g.masks)),
    )


class KuratowskiResult(_Frozen):
    """Fixpoint closure plus, per parameter, the iteration count that reached it.

    iterations[e] is the number of strictly growing closure applications
    (minimum 1, so a fixpoint input reports a single confirming pass); it
    never exceeds |X|.
    """

    __slots__ = ("closure", "iterations")


def kuratowski_closure(space: SoftAuraSpace, g: SoftSet) -> KuratowskiResult:
    """Iterate the aura closure per parameter until it stabilises.

    The result is idempotent, contains the single-step closure, and each
    parameter stabilises within |X| steps because every non-final step adds
    at least one point.  A shrinking slice would be an implementation bug
    and raises InternalNonMonotone.
    """
    _require_same_context(space.context, g.context)
    out_masks = []
    iterations: dict[str, int] = {}
    for ei, e in enumerate(space.context.parameters):
        mask, growth = _fixpoint_slice(space, ei, g.masks[ei])
        iterations[e] = max(growth, 1)
        out_masks.append(mask)
    return KuratowskiResult(_trusted(space.context, tuple(out_masks)), iterations)


def is_aura_open(space: SoftAuraSpace, g: SoftSet) -> bool:
    """True when g equals its aura interior."""
    return aura_interior(space, g) == g


def is_aura_closed(space: SoftAuraSpace, g: SoftSet) -> bool:
    """True when the complement of g is aura-open."""
    return is_aura_open(space, g.complement())


def _reach_masks(space: SoftAuraSpace, ei: int) -> list[int]:
    """R_e(x) per point x: the least aura-open slice at ei holding x.

    The aura-open slices at ei are the sets closed under the reach preorder
    of the scope slices (Alexandroff), so R_e(x) is the row of x in their
    transitive closure, computed by Warshall's algorithm on bitset rows.
    """
    n = space.context.n_points
    reach = [space.scope_masks[xi][ei] for xi in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    return reach


def _alexandrov_slice_masks(
    space: SoftAuraSpace, ei: int, cap: int, family: str = "aura topology"
) -> list[int]:
    """Masks S with: every point of S has its scope slice at ei inside S; ascending.

    These are the unions of the least aura-open slices R_e(x), enumerated
    from the reach masks.  A space with 2^|X| > cap fails the cap before
    any enumeration, and the failure names `family`.
    """
    n = space.context.n_points
    if 1 << n > cap:
        raise CapExceeded(1 << n, cap, family)
    return _unions(_reach_masks(space, ei), cap)


def per_parameter_alexandrov(space: SoftAuraSpace, param: str, cap: int = DEFAULT_CAP):
    """The family of aura-open slices at one parameter, as point tuples in canonical order."""
    ctx = space.context
    if param not in ctx.param_index:
        raise UnknownParameter(param)
    masks = _alexandrov_slice_masks(space, ctx.param_index[param], cap)
    return [ctx.points_of(m) for m in masks]


def enumerate_aura_topology(space: SoftAuraSpace, cap: int = DEFAULT_CAP) -> list[SoftSet]:
    """All aura-open soft sets: the product of the per-parameter families.

    Members are emitted in canonical order: per-parameter families ascend by
    bitmask and the product varies the last parameter fastest.  Raises
    CapExceeded before materialising anything larger than `cap`.
    """
    ctx = space.context
    families = [
        _alexandrov_slice_masks(space, ei, cap) for ei in range(ctx.n_params)
    ]
    total = 1
    for fam in families:
        total *= len(fam)
    if total > cap:
        raise CapExceeded(total, cap, "aura topology")
    return [_trusted(ctx, masks) for masks in itertools.product(*families)]


def singleton_e_inclusion_check(space: SoftAuraSpace, cap: int = DEFAULT_CAP) -> bool:
    """For a single-parameter space: is every aura-open set a member of the ambient topology?"""
    if space.context.n_params != 1:
        raise NotSingletonE("inclusion check requires exactly one parameter")
    return all(space.topology.contains(s) for s in enumerate_aura_topology(space, cap))
