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
from dataclasses import dataclass

from .errors import (
    CapExceeded,
    InternalNonMonotone,
    NotSingletonE,
    UnknownParameter,
)
from .softset import SoftSet, _require_same_context, _trusted
from .space import DEFAULT_CAP, SoftAuraSpace

#: Closure-kind tags used wherever an operator variant can be selected.
CECH = "cech"
KURATOWSKI = "kuratowski"

#: Target-family tags for continuity (mapping.py): the target's aura-open
#: family, the complements of its closure fixpoints, or its ambient topology.
TARGET_AURA = "aura"
TARGET_KURATOWSKI = "kuratowski"
TARGET_AMBIENT = "ambient"


def _closure_fn(space: SoftAuraSpace, kind: str):
    """The closure operator of `space` named by `kind`; ValueError for any other kind."""
    if kind == CECH:
        return lambda s: aura_closure(space, s)
    if kind == KURATOWSKI:
        return lambda s: kuratowski_closure(space, s).closure
    raise ValueError(f"unknown closure kind {kind!r}")


def _closure_slice(scope_masks, n: int, ei: int, g: int) -> int:
    out = 0
    for xi in range(n):
        if scope_masks[xi][ei] & g:
            out |= 1 << xi
    return out


def _interior_slice(scope_masks, n: int, ei: int, g: int) -> int:
    out = 0
    for xi in range(n):
        if scope_masks[xi][ei] & ~g == 0:
            out |= 1 << xi
    return out


def aura_closure(space: SoftAuraSpace, g: SoftSet) -> SoftSet:
    """Slicewise: every point whose scope slice meets the corresponding slice of g."""
    _require_same_context(space.context, g.context)
    sm = space.scope_masks
    n = space.context.n_points
    return _trusted(
        space.context,
        tuple(_closure_slice(sm, n, ei, gm) for ei, gm in enumerate(g.masks)),
    )


def aura_interior(space: SoftAuraSpace, g: SoftSet) -> SoftSet:
    """Slicewise: every point whose scope slice is contained in the corresponding slice of g."""
    _require_same_context(space.context, g.context)
    sm = space.scope_masks
    n = space.context.n_points
    return _trusted(
        space.context,
        tuple(_interior_slice(sm, n, ei, gm) for ei, gm in enumerate(g.masks)),
    )


@dataclass(frozen=True)
class KuratowskiResult:
    """Fixpoint closure plus, per parameter, the iteration count that reached it.

    iterations[e] is the number of strictly growing closure applications
    (minimum 1, so a fixpoint input reports a single confirming pass); it
    never exceeds |X|.
    """

    closure: SoftSet
    iterations: dict[str, int]


def kuratowski_closure(space: SoftAuraSpace, g: SoftSet) -> KuratowskiResult:
    """Iterate the aura closure per parameter until it stabilises.

    The result is idempotent, contains the single-step closure, and each
    parameter stabilises within |X| steps because every non-final step adds
    at least one point.  A shrinking slice would be an implementation bug
    and raises InternalNonMonotone.
    """
    _require_same_context(space.context, g.context)
    sm = space.scope_masks
    n = space.context.n_points
    out_masks = []
    iterations: dict[str, int] = {}
    for ei, e in enumerate(space.context.parameters):
        cur = g.masks[ei]
        growth = 0
        while True:
            nxt = _closure_slice(sm, n, ei, cur)
            if cur & ~nxt:
                raise InternalNonMonotone(f"slice shrank at parameter {e!r}")
            if nxt == cur:
                break
            cur = nxt
            growth += 1
        iterations[e] = max(growth, 1)
        out_masks.append(cur)
    return KuratowskiResult(_trusted(space.context, tuple(out_masks)), iterations)


def is_aura_open(space: SoftAuraSpace, g: SoftSet) -> bool:
    """True when g equals its aura interior."""
    return aura_interior(space, g) == g


def is_aura_closed(space: SoftAuraSpace, g: SoftSet) -> bool:
    """True when the complement of g is aura-open."""
    return is_aura_open(space, g.complement())


def _alexandrov_slice_masks(space: SoftAuraSpace, ei: int, cap: int) -> list[int]:
    """Masks S with: every point of S has its scope slice at ei inside S; ascending."""
    n = space.context.n_points
    if 1 << n > cap:
        raise CapExceeded(1 << n, cap)
    sm = space.scope_masks
    scopes = [sm[xi][ei] for xi in range(n)]
    out = []
    for s in range(1 << n):
        ok = True
        rest = s
        while rest:
            low = rest & -rest
            xi = low.bit_length() - 1
            if scopes[xi] & ~s:
                ok = False
                break
            rest ^= low
        if ok:
            out.append(s)
    return out


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
        raise CapExceeded(total, cap)
    return [_trusted(ctx, masks) for masks in itertools.product(*families)]


def singleton_e_inclusion_check(space: SoftAuraSpace, cap: int = DEFAULT_CAP) -> bool:
    """For a single-parameter space: is every aura-open set a member of the ambient topology?"""
    if space.context.n_params != 1:
        raise NotSingletonE("inclusion check requires exactly one parameter")
    return all(space.topology.contains(s) for s in enumerate_aura_topology(space, cap))
