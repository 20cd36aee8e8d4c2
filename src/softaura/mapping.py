"""Soft mappings between spaces and their continuity classes.

A soft mapping is a point map u: X -> Y together with a parameter map
p: E -> K.  The inverse image of a target soft set takes, at each source
parameter e, the u-preimage of the slice at p(e).  Inverse images commute
with unions, intersections and complements.

Continuity (and its alpha/semi/pre/beta variants) quantifies over the
target's aura-open family: the mapping is C-continuous when every inverse
image of a target aura-open set lands in class C at the source.  The target
family can instead be taken as the complements of target closure fixpoints
(kind "kuratowski" — extensionally the same family on finite spaces) or as
the target's ambient topology ("ambient"), for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .errors import (
    CapExceeded,
    ContextMismatch,
    SpaceMismatch,
    UnknownParameter,
    UnknownPoint,
)
from .genopen import classify
from .operators import (
    CECH,
    KURATOWSKI,
    _closure_fn,
    enumerate_aura_topology,
    kuratowski_closure,
)
from .softset import SoftSet
from .space import DEFAULT_CAP, SoftAuraSpace

TARGET_AURA = "aura"
TARGET_KURATOWSKI = "kuratowski"
TARGET_AMBIENT = "ambient"


@dataclass(frozen=True)
class SoftMapping:
    """Point map and parameter map between two aura spaces.

    Both tables must be total on the source and land inside the target;
    equality of mappings is extensional (same tables, same space values).
    """

    source: SoftAuraSpace
    target: SoftAuraSpace
    point_map: dict[str, str]
    param_map: dict[str, str]

    def __post_init__(self):
        src, tgt = self.source.context, self.target.context
        for x in src.universe:
            if x not in self.point_map:
                raise ValueError(f"point map missing {x!r}")
            if self.point_map[x] not in tgt.point_index:
                raise UnknownPoint(self.point_map[x])
        for x in self.point_map:
            if x not in src.point_index:
                raise UnknownPoint(x)
        for e in src.parameters:
            if e not in self.param_map:
                raise ValueError(f"parameter map missing {e!r}")
            if self.param_map[e] not in tgt.param_index:
                raise UnknownParameter(self.param_map[e])
        for e in self.param_map:
            if e not in src.param_index:
                raise UnknownParameter(e)

    @cached_property
    def _point_preimage(self) -> tuple[int, ...]:
        """For each target point index, the bitmask of source points mapping to it."""
        src, tgt = self.source.context, self.target.context
        out = [0] * tgt.n_points
        for xi, x in enumerate(src.universe):
            out[tgt.point_index[self.point_map[x]]] |= 1 << xi
        return tuple(out)

    @cached_property
    def _param_image(self) -> tuple[int, ...]:
        """For each source parameter index, the target parameter index."""
        src, tgt = self.source.context, self.target.context
        return tuple(tgt.param_index[self.param_map[e]] for e in src.parameters)


def identity_mapping(space: SoftAuraSpace) -> SoftMapping:
    ctx = space.context
    return SoftMapping(space, space, {x: x for x in ctx.universe}, {e: e for e in ctx.parameters})


def inverse_image(m: SoftMapping, g: SoftSet) -> SoftSet:
    """Soft set over the source: slice at e is the point preimage of g at p(e)."""
    if g.context != m.target.context:
        raise ContextMismatch("inverse image argument must live over the target context")
    pre = m._point_preimage
    masks = []
    for ki in m._param_image:
        gm = g.masks[ki]
        acc = 0
        rest = gm
        while rest:
            low = rest & -rest
            acc |= pre[low.bit_length() - 1]
            rest ^= low
        masks.append(acc)
    return SoftSet(m.source.context, tuple(masks))


def _target_family(m: SoftMapping, cap: int, target_family: str) -> Iterator[SoftSet]:
    if target_family == TARGET_AURA:
        return iter(enumerate_aura_topology(m.target, cap))
    if target_family == TARGET_KURATOWSKI:
        return _kuratowski_open_family(m.target, cap)
    if target_family == TARGET_AMBIENT:
        return _ambient_family(m.target, cap)
    raise ValueError(f"unknown target family {target_family!r}")


def _kuratowski_open_family(space: SoftAuraSpace, cap: int) -> Iterator[SoftSet]:
    """Complements of closure fixpoints, in the same canonical order as the aura family."""
    from .softset import iter_all_soft_sets

    ctx = space.context
    total = 1 << (ctx.n_points * ctx.n_params)
    if total > cap:
        raise CapExceeded(total, cap)
    for s in iter_all_soft_sets(ctx):
        comp = s.complement()
        if kuratowski_closure(space, comp).closure == comp:
            yield s


def _ambient_family(space: SoftAuraSpace, cap: int) -> Iterator[SoftSet]:
    from .softset import iter_all_soft_sets

    topo = space.topology
    if topo.is_extensional:
        if len(topo) > cap:
            raise CapExceeded(len(topo), cap)
        return iter(s for _, s in topo)
    ctx = space.context
    total = 1 << (ctx.n_points * ctx.n_params)
    if total > cap:
        raise CapExceeded(total, cap)
    return iter_all_soft_sets(ctx)


@dataclass(frozen=True)
class ContinuityProfile:
    """Continuity flags for one mapping under one closure kind.

    Implications run continuous => alpha => semi and pre => beta.
    """

    continuous: bool
    alpha_continuous: bool
    semi_continuous: bool
    pre_continuous: bool
    beta_continuous: bool
    closure_kind: str


def continuity_profile(
    m: SoftMapping,
    kind: str = CECH,
    cap: int = DEFAULT_CAP,
    target_family: str = TARGET_AURA,
) -> ContinuityProfile:
    """Classify the inverse image of every member of the target open family."""
    continuous = alpha = semi = pre = beta = True
    for v in _target_family(m, cap, target_family):
        prof = classify(m.source, inverse_image(m, v), kind)
        continuous &= prof.a_open
        alpha &= prof.alpha_open
        semi &= prof.semi_open
        pre &= prof.pre_open
        beta &= prof.beta_open
        if not (continuous or alpha or semi or pre or beta):
            break
    return ContinuityProfile(continuous, alpha, semi, pre, beta, kind)


def compose(first: SoftMapping, second: SoftMapping) -> SoftMapping:
    """The mapping 'first then second'; requires first.target == second.source as values."""
    if first.target != second.source:
        raise SpaceMismatch("inner spaces differ; cannot compose")
    return SoftMapping(
        first.source,
        second.target,
        {x: second.point_map[y] for x, y in first.point_map.items()},
        {e: second.param_map[k] for e, k in first.param_map.items()},
    )


def verify_closure_characterization(
    m: SoftMapping,
    samples: int | None = None,
    kind: str = CECH,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> tuple[bool, SoftSet | None]:
    """Check: continuous iff cl(f^{-1} G) is inside f^{-1}(cl G) for all target G.

    With samples=None every target soft set is enumerated (cap-guarded, so
    the biconditional is decided exactly); otherwise `samples` random target
    sets are drawn from the given seed.  Returns (biconditional held, first
    G violating the containment or None).  An unknown `kind` raises
    ValueError before any target set is enumerated or the cap is checked.
    """
    import random

    tgt_ctx = m.target.context
    cl_src = _closure_fn(m.source, kind)
    cl_tgt = _closure_fn(m.target, kind)
    if samples is None:
        total = 1 << (tgt_ctx.n_points * tgt_ctx.n_params)
        if total > cap:
            raise CapExceeded(total, cap)
        from .softset import iter_all_soft_sets

        candidates = iter_all_soft_sets(tgt_ctx)
    else:
        rng = random.Random(seed)
        full = tgt_ctx.full_mask

        def draw():
            for _ in range(samples):
                yield SoftSet(
                    tgt_ctx,
                    tuple(rng.randrange(full + 1) for _ in range(tgt_ctx.n_params)),
                )

        candidates = draw()

    all_hold = True
    witness: SoftSet | None = None
    for g in candidates:
        h = inverse_image(m, g)
        if not cl_src(h).is_subset_of(inverse_image(m, cl_tgt(g))):
            all_hold = False
            witness = g
            break
    continuous = continuity_profile(m, kind=kind, cap=cap).continuous
    return continuous == all_hold, witness


def verify_decomposition(
    m: SoftMapping,
    kind: str = KURATOWSKI,
    cap: int = DEFAULT_CAP,
) -> tuple[bool, SoftSet | None]:
    """Check alpha-continuous iff (semi-continuous and pre-continuous).

    With the fixpoint closure the equivalence always holds, so False is a
    falsification to report; with the one-step closure this only reports
    whether the equivalence happened to hold.  The witness is the first
    target open set whose inverse image decides the mismatch, or None.
    """
    prof = continuity_profile(m, kind=kind, cap=cap)
    held = prof.alpha_continuous == (prof.semi_continuous and prof.pre_continuous)
    if held:
        return True, None
    for v in _target_family(m, cap, TARGET_AURA):
        p = classify(m.source, inverse_image(m, v), kind)
        if p.alpha_open != (p.semi_open and p.pre_open):
            return False, v
    return False, None
