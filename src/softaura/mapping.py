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

Every check is decided per target parameter.  Each openness class is
decided slice by slice and holds the null set, so the pull-backs of a family
all lie in C iff, for each source parameter e and each slice s the family
takes at p(e), the set with the preimage of s at e and null elsewhere does.
Work and caps are per parameter: 2^|Y| slices, or the member count of an
explicit ambient topology, never the 2^(|Y|·|K|) product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
    TARGET_AMBIENT,
    TARGET_AURA,
    TARGET_KURATOWSKI,
    _alexandrov_slice_masks,
    _closure_fn,
)
from .softset import Context, SoftSet, _trusted
from .space import DEFAULT_CAP, SoftAuraSpace


def _single_slice(ctx: Context, i: int, mask: int) -> SoftSet:
    """The soft set with `mask` at parameter index i and null elsewhere."""
    return _trusted(ctx, tuple(mask if j == i else 0 for j in range(ctx.n_params)))


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
        # _point_preimage[y]: bitmask of the source points mapping to target point y;
        # _param_image[e]: the target parameter index of source parameter e
        preimage = [0] * tgt.n_points
        for xi, x in enumerate(src.universe):
            preimage[tgt.point_index[self.point_map[x]]] |= 1 << xi
        object.__setattr__(self, "_point_preimage", tuple(preimage))
        object.__setattr__(
            self, "_param_image", tuple(tgt.param_index[self.param_map[e]] for e in src.parameters)
        )

    def _slice_preimage(self, s: int) -> int:
        """Source point mask of the u-preimage of the target point mask s."""
        pre = self._point_preimage
        acc = 0
        while s:
            low = s & -s
            acc |= pre[low.bit_length() - 1]
            s ^= low
        return acc


def identity_mapping(space: SoftAuraSpace) -> SoftMapping:
    ctx = space.context
    return SoftMapping(space, space, {x: x for x in ctx.universe}, {e: e for e in ctx.parameters})


def inverse_image(m: SoftMapping, g: SoftSet) -> SoftSet:
    """Soft set over the source: slice at e is the point preimage of g at p(e)."""
    ctx = m.target.context
    if g.context is not ctx and g.context != ctx:
        raise ContextMismatch("inverse image argument must live over the target context")
    return _trusted(
        m.source.context, tuple(m._slice_preimage(g.masks[ki]) for ki in m._param_image)
    )


def _target_slices(m: SoftMapping, cap: int, target_family: str) -> list:
    """Per target parameter, the ascending slices the target family takes there."""
    space = m.target
    ctx = space.context
    if target_family in (TARGET_AURA, TARGET_KURATOWSKI):
        return [_alexandrov_slice_masks(space, ki, cap) for ki in range(ctx.n_params)]
    if target_family != TARGET_AMBIENT:
        raise ValueError(f"unknown target family {target_family!r}")
    topo = space.topology
    total = len(topo) if topo.is_extensional else 1 << ctx.n_points
    if total > cap:
        raise CapExceeded(total, cap)
    if not topo.is_extensional:
        return [range(total)] * ctx.n_params
    return [sorted({v.masks[ki] for _, v in topo}) for ki in range(ctx.n_params)]


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
    """Classify the single-slice pull-back of every slice of the target open family."""
    _closure_fn(m.source, kind)  # an unknown kind fails before any enumeration
    slices = _target_slices(m, cap, target_family)
    continuous = alpha = semi = pre = beta = True
    for ei, ki in enumerate(m._param_image):
        for s in slices[ki]:
            prof = classify(m.source, _single_slice(m.source.context, ei, m._slice_preimage(s)), kind)
            continuous &= prof.a_open
            alpha &= prof.alpha_open
            semi &= prof.semi_open
            pre &= prof.pre_open
            beta &= prof.beta_open
            if not (continuous or alpha or semi or pre or beta):
                return ContinuityProfile(False, False, False, False, False, kind)
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

    With samples=None the containment, being slicewise, is decided exactly
    on the single-slice target sets (2^|Y| per parameter, cap-guarded); the
    witness is the first failing slice at the lowest parameter, the least
    violating G in canonical rank order.  Otherwise `samples` (at least 1)
    random target sets are drawn from the given seed.  Returns
    (biconditional held, first G violating the containment or None).  An
    unknown `kind` raises ValueError before any target set is enumerated or
    the cap is checked.
    """
    if samples is not None and samples < 1:
        raise ValueError("samples must be positive")
    tgt_ctx = m.target.context
    cl_src = _closure_fn(m.source, kind)
    cl_tgt = _closure_fn(m.target, kind)
    if samples is None:
        total = 1 << tgt_ctx.n_points
        if total > cap:
            raise CapExceeded(total, cap)
        candidates = (
            _single_slice(tgt_ctx, ki, s) for ki in range(tgt_ctx.n_params) for s in range(total)
        )
    else:
        rng = random.Random(seed)
        full = tgt_ctx.full_mask
        candidates = (
            SoftSet(tgt_ctx, tuple(rng.randrange(full + 1) for _ in range(tgt_ctx.n_params)))
            for _ in range(samples)
        )

    witness = next(
        (
            g for g in candidates
            if not cl_src(inverse_image(m, g)).is_subset_of(inverse_image(m, cl_tgt(g)))
        ),
        None,
    )
    continuous = continuity_profile(m, kind=kind, cap=cap).continuous
    return continuous == (witness is None), witness


def verify_decomposition(
    m: SoftMapping,
    kind: str = KURATOWSKI,
    cap: int = DEFAULT_CAP,
) -> tuple[bool, SoftSet | None]:
    """Check alpha-continuous iff (semi-continuous and pre-continuous).

    With the fixpoint closure the equivalence always holds, so False is a
    falsification to report; with the one-step closure this only reports
    whether the equivalence happened to hold.  The witness is the first
    target open set, in the aura family's canonical product order, whose
    inverse image decides the mismatch, or None.  Alpha implies semi and
    pre, so that set is null but for the first deciding open slice at the
    last target parameter that has one.
    """
    prof = continuity_profile(m, kind=kind, cap=cap)
    if prof.alpha_continuous == (prof.semi_continuous and prof.pre_continuous):
        return True, None
    slices = _target_slices(m, cap, TARGET_AURA)
    for ki in reversed(range(m.target.context.n_params)):
        for s in slices[ki]:
            v = _single_slice(m.target.context, ki, s)
            p = classify(m.source, inverse_image(m, v), kind)
            if p.alpha_open != (p.semi_open and p.pre_open):
                return False, v
    return False, None
