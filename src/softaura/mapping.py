"""Soft mappings between spaces and their continuity classes.

A soft mapping is a point map u: X -> Y together with a parameter map
p: E -> K.  The inverse image of a target soft set takes, at each source
parameter e, the u-preimage of the slice at p(e).  Inverse images commute
with unions, intersections and complements.

Continuity (and its alpha/semi/pre/beta variants) asks that every inverse
image of a member of a target family lands in class C at the source.  The
family is the target's aura-open sets, the complements of its closure
fixpoints ("kuratowski", extensionally the same on finite spaces) or its
ambient topology ("ambient").  Each class holds the null set, is decided
slice by slice and is closed under unions, and pull-back preserves unions.
At each target parameter every slice of a family is a union of its least
slices around the points: R_k(y) for the aura and kuratowski families
(Alexandroff's least open neighbourhood), {y} for a discrete ambient
topology, the meet of the member projections holding y for an explicit
one.  So every check pulls back |Y| + 1 basic slices per source parameter,
and only an explicit ambient topology, read member by member, is capped.
"""

from __future__ import annotations

from .errors import (
    CapExceeded,
    ContextMismatch,
    SpaceMismatch,
    UnknownParameter,
    UnknownPoint,
    _Frozen,
    _freeze,
    _setfield,
)
from .genopen import classify
from .operators import (
    CECH,
    KURATOWSKI,
    TARGET_AMBIENT,
    TARGET_AURA,
    TARGET_KURATOWSKI,
    _alexandrov_slice_masks,
    _reach_masks,
    _slice_closure_fn,
)
from .softset import Context, SoftSet, _trusted
from .space import DEFAULT_CAP, SoftAuraSpace, _least_opens


def _single_slice(ctx: Context, i: int, mask: int) -> SoftSet:
    """The soft set with `mask` at parameter index i and null elsewhere."""
    return _trusted(ctx, tuple(mask if j == i else 0 for j in range(ctx.n_params)))


class SoftMapping(_Frozen):
    """Point map and parameter map between two aura spaces.

    Both tables must be total on the source and land inside the target;
    equality of mappings is extensional (same tables, same space values).
    """

    _fields = ("source", "target", "point_map", "param_map")
    __slots__ = (*_fields, "_point_preimage", "_param_image")

    def __init__(
        self,
        source: SoftAuraSpace,
        target: SoftAuraSpace,
        point_map: dict[str, str],
        param_map: dict[str, str],
    ):
        src, tgt = source.context, target.context
        # _point_preimage[y]: bitmask of the source points mapping to target point y;
        # _param_image[e]: the target parameter index of source parameter e.
        # Each is built while its map is checked; the first fault raised is the
        # one a check of the whole point map, then the whole parameter map, meets first.
        points, params = tgt.point_index, tgt.param_index
        preimage = [0] * tgt.n_points
        for xi, x in enumerate(src.universe):
            y = point_map.get(x)
            if y is None and x not in point_map:
                raise ValueError(f"point map missing {x!r}")
            yi = points.get(y)
            if yi is None:
                raise UnknownPoint(y)
            preimage[yi] |= 1 << xi
        if len(point_map) != src.n_points:
            for x in point_map:
                if x not in src.point_index:
                    raise UnknownPoint(x)
        image = []
        for e in src.parameters:
            k = param_map.get(e)
            if k is None and e not in param_map:
                raise ValueError(f"parameter map missing {e!r}")
            ki = params.get(k)
            if ki is None:
                raise UnknownParameter(k)
            image.append(ki)
        if len(param_map) != src.n_params:
            for e in param_map:
                if e not in src.param_index:
                    raise UnknownParameter(e)
        _freeze(self, source, target, point_map, param_map)
        _setfield(self, "_point_preimage", tuple(preimage))
        _setfield(self, "_param_image", tuple(image))

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
    pre, masks = m._point_preimage, g.masks
    out = []
    for ki in m._param_image:
        # as _slice_preimage, inline: the OR of the preimages of the points of g at p(e)
        s, acc = masks[ki], 0
        while s:
            low = s & -s
            acc |= pre[low.bit_length() - 1]
            s ^= low
        out.append(acc)
    return _trusted(m.source.context, tuple(out))


def _target_basis(space: SoftAuraSpace, cap: int, target_family: str) -> list[list[int]]:
    """Per parameter, the null slice and the least family slice holding each point."""
    ctx = space.context
    n, m = ctx.n_points, ctx.n_params
    if target_family in (TARGET_AURA, TARGET_KURATOWSKI):
        return [[0, *_reach_masks(space, ki)] for ki in range(m)]
    if target_family != TARGET_AMBIENT:
        raise ValueError(f"unknown target family {target_family!r}")
    topo = space.topology
    if not topo.is_extensional:
        return [[0, *(1 << yi for yi in range(n))]] * m
    if len(topo) > cap:
        raise CapExceeded(len(topo), cap, "ambient members")
    # members meet in members, so each least slice is a meet of member projections
    return [[0, *_least_opens((v.masks[ki] for _, v in topo), n)] for ki in range(m)]


class ContinuityProfile(_Frozen):
    """Continuity flags for one mapping under one closure kind.

    Implications run continuous => alpha => semi and pre => beta.
    """

    __slots__ = (
        "continuous", "alpha_continuous", "semi_continuous", "pre_continuous", "beta_continuous",
        "closure_kind",
    )


def continuity_profile(
    m: SoftMapping,
    kind: str = CECH,
    cap: int = DEFAULT_CAP,
    target_family: str = TARGET_AURA,
) -> ContinuityProfile:
    """Classify each distinct single-slice pull-back of a basic slice of the target family."""
    _slice_closure_fn(m.source, kind)  # an unknown kind fails before any enumeration
    basis = _target_basis(m.target, cap, target_family)
    flags = [True] * 5
    for ei, ki in enumerate(m._param_image):
        for s in {m._slice_preimage(v) for v in basis[ki]}:
            p = classify(m.source, _single_slice(m.source.context, ei, s), kind)
            got = (p.a_open, p.alpha_open, p.semi_open, p.pre_open, p.beta_open)
            flags = [f and g for f, g in zip(flags, got)]
            if not any(flags):
                return ContinuityProfile(*flags, kind)
    return ContinuityProfile(*flags, kind)


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


def verify_closure_characterization(m: SoftMapping, kind: str = CECH) -> tuple[bool, SoftSet | None]:
    """Check: continuous iff cl(f^{-1} G) is inside f^{-1}(cl G) for all target G.

    The containment, slicewise and additive in G, is decided exactly on the
    single-point target slices, as slice masks: a failing G holds a failing
    point, so the first failing point slice at the lowest parameter is the
    least violating G in canonical rank order, and only it is built as a
    soft set.  Returns (biconditional held, first G violating the
    containment or None).  An unknown `kind` raises ValueError before any
    target set is built.  Nothing here enumerates a family, so there is no
    cap: the continuity side reads the aura family's |Y| + 1 basic slices
    per parameter.
    """
    ctx = m.target.context
    cl_src = _slice_closure_fn(m.source, kind)
    cl_tgt = _slice_closure_fn(m.target, kind)
    pre = m._slice_preimage

    def violates(ki: int, s: int) -> bool:
        # G is s at ki and null elsewhere, so at source parameter e it reads s or null
        for ei, k in enumerate(m._param_image):
            t = s if k == ki else 0
            if cl_src(ei, pre(t)) & ~pre(cl_tgt(k, t)):
                return True
        return False

    witness = next(
        (
            _single_slice(ctx, ki, 1 << yi)
            for ki in range(ctx.n_params) for yi in range(ctx.n_points) if violates(ki, 1 << yi)
        ),
        None,
    )
    return continuity_profile(m, kind=kind).continuous == (witness is None), witness


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
    last target parameter that has one.  Only then, on a mismatch, is that
    parameter's open-slice family, the unions of its basic slices, walked;
    2^|Y| > cap fails the cap first.
    """
    prof = continuity_profile(m, kind=kind, cap=cap)
    if prof.alpha_continuous == (prof.semi_continuous and prof.pre_continuous):
        return True, None
    ctx = m.target.context

    def decides(ki: int, s: int) -> bool:
        p = classify(m.source, inverse_image(m, _single_slice(ctx, ki, s)), kind)
        return p.alpha_open != (p.semi_open and p.pre_open)

    # Every open pull-back is semi and pre here, so a slice decides iff it is
    # not alpha, and alpha is union-closed: a parameter has a deciding open
    # slice iff one of its basic slices decides.
    basis = _target_basis(m.target, cap, TARGET_AURA)
    for ki in reversed(range(ctx.n_params)):
        if any(decides(ki, s) for s in basis[ki]):
            slices = _alexandrov_slice_masks(m.target, ki, cap, "witness search")
            return False, _single_slice(ctx, ki, next(s for s in slices if decides(ki, s)))
    return False, None
