"""Generalized openness classes built from the aura operators.

Each class is a containment of the set in a closure/interior composite of
itself: semi uses cl(int G), pre uses int(cl G), alpha uses int(cl(int G)),
beta uses cl(int(cl G)), and b uses cl(int G) joined with int(cl G).  The
closure may be the one-step (cech) or fixpoint (kuratowski) operator; the
interior is always the one-step aura interior.

Implications run open => alpha => semi and pre => b => beta for either
closure kind.  Semi, pre and beta are closed under arbitrary unions.  Alpha
meets are not safe under either kind: because the interior stays one-step,
the intersection of two alpha-open sets can fail to be alpha-open even with
the idempotent fixpoint closure (smallest counterexamples: a cyclic
three-point scope for the fixpoint kind, four points for the one-step
kind).  search_alpha_intersection_failure hunts for such pairs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CapExceeded, PreconditionUnmet, _Frozen
from .operators import CECH, _closure_slice, _slice_closure_fn
from .softset import SoftSet, _require_same_context
from .space import DEFAULT_CAP, SoftAuraSpace

UNION_CLOSED_CLASSES = ("semi", "pre", "beta")


class OpennessProfile(_Frozen):
    """Six membership flags for one soft set, under one closure kind."""

    __slots__ = ("a_open", "alpha_open", "semi_open", "pre_open", "b_open", "beta_open", "closure_kind")

    def flag(self, openness_class: str) -> bool:
        return {
            "open": self.a_open,
            "alpha": self.alpha_open,
            "semi": self.semi_open,
            "pre": self.pre_open,
            "b": self.b_open,
            "beta": self.beta_open,
        }[openness_class]


def classify(space: SoftAuraSpace, g: SoftSet, kind: str = CECH) -> OpennessProfile:
    """Evaluate every defining containment and report all six flags.

    Every composite works one parameter at a time, so each containment is
    decided slice by slice on the masks and holds when it holds at every
    parameter.  An unknown `kind` raises ValueError before the context check.
    """
    cl = _slice_closure_fn(space, kind)
    _require_same_context(space.context, g.context)
    full = space.context.full_mask
    # Points of g outside each composite, accumulated over the parameters.
    not_open = not_alpha = not_semi = not_pre = not_b = not_beta = 0
    for ei, (col, gm) in enumerate(zip(space.scope_columns, g.masks)):
        ig = full ^ _closure_slice(col, full ^ gm)
        cl_ig = cl(ei, ig)
        cl_g = cl(ei, gm)
        i_cl_g = full ^ _closure_slice(col, full ^ cl_g)
        i_cl_ig = full ^ _closure_slice(col, full ^ cl_ig)
        not_open |= gm ^ ig
        not_alpha |= gm & ~i_cl_ig
        not_semi |= gm & ~cl_ig
        not_pre |= gm & ~i_cl_g
        not_b |= gm & ~(cl_ig | i_cl_g)
        not_beta |= gm & ~cl(ei, i_cl_g)
    return OpennessProfile(
        not not_open, not not_alpha, not not_semi, not not_pre, not not_b, not not_beta, kind
    )


def check_union_closure(
    space: SoftAuraSpace,
    family: Sequence[SoftSet],
    openness_class: str,
    kind: str = CECH,
) -> bool:
    """Does the union of a family stay in the named union-closed class?

    Every member must already belong to the class (else PreconditionUnmet
    with the offending index).  These classes are union-closed, so the
    answer is always true; returning False is a falsification to be
    reported, never swallowed.
    """
    if openness_class not in UNION_CLOSED_CLASSES:
        raise ValueError(f"class must be one of {UNION_CLOSED_CLASSES}, got {openness_class!r}")
    union = SoftSet.null(space.context)
    for i, member in enumerate(family):
        if not classify(space, member, kind).flag(openness_class):
            raise PreconditionUnmet(i, f"not {openness_class}-open")
        union = union.union(member)
    return classify(space, union, kind).flag(openness_class)


class AlphaMeetWitness(_Frozen):
    """Two alpha-open sets whose intersection is not alpha-open."""

    __slots__ = ("space", "left", "right")

    def replay(self, kind: str = CECH) -> bool:
        """Re-evaluate the three classifications; True when the witness still holds."""
        return (
            classify(self.space, self.left, kind).alpha_open
            and classify(self.space, self.right, kind).alpha_open
            and not classify(self.space, self.left.intersect(self.right), kind).alpha_open
        )


def search_alpha_intersection_failure(
    spaces: SoftAuraSpace | Iterable[SoftAuraSpace],
    budget: int,
    kind: str = CECH,
) -> AlphaMeetWitness | None:
    """Scan for a pair of alpha-open sets with a non-alpha intersection.

    Spaces are scanned in the given order; within a space, soft sets are
    enumerated in canonical combined-bitmask order and pairs in ascending
    rank order, so the first witness found is canonically minimal.  `budget`
    bounds the number of pair checks; None is returned when it runs out or
    the scan completes clean.  Sets are classified in rank order only as the
    pair loop first needs the next alpha-open one, so the work stops at the
    alpha-open set after the last pair checked; where alpha-open sets are
    sparse in rank order, the sets between them are still classified.  A
    space with more than DEFAULT_CAP soft sets raises CapExceeded ("soft
    sets") before any of its sets is classified.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if isinstance(spaces, SoftAuraSpace):
        spaces = [spaces]
    from .softset import iter_all_soft_sets

    for space in spaces:
        total = 1 << (space.context.n_points * space.context.n_params)
        if total > DEFAULT_CAP:
            raise CapExceeded(total, DEFAULT_CAP, "soft sets")
        found = (s for s in iter_all_soft_sets(space.context) if classify(space, s, kind).alpha_open)
        alphas: list[SoftSet] = []

        def alpha(j: int) -> SoftSet | None:
            """The j-th alpha-open set in rank order, classifying sets up to it; None past the last."""
            while len(alphas) <= j and (s := next(found, None)) is not None:
                alphas.append(s)
            return alphas[j] if j < len(alphas) else None

        i = 0
        while (left := alpha(i)) is not None:
            j = i + 1
            while (right := alpha(j)) is not None:
                if budget <= 0:
                    return None
                budget -= 1
                if not classify(space, left.intersect(right), kind).alpha_open:
                    return AlphaMeetWitness(space, left, right)
                j += 1
            i += 1
    return None
