"""Rough approximation over an aura space.

The lower approximation of a target is its aura interior, the upper
approximation its aura closure, and the boundary their slicewise
difference.  Accuracy is the exact rational (total lower slice size) /
(total upper slice size); when the upper approximation is null the value is
taken to be 1 by convention and flagged.  Choosing the scope of every point
to be its equivalence block, constant across parameters, recovers classical
partition-based approximation at every parameter.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import InvalidPartition, _Frozen, _freeze
from .operators import aura_closure, aura_interior
from .softset import Context, SoftSet, _trusted
from .space import ScopeFunction, SoftAuraSpace, discrete_topology


def lower_approx(space: SoftAuraSpace, g: SoftSet) -> SoftSet:
    """The aura interior of g."""
    return aura_interior(space, g)


def upper_approx(space: SoftAuraSpace, g: SoftSet) -> SoftSet:
    """The aura closure of g."""
    return aura_closure(space, g)


def _difference(up: SoftSet, low: SoftSet) -> SoftSet:
    return _trusted(up.context, tuple(u & ~l for u, l in zip(up.masks, low.masks)))


def boundary(space: SoftAuraSpace, g: SoftSet) -> SoftSet:
    """Upper minus lower, slice by slice."""
    return _difference(upper_approx(space, g), lower_approx(space, g))


class Accuracy(_Frozen):
    """Exact rational accuracy with its unreduced counts.

    convention_applied marks the degenerate case of a null upper
    approximation, where the value is defined to be 1.
    """

    __slots__ = ("value", "lower_total", "upper_total", "convention_applied")

    def __init__(self, value: Fraction, lower_total: int, upper_total: int, convention_applied: bool):
        _freeze(self, value, lower_total, upper_total, convention_applied)

    def display(self) -> str:
        """Unreduced ratio plus a decimal rendered to 6 significant digits."""
        if self.convention_applied:
            return "0/0 = 1 (convention: null upper approximation)"
        return f"{self.lower_total}/{self.upper_total} = {float(self.value):.6g}"


def accuracy(space: SoftAuraSpace, g: SoftSet) -> Accuracy:
    return _accuracy(lower_approx(space, g), upper_approx(space, g))


def _accuracy(low: SoftSet, up: SoftSet) -> Accuracy:
    lower_total = sum(m.bit_count() for m in low.masks)
    upper_total = sum(m.bit_count() for m in up.masks)
    if upper_total == 0:
        return Accuracy(Fraction(1), 0, 0, True)
    return Accuracy(Fraction(lower_total, upper_total), lower_total, upper_total, False)


class ApproximationReport(_Frozen):
    """Lower, upper, boundary and accuracy for one target.

    per_parameter holds (parameter, lower slice size, upper slice size)
    rows; it is a derived diagnostic, not part of the accuracy definition.
    """

    __slots__ = ("target", "lower", "upper", "boundary", "accuracy", "per_parameter")

    def __init__(
        self,
        target: SoftSet,
        lower: SoftSet,
        upper: SoftSet,
        boundary: SoftSet,
        accuracy: Accuracy,
        per_parameter: tuple[tuple[str, int, int], ...],
    ):
        _freeze(self, target, lower, upper, boundary, accuracy, per_parameter)


def approximation_report(space: SoftAuraSpace, g: SoftSet) -> ApproximationReport:
    low = lower_approx(space, g)
    up = upper_approx(space, g)
    rows = tuple(
        (e, low.masks[ei].bit_count(), up.masks[ei].bit_count())
        for ei, e in enumerate(space.context.parameters)
    )
    return ApproximationReport(g, low, up, _difference(up, low), _accuracy(low, up), rows)


class PawlakPartition(_Frozen):
    """A partition of the universe into named-free blocks, validated on construction."""

    __slots__ = ("context", "blocks")

    def __init__(self, context: Context, blocks: tuple[tuple[str, ...], ...]):
        seen: set[str] = set()
        for block in blocks:
            if not block:
                raise InvalidPartition("empty block")
            for x in block:
                if x not in context.point_index:
                    raise InvalidPartition(f"unknown point {x!r}")
                if x in seen:
                    raise InvalidPartition(f"point {x!r} appears in two blocks")
                seen.add(x)
        if len(seen) != context.n_points:
            missing = [x for x in context.universe if x not in seen]
            raise InvalidPartition(f"points not covered: {missing}")
        _freeze(self, context, blocks)

    def block_of(self, x: str) -> tuple[str, ...]:
        for block in self.blocks:
            if x in block:
                return block
        raise InvalidPartition(f"unknown point {x!r}")


def pawlak_scope(context: Context, blocks: Iterable[Iterable[str]]) -> ScopeFunction:
    """Scope over the discrete topology assigning each point its block, constant in e."""
    partition = PawlakPartition(context, tuple(tuple(b) for b in blocks))
    # valid by construction: each block holds its point, and the discrete
    # topology holds every set; the space built on it checks it once
    return ScopeFunction(
        context,
        tuple(
            SoftSet(context, (context.mask_of(partition.block_of(x)),) * context.n_params)
            for x in context.universe
        ),
    )


def _pawlak_lower(blocks, target: set[str]) -> set[str]:
    out: set[str] = set()
    for block in blocks:
        if set(block) <= target:
            out |= set(block)
    return out


def _pawlak_upper(blocks, target: set[str]) -> set[str]:
    out: set[str] = set()
    for block in blocks:
        if set(block) & target:
            out |= set(block)
    return out


def pawlak_equivalence_check(
    context: Context,
    blocks: Iterable[Iterable[str]],
    crisp_target: Iterable[str],
) -> bool:
    """Compare the soft approximations against a literal block-scan oracle.

    Builds the block scope, lifts the crisp target to constant slices, and
    checks that every parameter's lower/upper slice equals the classical
    partition approximation computed independently from the blocks.
    """
    blocks = tuple(tuple(b) for b in blocks)
    target = set(crisp_target)
    scope = pawlak_scope(context, blocks)
    space = SoftAuraSpace(context, discrete_topology(context), scope)
    mask = context.mask_of(target)
    g = SoftSet(context, (mask,) * context.n_params)
    low = lower_approx(space, g)
    up = upper_approx(space, g)
    want_low = _pawlak_lower(blocks, target)
    want_up = _pawlak_upper(blocks, target)
    for e in context.parameters:
        if set(low.points(e)) != want_low or set(up.points(e)) != want_up:
            return False
    return True
