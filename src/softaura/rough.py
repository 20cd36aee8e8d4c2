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

from typing import Iterable

from .errors import InvalidPartition, _Frozen, _freeze
from .operators import _closure_slice, aura_closure, aura_interior
from .softset import Context, SoftSet, _require_same_context, _trusted
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
    approximation, where the value is defined to be 1.  The record holds
    the counts; `value`, the Fraction lower_total / upper_total, is built
    when it is read, so `fractions` is imported only then.  A `value`
    passed to the constructor must equal it; the library passes None.
    """

    __slots__ = _fields = ("lower_total", "upper_total", "convention_applied")

    def __init__(self, value, lower_total: int, upper_total: int, convention_applied: bool):
        if convention_applied != (upper_total == 0) or not 0 <= lower_total <= upper_total:
            raise ValueError(
                f"accuracy counts {lower_total}/{upper_total} do not fit convention_applied={convention_applied}"
            )
        _freeze(self, lower_total, upper_total, convention_applied)
        if value is not None and value != self.value:
            raise ValueError(f"accuracy value {value!r} is not {lower_total}/{upper_total}")

    @property
    def value(self):
        from fractions import Fraction

        return Fraction(1) if self.convention_applied else Fraction(self.lower_total, self.upper_total)

    def __float__(self) -> float:
        # the correctly rounded quotient of the totals, as float(self.value)
        return 1.0 if self.convention_applied else self.lower_total / self.upper_total

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in ("value", *self._fields))
        return f"Accuracy({fields})"

    def display(self) -> str:
        """Unreduced ratio plus a decimal rendered to 6 significant digits."""
        if self.convention_applied:
            return "0/0 = 1 (convention: null upper approximation)"
        return f"{self.lower_total}/{self.upper_total} = {float(self):.6g}"


def accuracy(space: SoftAuraSpace, g: SoftSet) -> Accuracy:
    """Accuracy of g in one pass over its slices: the lower slice is X - cl(X - g), the upper cl(g)."""
    _require_same_context(space.context, g.context)
    full = space.context.full_mask
    lower_total = upper_total = 0
    for col, gm in zip(space.scope_columns, g.masks):
        lower_total += (full ^ _closure_slice(col, full ^ gm)).bit_count()
        upper_total += _closure_slice(col, gm).bit_count()
    return _accuracy(lower_total, upper_total)


def _accuracy(lower_total: int, upper_total: int) -> Accuracy:
    return Accuracy(None, lower_total, upper_total, upper_total == 0)


class ApproximationReport(_Frozen):
    """Lower, upper, boundary and accuracy for one target.

    per_parameter holds (parameter, lower slice size, upper slice size)
    rows; it is a derived diagnostic, not part of the accuracy definition.
    """

    __slots__ = ("target", "lower", "upper", "boundary", "accuracy", "per_parameter")


def approximation_report(space: SoftAuraSpace, g: SoftSet) -> ApproximationReport:
    low = lower_approx(space, g)
    up = upper_approx(space, g)
    rows = tuple(
        (e, low.masks[ei].bit_count(), up.masks[ei].bit_count())
        for ei, e in enumerate(space.context.parameters)
    )
    acc = _accuracy(sum(row[1] for row in rows), sum(row[2] for row in rows))
    return ApproximationReport(g, low, up, _difference(up, low), acc, rows)


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
