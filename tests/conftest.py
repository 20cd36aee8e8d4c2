"""Shared fixtures and hypothesis strategies.

Random spaces are drawn over the discrete topology (every soft set is open,
so scope validity reduces to the membership constraint, which the strategy
forces bitwise).  Universe and parameter names follow the canonical x1..xn /
e1..em convention used across the fixtures.
"""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import strategies as st

from softaura import (
    Context,
    SoftAuraSpace,
    SoftSet,
    discrete_topology,
    validate_scope,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load_fixture_doc(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def named_context(n: int, m: int) -> Context:
    return Context(
        tuple(f"x{i + 1}" for i in range(n)),
        tuple(f"e{j + 1}" for j in range(m)),
    )


def brute_open_slices(space: SoftAuraSpace, ei: int) -> list[int]:
    """The aura-open slices at parameter index ei, ascending, by filtering all 2^|X| masks.

    A mask is kept when every point in it has its scope slice inside it.  The
    reference shares no code with the reach masks the library derives the
    same family from.
    """
    scopes = [masks[ei] for masks in space.scope_masks]
    return [
        s
        for s in range(1 << space.context.n_points)
        if all(scope & ~s == 0 for xi, scope in enumerate(scopes) if s >> xi & 1)
    ]


@st.composite
def aura_spaces(draw, max_points: int = 4, max_params: int = 3) -> SoftAuraSpace:
    """A discrete-topology space with a random membership-respecting scope."""
    n = draw(st.integers(1, max_points))
    m = draw(st.integers(1, max_params))
    ctx = named_context(n, m)
    full = ctx.full_mask
    assignment = {}
    for xi, x in enumerate(ctx.universe):
        masks = tuple(draw(st.integers(0, full)) | (1 << xi) for _ in range(m))
        assignment[x] = SoftSet(ctx, masks)
    topo = discrete_topology(ctx)
    return SoftAuraSpace(ctx, topo, validate_scope(ctx, topo, assignment))


@st.composite
def space_with_sets(draw, count: int = 1, max_points: int = 4, max_params: int = 3):
    """(space, set, ...) with `count` random soft sets over the space context."""
    space = draw(aura_spaces(max_points=max_points, max_params=max_params))
    ctx = space.context
    full = ctx.full_mask
    sets = tuple(
        SoftSet(ctx, tuple(draw(st.integers(0, full)) for _ in range(ctx.n_params)))
        for _ in range(count)
    )
    return (space, *sets)
