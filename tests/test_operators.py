"""Closure/interior operators, the fixpoint closure, and the induced topology."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softaura import (
    KURATOWSKI,
    CapExceeded,
    DecodedSpace,
    InternalNonMonotone,
    NotSingletonE,
    SoftMapping,
    SoftSet,
    SpaceFamilySpec,
    UnknownParameter,
    approximation_report,
    aura_closure,
    aura_interior,
    boundary,
    classify,
    decode_space,
    encode_space,
    enumerate_aura_topology,
    harness,
    inverse_image,
    is_aura_closed,
    is_aura_open,
    iter_all_soft_sets,
    iter_family_spaces,
    kuratowski_closure,
    make_soft_set,
    make_space,
    operators,
    oracle_closure,
    oracle_interior,
    per_parameter_alexandrov,
    singleton_e_inclusion_check,
)
from softaura.mapping import _single_slice
from softaura.operators import _alexandrov_slice_masks, _fixpoint_slice, _reach_masks

from conftest import aura_spaces, brute_open_slices, named_context, space_with_sets


@pytest.fixture(scope="module")
def chain():
    return make_space(
        ["1", "2", "3"],
        ["e"],
        {"1": {"e": ["1", "2"]}, "2": {"e": ["2", "3"]}, "3": {"e": ["3"]}},
    )


class TestChainValues:
    def test_closure(self, chain):
        g = make_soft_set(chain.context, {"e": ["3"]})
        assert aura_closure(chain, g).as_dict() == {"e": ("2", "3")}

    def test_closure_not_idempotent_here(self, chain):
        g = make_soft_set(chain.context, {"e": ["3"]})
        once = aura_closure(chain, g)
        twice = aura_closure(chain, once)
        assert once != twice
        assert twice.as_dict() == {"e": ("1", "2", "3")}

    def test_kuratowski_reaches_fixpoint(self, chain):
        g = make_soft_set(chain.context, {"e": ["3"]})
        res = kuratowski_closure(chain, g)
        assert res.closure.is_absolute()
        assert res.iterations == {"e": 2}
        again = kuratowski_closure(chain, res.closure)
        assert again.closure == res.closure
        assert again.iterations == {"e": 1}

    def test_interior(self, chain):
        g = make_soft_set(chain.context, {"e": ["1", "2"]})
        assert aura_interior(chain, g).as_dict() == {"e": ("1",)}

    def test_openness(self, chain):
        assert is_aura_open(chain, make_soft_set(chain.context, {"e": ["2", "3"]}))
        assert not is_aura_open(chain, make_soft_set(chain.context, {"e": ["1", "2"]}))
        assert is_aura_open(chain, SoftSet.null(chain.context))
        assert is_aura_open(chain, SoftSet.absolute(chain.context))
        # closed iff complement open: {1} is closed since {2,3} is open
        assert is_aura_closed(chain, make_soft_set(chain.context, {"e": ["1"]}))

    def test_alexandrov_family(self, chain):
        fam = per_parameter_alexandrov(chain, "e")
        assert fam == [(), ("3",), ("2", "3"), ("1", "2", "3")]

    def test_alexandrov_matches_brute_filter(self):
        # seeded spaces up to 7 points x 3 parameters, scope slices from sparse to dense
        rng = random.Random(16)
        for _ in range(400):
            ctx = named_context(rng.randint(1, 7), rng.randint(1, 3))
            n, m = ctx.n_points, ctx.n_params
            density = rng.random()
            scope = {
                x: {e: [x] + [y for y in ctx.universe if rng.random() < density] for e in ctx.parameters}
                for x in ctx.universe
            }
            space = make_space(ctx.universe, ctx.parameters, scope)
            for ei in range(m):
                assert _alexandrov_slice_masks(space, ei, 1 << n) == brute_open_slices(space, ei)

    def test_alexandrov_unknown_parameter(self, chain):
        with pytest.raises(UnknownParameter):
            per_parameter_alexandrov(chain, "zz")

    def test_enumerate_topology(self, chain):
        tau = enumerate_aura_topology(chain)
        assert sorted(s.masks[0] for s in tau) == [0, 4, 6, 7]
        assert all(is_aura_open(chain, s) for s in tau)

    def test_singleton_e_inclusion(self, chain):
        # ambient topology is discrete, so inclusion holds trivially
        assert singleton_e_inclusion_check(chain)


class TestGuards:
    def test_singleton_e_requires_one_parameter(self):
        sp = make_space(
            ["x1"],
            ["e1", "e2"],
            {"x1": {"e1": ["x1"], "e2": ["x1"]}},
        )
        with pytest.raises(NotSingletonE):
            singleton_e_inclusion_check(sp)

    def test_enumerate_cap(self):
        # singleton scopes make every set aura-open: 2^(n*m) members
        sp = make_space(
            ["x1", "x2", "x3"],
            ["e1", "e2"],
            {x: {"e1": [x], "e2": [x]} for x in ["x1", "x2", "x3"]},
        )
        with pytest.raises(CapExceeded):
            enumerate_aura_topology(sp, cap=10)
        assert len(enumerate_aura_topology(sp, cap=100)) == 64

    def test_alexandrov_cap(self):
        sp = make_space(
            ["x1", "x2", "x3"],
            ["e1"],
            {x: {"e1": [x]} for x in ["x1", "x2", "x3"]},
        )
        with pytest.raises(CapExceeded):
            per_parameter_alexandrov(sp, "e1", cap=4)

    def test_shrinking_slice_is_internal_non_monotone(self, monkeypatch):
        # a closure kernel that drops x1 at e2 breaks the fixpoint's shrink check there
        sp = make_space(
            ["x1", "x2"],
            ["e1", "e2"],
            {x: {"e1": ["x1", "x2"], "e2": [x]} for x in ["x1", "x2"]},
        )
        g = make_soft_set(sp.context, {"e1": [], "e2": ["x1"]})
        real = operators._closure_slice

        def dropping(col, mask):
            out = real(col, mask)
            return out & ~1 if col is sp.scope_columns[1] else out

        monkeypatch.setattr(operators, "_closure_slice", dropping)
        with pytest.raises(InternalNonMonotone, match="slice shrank at parameter 'e2'"):
            kuratowski_closure(sp, g)
        with pytest.raises(InternalNonMonotone, match="slice shrank at parameter 'e2'"):
            classify(sp, g, KURATOWSKI)


def seeded_space(n: int, m: int, shape: str, seed: int):
    """n points, m parameters, the discrete topology; each scope slice is its point plus
    two random points (sparse) or three quarters of the points (dense)."""
    rng = random.Random(f"{shape}-{n}-{m}-{seed}")
    points = [f"x{i}" for i in range(1, n + 1)]
    extra = 2 if shape == "sparse" else 3 * n // 4
    scope = {x: {f"e{j}": [x, *rng.sample(points, extra)] for j in range(1, m + 1)} for x in points}
    return make_space(points, [f"e{j}" for j in range(1, m + 1)], scope)


def chain_space(n: int, m: int):
    """scope(x_i) = {x_i, x_i+1} at every parameter: the fixpoint closure of x_n takes n - 1 steps."""
    points = [f"x{i}" for i in range(1, n + 1)]
    params = [f"e{j}" for j in range(1, m + 1)]
    return make_space(points, params, {x: {e: points[i : i + 2] for e in params} for i, x in enumerate(points)})


LARGE_SPACES = [("chain", 64, 4, 0)] + [
    (shape, n, 3, seed) for shape in ("sparse", "dense") for n in (8, 32, 64) for seed in (1, 2)
]


class TestScopeColumns:
    @given(aura_spaces(max_points=6, max_params=3))
    @settings(max_examples=100)
    def test_columns_transpose_scope_masks(self, space):
        n, m = space.context.n_points, space.context.n_params
        assert len(space.scope_columns) == m
        for ei, col in enumerate(space.scope_columns):
            assert col == tuple((1 << xi, space.scope_masks[xi][ei]) for xi in range(n))
        decoded = DecodedSpace(space, {}, {})
        for twin in (
            copy.copy(space),
            copy.deepcopy(space),
            pickle.loads(pickle.dumps(space)),
            decode_space(encode_space(decoded)).space,
        ):
            assert twin == space
            assert twin.scope_columns == space.scope_columns

    @pytest.mark.parametrize("shape, n, m, seed", LARGE_SPACES, ids=lambda v: str(v))
    def test_large_spaces_match_the_oracles(self, shape, n, m, seed):
        space = chain_space(n, m) if shape == "chain" else seeded_space(n, m, shape, seed)
        ctx = space.context
        scopes = harness.oracle_scopes(space)
        rng = random.Random(f"sets-{shape}-{n}-{seed}")
        sets = [SoftSet.null(ctx), SoftSet.absolute(ctx)]
        sets += [SoftSet(ctx, tuple(1 << (n - 1 - ei) for ei in range(m)))]
        sets += [SoftSet(ctx, tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m))) for _ in range(6)]
        for g in sets:
            assert aura_closure(space, g) == oracle_closure(space, g, scopes)
            assert aura_interior(space, g) == oracle_interior(space, g, scopes)
            grown = dict.fromkeys(ctx.parameters, 0)
            fix = g
            while (nxt := oracle_closure(space, fix, scopes)) != fix:
                for e in ctx.parameters:
                    grown[e] += nxt.points(e) != fix.points(e)
                fix = nxt
            res = kuratowski_closure(space, g)
            assert res.closure == fix
            assert res.iterations == {e: max(k, 1) for e, k in grown.items()}
        if shape == "chain":
            # at e1 that set is {x_n}, whose fixpoint takes n - 1 growing steps
            assert kuratowski_closure(space, sets[2]).iterations[ctx.parameters[0]] == n - 1


def reach_closure(reach: list[int], g: int) -> int:
    """The bits of the points whose reach row meets g."""
    return sum(1 << xi for xi, row in enumerate(reach) if row & g)


class TestReachRows:
    """The fixpoint closure at e is the one-step scan over the reach rows R_e(x) instead of the scopes."""

    def test_fixpoint_matches_reach_rows_on_exhaustive_family(self):
        slices = 0
        for _, space in iter_family_spaces(SpaceFamilySpec(3, 2)):
            for ei in range(space.context.n_params):
                reach = _reach_masks(space, ei)
                for g in range(1 << space.context.n_points):
                    assert _fixpoint_slice(space, ei, g)[0] == reach_closure(reach, g)
                    slices += 1
        assert slices == 66_198

    def test_fixpoint_matches_reach_rows_on_chain(self):
        space = chain_space(64, 2)
        rng = random.Random("reach-chain")
        masks = [0, space.context.full_mask, *(1 << xi for xi in range(64))]
        masks += [rng.getrandbits(64) & rng.getrandbits(64) & rng.getrandbits(64) for _ in range(16)]
        for ei in range(2):
            reach = _reach_masks(space, ei)
            for g in masks:
                assert _fixpoint_slice(space, ei, g)[0] == reach_closure(reach, g)


class TestTrivialScope:
    def test_closure_blows_up_interior_collapses(self):
        sp = make_space(
            ["x1", "x2"],
            ["e1"],
            {"x1": {"e1": ["x1", "x2"]}, "x2": {"e1": ["x1", "x2"]}},
        )
        g = make_soft_set(sp.context, {"e1": ["x1"]})
        assert aura_closure(sp, g).is_absolute()
        assert aura_interior(sp, g).is_null()
        fam = per_parameter_alexandrov(sp, "e1")
        assert fam == [(), ("x1", "x2")]


class TestOperatorLaws:
    @given(space_with_sets(count=2))
    @settings(max_examples=150)
    def test_closure_laws(self, bundle):
        space, g, h = bundle
        ctx = space.context
        assert aura_closure(space, SoftSet.null(ctx)).is_null()
        cg = aura_closure(space, g)
        assert g.is_subset_of(cg)
        if g.is_subset_of(h):
            assert cg.is_subset_of(aura_closure(space, h))
        assert aura_closure(space, g.union(h)) == cg.union(aura_closure(space, h))

    @given(space_with_sets(count=2))
    @settings(max_examples=150)
    def test_interior_laws(self, bundle):
        space, g, h = bundle
        ctx = space.context
        assert aura_interior(space, SoftSet.absolute(ctx)).is_absolute()
        ig = aura_interior(space, g)
        assert ig.is_subset_of(g)
        if g.is_subset_of(h):
            assert ig.is_subset_of(aura_interior(space, h))
        assert aura_interior(space, g.intersect(h)) == ig.intersect(
            aura_interior(space, h)
        )

    @given(space_with_sets(count=1))
    @settings(max_examples=150)
    def test_duality(self, bundle):
        space, g = bundle
        assert aura_interior(space, g) == aura_closure(space, g.complement()).complement()
        assert aura_closure(space, g) == aura_interior(space, g.complement()).complement()

    @given(space_with_sets(count=1))
    @settings(max_examples=150)
    def test_kuratowski_laws(self, bundle):
        space, g = bundle
        res = kuratowski_closure(space, g)
        # contains the one-step closure and is idempotent
        assert aura_closure(space, g).is_subset_of(res.closure)
        assert aura_closure(space, res.closure) == res.closure
        n = space.context.n_points
        assert all(1 <= it <= n for it in res.iterations.values())

    @given(space_with_sets(count=2))
    @settings(max_examples=100)
    def test_kuratowski_additive(self, bundle):
        space, g, h = bundle
        joint = kuratowski_closure(space, g.union(h)).closure
        parts = kuratowski_closure(space, g).closure.union(
            kuratowski_closure(space, h).closure
        )
        assert joint == parts

    @given(space_with_sets(count=2, max_points=8, max_params=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_oracle_agreement(self, bundle, data):
        space, g, h = bundle
        ctx = space.context
        n, m = ctx.n_points, ctx.n_params
        cl = aura_closure(space, g)
        assert cl == oracle_closure(space, g)
        interior = aura_interior(space, g)
        assert interior == oracle_interior(space, g)
        fix = oracle_closure(space, g)
        while (nxt := oracle_closure(space, fix)) != fix:
            fix = nxt
        kur = kuratowski_closure(space, g).closure
        assert kur == fix

        # every result built without validation must equal the validated one
        u = data.draw(st.lists(st.sampled_from(ctx.universe), min_size=n, max_size=n))
        p = data.draw(st.lists(st.sampled_from(ctx.parameters), min_size=m, max_size=m))
        mapping = SoftMapping(space, space, dict(zip(ctx.universe, u)), dict(zip(ctx.parameters, p)))
        ei = data.draw(st.integers(0, m - 1))
        built = [
            cl,
            interior,
            kur,
            g.union(h),
            g.intersect(h),
            g.complement(),
            boundary(space, g),
            approximation_report(space, h).boundary,
            inverse_image(mapping, g),
            _single_slice(ctx, ei, g.masks[ei]),
            harness._unpack(ctx, harness._pack(h.masks, n)),
        ]
        if n * m <= 6:
            built += enumerate_aura_topology(space) + list(iter_all_soft_sets(ctx))
        for out in built:
            assert type(out.masks) is tuple
            assert SoftSet(ctx, out.masks) == out

    @given(space_with_sets(count=0, max_points=3, max_params=2))
    @settings(max_examples=50)
    def test_tau_a_members_are_open(self, bundle):
        (space,) = bundle
        for s in enumerate_aura_topology(space, cap=1 << 12):
            assert is_aura_open(space, s)
