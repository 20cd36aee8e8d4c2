"""Generalized openness classes, their hierarchy, and the alpha-meet search."""

import random
import time

import pytest
from hypothesis import given, settings

from softaura import (
    CECH,
    KURATOWSKI,
    DEFAULT_CAP,
    AlphaMeetWitness,
    CapExceeded,
    ContextMismatch,
    PreconditionUnmet,
    SoftSet,
    SpaceFamilySpec,
    aura_closure,
    aura_interior,
    check_union_closure,
    classify,
    iter_all_soft_sets,
    iter_family_spaces,
    kuratowski_closure,
    make_soft_set,
    make_space,
    search_alpha_intersection_failure,
)

from softaura import genopen

from conftest import named_context, space_with_sets


def reference_classify(space, g, kind):
    """The six flags from SoftSet composites and containments, as the paper defines them."""
    cl = {
        CECH: lambda s: aura_closure(space, s),
        KURATOWSKI: lambda s: kuratowski_closure(space, s).closure,
    }[kind]
    ig = aura_interior(space, g)
    cl_ig = cl(ig)
    cl_g = cl(g)
    i_cl_g = aura_interior(space, cl_g)
    return (
        ig == g,
        g.is_subset_of(aura_interior(space, cl_ig)),
        g.is_subset_of(cl_ig),
        g.is_subset_of(i_cl_g),
        g.is_subset_of(cl_ig.union(i_cl_g)),
        g.is_subset_of(cl(i_cl_g)),
    )


def assert_matches_reference(space, sets):
    for g in sets:
        for kind in (CECH, KURATOWSKI):
            p = classify(space, g, kind)
            got = (p.a_open, p.alpha_open, p.semi_open, p.pre_open, p.b_open, p.beta_open)
            assert got == reference_classify(space, g, kind), (g.as_dict(), kind)
            assert p.closure_kind == kind


def random_sets(ctx, rng, count):
    return [
        SoftSet(ctx, tuple(rng.randrange(ctx.full_mask + 1) for _ in range(ctx.n_params)))
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def chain():
    return make_space(
        ["1", "2", "3"],
        ["e"],
        {"1": {"e": ["1", "2"]}, "2": {"e": ["2", "3"]}, "3": {"e": ["3"]}},
    )


@pytest.fixture(scope="module")
def cyclic():
    # cyclic scope: the smallest space where alpha meets fail under the
    # fixpoint closure
    return make_space(
        ["x1", "x2", "x3"],
        ["e1"],
        {
            "x1": {"e1": ["x1", "x2"]},
            "x2": {"e1": ["x2", "x3"]},
            "x3": {"e1": ["x1", "x3"]},
        },
    )


@pytest.fixture(scope="module")
def four_point():
    # smallest shape with a one-step-closure alpha meet failure
    return make_space(
        ["x1", "x2", "x3", "x4"],
        ["e1"],
        {
            "x1": {"e1": ["x1"]},
            "x2": {"e1": ["x1", "x2"]},
            "x3": {"e1": ["x1", "x3"]},
            "x4": {"e1": ["x2", "x3", "x4"]},
        },
    )


class TestClassify:
    def test_chain_mixed_set(self, chain):
        g = make_soft_set(chain.context, {"e": ["1", "3"]})
        p = classify(chain, g)
        assert (p.a_open, p.alpha_open, p.semi_open) == (False, False, False)
        assert (p.pre_open, p.b_open, p.beta_open) == (True, True, True)
        assert p.closure_kind == CECH

    def test_chain_low_set_all_false(self, chain):
        g = make_soft_set(chain.context, {"e": ["1", "2"]})
        p = classify(chain, g)
        assert not any(
            [p.a_open, p.alpha_open, p.semi_open, p.pre_open, p.b_open, p.beta_open]
        )

    def test_open_set_has_all_flags(self, chain):
        g = make_soft_set(chain.context, {"e": ["2", "3"]})
        for kind in (CECH, KURATOWSKI):
            p = classify(chain, g, kind)
            assert all(
                [p.a_open, p.alpha_open, p.semi_open, p.pre_open, p.b_open, p.beta_open]
            )

    def test_flag_dispatch(self, chain):
        g = make_soft_set(chain.context, {"e": ["1", "3"]})
        p = classify(chain, g)
        assert p.flag("open") == p.a_open
        assert p.flag("alpha") == p.alpha_open
        assert p.flag("semi") == p.semi_open
        assert p.flag("pre") == p.pre_open
        assert p.flag("b") == p.b_open
        assert p.flag("beta") == p.beta_open
        with pytest.raises(KeyError):
            p.flag("gamma")

    def test_unknown_kind(self, chain):
        g = SoftSet.null(chain.context)
        with pytest.raises(ValueError):
            classify(chain, g, "transfinite")

    def test_kind_changes_alpha(self, cyclic):
        a = make_soft_set(cyclic.context, {"e1": ["x1", "x2"]})
        assert not classify(cyclic, a, CECH).alpha_open
        assert classify(cyclic, a, KURATOWSKI).alpha_open

    def test_unknown_kind_checked_before_context(self, chain):
        foreign = SoftSet.null(named_context(2, 1))
        with pytest.raises(ValueError, match="transfinite"):
            classify(chain, foreign, "transfinite")
        for kind in (CECH, KURATOWSKI):
            with pytest.raises(ContextMismatch):
                classify(chain, foreign, kind)


class TestClassifyAgainstReference:
    def test_every_set_of_the_exhaustive_2x2_family(self):
        for _, space in iter_family_spaces(SpaceFamilySpec(2, 2)):
            assert_matches_reference(space, iter_all_soft_sets(space.context))

    def test_seeded_spaces_up_to_8x3(self):
        rng = random.Random(5)
        spec = SpaceFamilySpec(8, 3, scope_mode="sampled", seed=5, sample_count=20)
        for _, space in iter_family_spaces(spec):
            ctx = space.context
            extremes = [SoftSet.null(ctx), SoftSet.absolute(ctx)]
            assert_matches_reference(space, extremes + random_sets(ctx, rng, 40))

    def test_64_point_chain(self):
        # x_i -> {x_i, x_i+1}: the fixpoint closure of x64 takes 63 steps
        names = [f"x{i + 1}" for i in range(64)]
        space = make_space(
            names,
            ["e1", "e2"],
            {x: {"e1": names[i:i + 2], "e2": names[i:i + 2]} for i, x in enumerate(names)},
        )
        ctx = space.context
        points = [SoftSet(ctx, (1 << i, 1 << (63 - i))) for i in (0, 1, 31, 62, 63)]
        assert_matches_reference(space, points + random_sets(ctx, random.Random(64), 20))


class TestHierarchy:
    @given(space_with_sets(count=1))
    @settings(max_examples=200)
    def test_implication_chain_both_kinds(self, bundle):
        space, g = bundle
        for kind in (CECH, KURATOWSKI):
            p = classify(space, g, kind)
            if p.a_open:
                assert p.alpha_open
            if p.alpha_open:
                assert p.semi_open and p.pre_open
            if p.semi_open or p.pre_open:
                assert p.b_open
            if p.b_open:
                assert p.beta_open

    def test_strictness_witnesses(self):
        # open => alpha is strict
        sp = make_space(
            ["x1", "x2", "x3"],
            ["e1"],
            {"x1": {"e1": ["x1"]}, "x2": {"e1": ["x1", "x2"]}, "x3": {"e1": ["x1", "x2", "x3"]}},
        )
        g = make_soft_set(sp.context, {"e1": ["x1", "x3"]})
        p = classify(sp, g)
        assert p.alpha_open and not p.a_open
        # alpha => pre is strict (trivial two-point scope)
        sp2 = make_space(
            ["x1", "x2"],
            ["e1"],
            {"x1": {"e1": ["x1", "x2"]}, "x2": {"e1": ["x1", "x2"]}},
        )
        g2 = make_soft_set(sp2.context, {"e1": ["x1"]})
        p2 = classify(sp2, g2)
        assert p2.pre_open and not p2.alpha_open


class TestUnionClosure:
    @given(space_with_sets(count=3))
    @settings(max_examples=100)
    def test_union_stays_in_class(self, bundle):
        space, g, h, k = bundle
        for kind in (CECH, KURATOWSKI):
            for cls in ("semi", "pre", "beta"):
                members = [
                    s for s in (g, h, k) if classify(space, s, kind).flag(cls)
                ]
                assert check_union_closure(space, members, cls, kind)

    def test_empty_family_null_union(self, chain):
        # the null set is semi/pre/beta-open, so the empty union stays in class
        for cls in ("semi", "pre", "beta"):
            assert check_union_closure(chain, [], cls)

    def test_precondition_unmet(self, chain):
        bad = make_soft_set(chain.context, {"e": ["1", "2"]})
        good = make_soft_set(chain.context, {"e": ["2", "3"]})
        with pytest.raises(PreconditionUnmet) as exc:
            check_union_closure(chain, [good, bad], "semi")
        assert exc.value.member_index == 1

    def test_class_name_checked(self, chain):
        with pytest.raises(ValueError):
            check_union_closure(chain, [], "alpha")


class TestAlphaMeetSearch:
    def test_budget_must_be_positive(self, chain):
        with pytest.raises(ValueError):
            search_alpha_intersection_failure(chain, 0)

    def test_kuratowski_witness_on_cyclic(self, cyclic):
        w = search_alpha_intersection_failure(cyclic, budget=10_000, kind=KURATOWSKI)
        assert w is not None
        assert w.left.as_dict() == {"e1": ("x1", "x2")}
        assert w.right.as_dict() == {"e1": ("x1", "x3")}
        assert w.replay(KURATOWSKI)
        assert not w.replay(CECH)  # left is not even alpha-open one-step

    def test_cech_clean_on_small_spaces(self, chain, cyclic):
        # no one-step alpha meet failure exists on three points
        assert search_alpha_intersection_failure([chain, cyclic], budget=100_000) is None

    def test_cech_witness_needs_four_points(self, four_point):
        w = search_alpha_intersection_failure(four_point, budget=1_000_000)
        assert w is not None
        assert w.replay(CECH)
        meet = w.left.intersect(w.right)
        assert classify(four_point, w.left).alpha_open
        assert classify(four_point, w.right).alpha_open
        assert not classify(four_point, meet).alpha_open

    def test_singleton_scopes_never_fail(self):
        sp = make_space(
            ["x1", "x2"],
            ["e1"],
            {"x1": {"e1": ["x1"]}, "x2": {"e1": ["x2"]}},
        )
        for kind in (CECH, KURATOWSKI):
            assert search_alpha_intersection_failure(sp, budget=10_000, kind=kind) is None

    def test_budget_exhaustion_returns_none(self, four_point):
        # one pair check is never enough to reach the witness
        assert search_alpha_intersection_failure(four_point, budget=1) is None

    def test_more_soft_sets_than_the_cap_fail_before_any_pair(self):
        # a 20-point chain has 2^20 soft sets, past the default cap; classifying
        # them all first took seconds, ×4 per two points
        points = [f"x{i}" for i in range(1, 21)]
        chain20 = make_space(points, ["e1"], {x: {"e1": points[i : i + 2]} for i, x in enumerate(points)})
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as info:
            search_alpha_intersection_failure(chain20, budget=1)
        assert time.perf_counter() - start < 1.0
        assert (info.value.required, info.value.cap, info.value.family) == (1 << 20, DEFAULT_CAP, "soft sets")

    def test_small_budget_classifies_few_sets(self, monkeypatch):
        # an 18-point chain whose first point's scope is itself, so {x1} and
        # {x1, x2} are alpha-open early in rank order; classifying all 2^18
        # sets before the first pair took seconds
        points = [f"x{i}" for i in range(1, 19)]
        chain18 = make_space(points, ["e1"], {x: {"e1": points[max(i - 1, 0) : i + 1]} for i, x in enumerate(points)})
        calls = []
        real = genopen.classify

        def counting(space, g, kind=CECH):
            calls.append(g)
            return real(space, g, kind)

        monkeypatch.setattr(genopen, "classify", counting)
        start = time.perf_counter()
        assert search_alpha_intersection_failure(chain18, budget=1) is None
        assert time.perf_counter() - start < 1.0
        # the sets of rank 0 and 1, their meet, then ranks 2 and 3 up to the next alpha-open set
        assert len(calls) == 5

    def test_witness_constructible_directly(self, cyclic):
        a = make_soft_set(cyclic.context, {"e1": ["x1", "x2"]})
        b = make_soft_set(cyclic.context, {"e1": ["x1", "x3"]})
        assert AlphaMeetWitness(cyclic, a, b).replay(KURATOWSKI)
