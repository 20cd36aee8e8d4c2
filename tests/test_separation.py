"""Separation axioms: deciders, witnesses, and the T1 characterizations."""

from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings

from softaura import (
    PairWitness,
    RegularityWitness,
    SoftSet,
    SpaceFamilySpec,
    aura_closure,
    iter_family_spaces,
    make_space,
    separation_report,
    t1_singleton_closure,
    t1_via_singleton_scopes,
)

from conftest import aura_spaces, brute_open_slices


def reference_regular(space):
    """Regularity by brute-force search of the enumerated open-slice families.

    For every point, parameter and aura-open slice holding the point, look for
    a disjoint open pair separating the point from the complementary closed
    slice.  It shares no code with the reach-set decider it checks.
    """
    # Aura-open sets are slicewise products, so the separating pair for a
    # point and a closed set avoiding it at parameter e only constrains the
    # e-slices: search the per-parameter open-slice family directly.  Every
    # closed slice at e is the complement of a member of that family and
    # extends to a full aura-closed set (absolute slices elsewhere).
    ctx = space.context
    full = ctx.full_mask
    families = [brute_open_slices(space, ei) for ei in range(ctx.n_params)]
    for xi in range(ctx.n_points):
        for ei, opens in enumerate(families):
            around_x = [u for u in opens if u >> xi & 1]
            for open_slice in opens:
                closed = full & ~open_slice
                if closed >> xi & 1:
                    continue
                if not any(
                    u & v == 0
                    for v in opens
                    if closed & ~v == 0
                    for u in around_x
                ):
                    masks = [full] * ctx.n_params
                    masks[ei] = closed
                    return False, RegularityWitness(
                        ctx.universe[xi],
                        ctx.parameters[ei],
                        SoftSet(ctx, tuple(masks)),
                    )
    return True, None


def assert_regularity_matches_reference(space):
    report = separation_report(space)
    regular, witness = reference_regular(space)
    assert report.regular == regular
    assert report.t3 == (report.t1 and regular)
    assert report.witnesses.get("regular") == witness


@pytest.fixture(scope="module")
def two_point():
    return make_space(
        ["x1", "x2"],
        ["e1", "e2"],
        {
            "x1": {"e1": ["x1"], "e2": ["x1", "x2"]},
            "x2": {"e1": ["x1", "x2"], "e2": ["x2"]},
        },
    )


@pytest.fixture(scope="module")
def singleton_scopes():
    return make_space(
        ["x1", "x2", "x3"],
        ["e1", "e2"],
        {x: {"e1": [x], "e2": [x]} for x in ["x1", "x2", "x3"]},
    )


class TestTwoPointFixture:
    def test_flags(self, two_point):
        r = separation_report(two_point)
        assert r.t0 is True
        assert r.t1 is False
        assert r.t2 is False
        assert r.t3 is False

    def test_t1_witness(self, two_point):
        r = separation_report(two_point)
        w = r.witnesses["t1"]
        assert isinstance(w, PairWitness)
        assert (w.x, w.y, w.param) == ("x1", "x2", "e2")

    def test_t2_witness(self, two_point):
        r = separation_report(two_point)
        w = r.witnesses["t2"]
        assert (w.x, w.y) == ("x1", "x2")
        assert w.param in ("e1", "e2")

    def test_passing_axioms_have_no_witness(self, two_point):
        r = separation_report(two_point)
        assert "t0" not in r.witnesses


class TestSingletonScopes:
    def test_all_axioms_hold(self, singleton_scopes):
        r = separation_report(singleton_scopes)
        assert r.t0 and r.t1 and r.t2 and r.regular and r.t3
        assert r.witnesses == {}

    def test_characterization(self, singleton_scopes):
        assert t1_via_singleton_scopes(singleton_scopes)

    def test_point_closures(self, singleton_scopes):
        chk = t1_singleton_closure(singleton_scopes)
        assert chk.holds and not chk.vacuous
        ctx = singleton_scopes.context
        pt = SoftSet.point(ctx, "x2")
        assert aura_closure(singleton_scopes, pt) == pt


class TestTrivialScope:
    def test_t0_fails_with_witness(self):
        sp = make_space(
            ["x1", "x2"],
            ["e1"],
            {"x1": {"e1": ["x1", "x2"]}, "x2": {"e1": ["x1", "x2"]}},
        )
        r = separation_report(sp)
        assert not r.t0 and not r.t1 and not r.t2
        w = r.witnesses["t0"]
        assert (w.x, w.y) == ("x1", "x2")
        assert w.param is None

    def test_singleton_closure_vacuous(self):
        sp = make_space(
            ["x1", "x2"],
            ["e1"],
            {"x1": {"e1": ["x1", "x2"]}, "x2": {"e1": ["x1", "x2"]}},
        )
        chk = t1_singleton_closure(sp)
        assert chk.holds and chk.vacuous

    def test_one_point_space_is_t1(self):
        sp = make_space(["x1"], ["e1"], {"x1": {"e1": ["x1"]}})
        r = separation_report(sp)
        assert r.t0 and r.t1 and r.t2


class TestEquivalences:
    @given(aura_spaces(max_points=4, max_params=2))
    @settings(max_examples=150)
    def test_t1_iff_t2_iff_singleton_scopes(self, space):
        r = separation_report(space)
        assert r.t1 == r.t2 == t1_via_singleton_scopes(space)

    @given(aura_spaces(max_points=4, max_params=2))
    @settings(max_examples=150)
    def test_t1_implies_t0(self, space):
        r = separation_report(space)
        if r.t1:
            assert r.t0
        assert r.t3 == (r.t1 and r.regular)

    @given(aura_spaces(max_points=3, max_params=2))
    @settings(max_examples=100)
    def test_witness_present_iff_failing(self, space):
        r = separation_report(space)
        for axiom, holds in (
            ("t0", r.t0),
            ("t1", r.t1),
            ("t2", r.t2),
            ("regular", r.regular),
        ):
            assert (axiom in r.witnesses) == (not holds)

    @given(aura_spaces(max_points=3, max_params=2))
    @settings(max_examples=100)
    def test_regularity_witness_is_closed_and_avoids_point(self, space):
        r = separation_report(space)
        w = r.witnesses.get("regular")
        if w is None:
            return
        assert isinstance(w, RegularityWitness)
        ctx = space.context
        xi = ctx.point_index[w.point]
        ei = ctx.param_index[w.param]
        # closed: complement is aura-open at every parameter; avoids the point at e
        assert not w.closed_set.masks[ei] >> xi & 1
        comp = w.closed_set.complement()
        from softaura import aura_interior

        assert aura_interior(space, comp) == comp


class TestT0T1GapCounts:
    """The abstract's wider T0-T1 gap in the soft setting, as counts.

    A pair of points fails T0 iff, at every parameter, each lies in the
    other's scope slice.  In the discrete family a point's slice holds the
    point and any subset of the others, so each (pair, parameter) takes the
    four membership patterns independently, one of them "both ways": T0
    holds on (4^m - 1)^C(n, 2) of the 4^(m C(n, 2)) spaces of shape (n, m),
    and T1 on one, whose scope slices are all singletons.
    """

    def test_exhaustive_family(self):
        spaces, t0, t1 = Counter(), Counter(), Counter()
        for (n, m, _), space in iter_family_spaces(SpaceFamilySpec(3, 2)):
            report = separation_report(space)
            spaces[n, m] += 1
            t0[n, m] += report.t0
            if report.t1:
                t1[n, m] += 1
                assert space.scope_masks == tuple((1 << i,) * m for i in range(n))
        assert set(spaces) == {(n, m) for n in (1, 2, 3) for m in (1, 2)}
        for (n, m), count in spaces.items():
            assert count == 4 ** (m * comb(n, 2))
            assert t0[n, m] == (4**m - 1) ** comb(n, 2)
            assert t1[n, m] == 1
        assert [t0[shape] for shape in ((2, 1), (2, 2), (3, 1), (3, 2))] == [3, 15, 27, 3375]


class TestRegularityAgainstReference:
    def test_exhaustive_family(self):
        spaces = 0
        for _, space in iter_family_spaces(SpaceFamilySpec(3, 2)):
            assert_regularity_matches_reference(space)
            spaces += 1
        assert spaces == 4182

    @given(aura_spaces(max_points=8, max_params=3))
    @settings(max_examples=300, deadline=None)
    def test_random_spaces(self, space):
        assert_regularity_matches_reference(space)
