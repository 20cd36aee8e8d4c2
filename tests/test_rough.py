"""Rough approximation operators, accuracy, and the partition reduction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softaura import (
    Accuracy,
    InvalidPartition,
    PawlakPartition,
    SoftAuraSpace,
    SoftSet,
    accuracy,
    approximation_report,
    aura_closure,
    aura_interior,
    boundary,
    discrete_topology,
    lower_approx,
    make_soft_set,
    make_space,
    pawlak_equivalence_check,
    pawlak_scope,
    upper_approx,
)

from softaura import rough

from conftest import named_context, space_with_sets


@pytest.fixture(scope="module")
def monitoring():
    space = make_space(
        ["s1", "s2", "s3", "s4", "s5"],
        ["e1", "e2", "e3", "e4"],
        {
            "s1": {"e1": ["s1", "s2"], "e2": ["s1", "s4"], "e3": ["s1", "s2"], "e4": ["s1", "s3"]},
            "s2": {"e1": ["s2", "s4"], "e2": ["s2", "s3"], "e3": ["s2", "s5"], "e4": ["s2", "s3"]},
            "s3": {"e1": ["s3", "s5"], "e2": ["s3", "s5"], "e3": ["s3", "s5"], "e4": ["s3", "s4"]},
            "s4": {"e1": ["s1", "s4"], "e2": ["s4", "s5"], "e3": ["s3", "s4"], "e4": ["s4", "s5"]},
            "s5": {"e1": ["s4", "s5"], "e2": ["s1", "s5"], "e3": ["s2", "s5"], "e4": ["s1", "s5"]},
        },
    )
    target = make_soft_set(
        space.context,
        {"e1": ["s3", "s5"], "e2": ["s2"], "e3": ["s1", "s4"], "e4": ["s4", "s5"]},
    )
    return space, target


class TestMonitoringFixture:
    def test_lower(self, monitoring):
        space, g = monitoring
        assert lower_approx(space, g).as_dict() == {
            "e1": ("s3",),
            "e2": (),
            "e3": (),
            "e4": ("s4",),
        }

    def test_upper(self, monitoring):
        space, g = monitoring
        assert upper_approx(space, g).as_dict() == {
            "e1": ("s3", "s5"),
            "e2": ("s2",),
            "e3": ("s1", "s4"),
            "e4": ("s3", "s4", "s5"),
        }

    def test_boundary(self, monitoring):
        space, g = monitoring
        assert boundary(space, g).as_dict() == {
            "e1": ("s5",),
            "e2": ("s2",),
            "e3": ("s1", "s4"),
            "e4": ("s3", "s5"),
        }

    def test_accuracy(self, monitoring):
        space, g = monitoring
        acc = accuracy(space, g)
        assert acc.value == Fraction(1, 4)
        assert (acc.lower_total, acc.upper_total) == (2, 8)
        assert not acc.convention_applied
        assert acc.display() == "2/8 = 0.25"

    def test_report(self, monitoring):
        space, g = monitoring
        rep = approximation_report(space, g)
        assert rep.target == g
        assert rep.lower == lower_approx(space, g)
        assert rep.upper == upper_approx(space, g)
        assert rep.boundary == boundary(space, g)
        assert rep.accuracy == accuracy(space, g)
        assert rep.per_parameter == (
            ("e1", 1, 2),
            ("e2", 0, 1),
            ("e3", 0, 2),
            ("e4", 1, 3),
        )

    def test_report_computes_each_approximation_once(self, monitoring, monkeypatch):
        space, g = monitoring
        calls = []
        for name in ("aura_closure", "aura_interior"):
            real = getattr(rough, name)
            monkeypatch.setattr(
                rough, name, lambda s, t, real=real, name=name: calls.append(name) or real(s, t)
            )
        approximation_report(space, g)
        assert sorted(calls) == ["aura_closure", "aura_interior"]


class TestAccuracyDisplay:
    def test_null_upper_convention(self):
        sp = make_space(
            ["x1", "x2"],
            ["e1"],
            {"x1": {"e1": ["x1", "x2"]}, "x2": {"e1": ["x1", "x2"]}},
        )
        acc = accuracy(sp, SoftSet.null(sp.context))
        assert acc.convention_applied
        assert acc.value == Fraction(1)
        assert acc.display() == "0/0 = 1 (convention: null upper approximation)"

    def test_six_significant_digits(self):
        acc = Accuracy(Fraction(1, 3), 1, 3, False)
        assert acc.display() == "1/3 = 0.333333"

    def test_unreduced_ratio_preserved(self):
        acc = Accuracy(Fraction(1, 4), 2, 8, False)
        assert acc.display().startswith("2/8 = ")

    def test_value_comes_from_the_counts(self):
        # the library builds Accuracy from its counts; a value given must match them
        assert Accuracy(None, 2, 8, False) == Accuracy(Fraction(1, 4), 2, 8, False)
        assert Accuracy(None, 2, 8, False).value == Fraction(1, 4)
        assert Accuracy(None, 0, 0, True).value == Fraction(1)
        with pytest.raises(ValueError, match="not 1/2"):
            Accuracy(Fraction(1, 3), 1, 2, False)
        # counts that no pair of approximations has are refused, given a value or not
        for value, low, up, convention in ((None, 1, 0, False), (None, 0, 0, False), (None, 0, 4, True),
                                           (None, 3, 2, False), (None, -1, 2, False), (Fraction(1), 1, 0, False)):
            with pytest.raises(ValueError, match="do not fit"):
                Accuracy(value, low, up, convention)
        for low, up in ((1, 3), (2, 7), (5, 9), (10, 10), (0, 4), (123, 457)):
            assert float(Accuracy(None, low, up, False)) == float(Fraction(low, up))


class TestOperatorClauses:
    @given(space_with_sets(count=1))
    @settings(max_examples=150)
    def test_sandwich(self, bundle):
        space, g = bundle
        assert lower_approx(space, g).is_subset_of(g)
        assert g.is_subset_of(upper_approx(space, g))

    @given(space_with_sets(count=0))
    @settings(max_examples=60)
    def test_fixed_points(self, bundle):
        (space,) = bundle
        null = SoftSet.null(space.context)
        absolute = SoftSet.absolute(space.context)
        assert lower_approx(space, null).is_null()
        assert upper_approx(space, null).is_null()
        assert lower_approx(space, absolute).is_absolute()
        assert upper_approx(space, absolute).is_absolute()

    @given(space_with_sets(count=2))
    @settings(max_examples=150)
    def test_monotonicity(self, bundle):
        space, g, h = bundle
        gh = g.intersect(h)
        assert lower_approx(space, gh).is_subset_of(lower_approx(space, g))
        assert upper_approx(space, gh).is_subset_of(upper_approx(space, g))

    @given(space_with_sets(count=2))
    @settings(max_examples=150)
    def test_join_and_meet_distribution(self, bundle):
        space, g, h = bundle
        assert upper_approx(space, g.union(h)) == upper_approx(space, g).union(
            upper_approx(space, h)
        )
        assert lower_approx(space, g.intersect(h)) == lower_approx(
            space, g
        ).intersect(lower_approx(space, h))

    @given(space_with_sets(count=1))
    @settings(max_examples=150)
    def test_duality(self, bundle):
        space, g = bundle
        c = g.complement()
        assert lower_approx(space, g) == upper_approx(space, c).complement()
        assert upper_approx(space, g) == lower_approx(space, c).complement()

    @given(space_with_sets(count=1))
    @settings(max_examples=150)
    def test_accuracy_bounds(self, bundle):
        space, g = bundle
        acc = accuracy(space, g)
        assert 0 <= acc.value <= 1
        empty_boundary = boundary(space, g).is_null()
        assert (acc.value == 1) == empty_boundary

    @given(space_with_sets(count=1))
    @settings(max_examples=100)
    def test_delegation(self, bundle):
        space, g = bundle
        assert lower_approx(space, g) == aura_interior(space, g)
        assert upper_approx(space, g) == aura_closure(space, g)


class TestPawlakPartition:
    def test_valid_partition(self):
        ctx = named_context(4, 1)
        p = PawlakPartition(ctx, (("x1", "x3"), ("x2",), ("x4",)))
        assert p.block_of("x3") == ("x1", "x3")

    def test_empty_block(self):
        ctx = named_context(2, 1)
        with pytest.raises(InvalidPartition):
            PawlakPartition(ctx, (("x1", "x2"), ()))

    def test_unknown_point(self):
        ctx = named_context(2, 1)
        with pytest.raises(InvalidPartition):
            PawlakPartition(ctx, (("x1", "zz"),))

    def test_overlap(self):
        ctx = named_context(2, 1)
        with pytest.raises(InvalidPartition):
            PawlakPartition(ctx, (("x1", "x2"), ("x2",)))

    def test_missing_point(self):
        ctx = named_context(3, 1)
        with pytest.raises(InvalidPartition):
            PawlakPartition(ctx, (("x1", "x2"),))

    def test_scope_is_block_constant(self):
        ctx = named_context(3, 2)
        scope = pawlak_scope(ctx, [["x1", "x2"], ["x3"]])
        assert scope.of("x1") == scope.of("x2")
        assert scope.of("x1").as_dict() == {
            "e1": ("x1", "x2"),
            "e2": ("x1", "x2"),
        }
        assert scope.of("x3").as_dict() == {"e1": ("x3",), "e2": ("x3",)}


class TestPawlakEquivalence:
    def test_two_block_example(self):
        ctx = named_context(4, 2)
        assert pawlak_equivalence_check(ctx, [["x1", "x2"], ["x3", "x4"]], ["x1", "x2", "x3"])

    def test_exact_union_of_blocks(self):
        ctx = named_context(4, 1)
        blocks = [["x1", "x2"], ["x3"], ["x4"]]
        assert pawlak_equivalence_check(ctx, blocks, ["x1", "x2", "x3"])
        assert pawlak_equivalence_check(ctx, blocks, [])

    @given(st.data())
    @settings(max_examples=200)
    def test_random_partitions(self, data):
        n = data.draw(st.integers(1, 6))
        ctx = named_context(n, data.draw(st.integers(1, 2)))
        labels = [data.draw(st.integers(0, n - 1)) for _ in range(n)]
        blocks: dict[int, list[str]] = {}
        for x, lab in zip(ctx.universe, labels):
            blocks.setdefault(lab, []).append(x)
        target = [x for x in ctx.universe if data.draw(st.booleans())]
        assert pawlak_equivalence_check(ctx, list(blocks.values()), target)

    def test_block_scope_accuracy_matches_classical(self):
        # lower {x1,x2}, upper all four points: accuracy 2/4 per parameter
        ctx = named_context(4, 1)
        scope = pawlak_scope(ctx, [["x1", "x2"], ["x3", "x4"]])
        space = SoftAuraSpace(ctx, discrete_topology(ctx), scope)
        g = make_soft_set(ctx, {"e1": ["x1", "x2", "x3"]})
        acc = accuracy(space, g)
        assert acc.value == Fraction(1, 2)
        assert (acc.lower_total, acc.upper_total) == (2, 4)
