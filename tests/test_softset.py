"""Soft set core: contexts, constructors, and the parameterwise algebra."""

import functools
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from softaura import (
    Context,
    ContextMismatch,
    ExtraParameter,
    MissingParameter,
    SoftSet,
    UnknownPoint,
    iter_all_soft_sets,
    make_soft_set,
)

from conftest import named_context, space_with_sets


class TestContext:
    def test_basic_shape(self):
        ctx = named_context(3, 2)
        assert ctx.n_points == 3
        assert ctx.n_params == 2
        assert ctx.full_mask == 0b111
        assert ctx.point_index == {"x1": 0, "x2": 1, "x3": 2}
        assert ctx.param_index == {"e1": 0, "e2": 1}

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            Context((), ("e1",))

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Context(("x1",), ())

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            Context(("x1", "x1"), ("e1",))

    def test_duplicate_params_rejected(self):
        with pytest.raises(ValueError):
            Context(("x1",), ("e1", "e1"))

    def test_universe_limit(self):
        names = tuple(f"p{i}" for i in range(65))
        with pytest.raises(ValueError):
            Context(names, ("e1",))
        # explicit limit raise is allowed
        ctx = Context(names, ("e1",), limit=100)
        assert ctx.n_points == 65

    def test_mask_of_unknown_point(self):
        ctx = named_context(2, 1)
        with pytest.raises(UnknownPoint):
            ctx.mask_of(["x9"])

    def test_mask_points_round_trip(self):
        ctx = named_context(4, 1)
        mask = ctx.mask_of(["x3", "x1"])
        assert mask == 0b101
        assert ctx.points_of(mask) == ("x1", "x3")


class TestConstructors:
    def test_from_slices_missing_parameter(self):
        ctx = named_context(2, 2)
        with pytest.raises(MissingParameter):
            SoftSet.from_slices(ctx, {"e1": ["x1"]})

    def test_from_slices_extra_parameter(self):
        ctx = named_context(2, 1)
        with pytest.raises(ExtraParameter):
            SoftSet.from_slices(ctx, {"e1": ["x1"], "e9": []})

    def test_from_slices_unknown_point(self):
        ctx = named_context(2, 1)
        with pytest.raises(UnknownPoint):
            SoftSet.from_slices(ctx, {"e1": ["zz"]})

    def test_mask_count_must_match(self):
        ctx = named_context(2, 2)
        with pytest.raises(ValueError):
            SoftSet(ctx, (0,))

    def test_mask_range_checked(self):
        ctx = named_context(2, 1)
        with pytest.raises(ValueError):
            SoftSet(ctx, (5,))

    def test_null_absolute_point(self):
        ctx = named_context(3, 2)
        assert SoftSet.null(ctx).is_null()
        assert SoftSet.absolute(ctx).is_absolute()
        pt = SoftSet.point(ctx, "x2")
        assert pt.as_dict() == {"e1": ("x2",), "e2": ("x2",)}
        with pytest.raises(UnknownPoint):
            SoftSet.point(ctx, "nope")

    def test_as_dict_canonical_order(self):
        ctx = named_context(3, 2)
        s = make_soft_set(ctx, {"e2": ["x3", "x1"], "e1": []})
        assert s.as_dict() == {"e1": (), "e2": ("x1", "x3")}
        assert s.points("e2") == ("x1", "x3")
        with pytest.raises(ExtraParameter):
            s.points("e9")


class TestAlgebra:
    def test_context_mismatch(self):
        a = SoftSet.null(named_context(2, 1))
        b = SoftSet.null(named_context(3, 1))
        with pytest.raises(ContextMismatch):
            a.union(b)
        with pytest.raises(ContextMismatch):
            a.is_subset_of(b)

    @given(space_with_sets(count=2))
    def test_boolean_laws(self, bundle):
        _, g, h = bundle
        ctx = g.context
        null, absolute = SoftSet.null(ctx), SoftSet.absolute(ctx)
        assert g.union(h) == h.union(g)
        assert g.intersect(h) == h.intersect(g)
        assert g.union(null) == g
        assert g.intersect(absolute) == g
        assert g.union(g.complement()) == absolute
        assert g.intersect(g.complement()) == null
        assert g.complement().complement() == g
        # De Morgan
        assert g.union(h).complement() == g.complement().intersect(h.complement())
        assert g.intersect(h).complement() == g.complement().union(h.complement())
        # subset order
        assert g.intersect(h).is_subset_of(g)
        assert g.is_subset_of(g.union(h))

    @given(space_with_sets(count=2))
    def test_operator_sugar(self, bundle):
        _, g, h = bundle
        assert (g | h) == g.union(h)
        assert (g & h) == g.intersect(h)
        assert ~g == g.complement()

    def test_big_ops(self):
        ctx = named_context(3, 1)
        sets = [make_soft_set(ctx, {"e1": [p]}) for p in ctx.universe]
        assert functools.reduce(operator.or_, sets) == SoftSet.absolute(ctx)
        assert functools.reduce(operator.and_, sets) == SoftSet.null(ctx)


class TestEnumeration:
    def test_count_and_endpoints(self):
        ctx = named_context(2, 2)
        sets = list(iter_all_soft_sets(ctx))
        assert len(sets) == 16
        assert sets[0] == SoftSet.null(ctx)
        assert sets[-1] == SoftSet.absolute(ctx)
        assert len(set(sets)) == 16

    def test_combined_rank_order(self):
        # parameter 0 occupies the least significant bits of the rank
        ctx = named_context(2, 2)
        sets = list(iter_all_soft_sets(ctx))
        assert sets[1].masks == (1, 0)
        assert sets[4].masks == (0, 1)

    def test_repr_readable(self):
        ctx = named_context(2, 1)
        s = make_soft_set(ctx, {"e1": ["x1", "x2"]})
        assert repr(s) == "SoftSet(e1={x1, x2})"
