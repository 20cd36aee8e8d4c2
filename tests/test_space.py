"""Topology validation/generation, scope functions, and space assembly."""

import itertools
import random

import pytest

from softaura import (
    DEFAULT_CAP,
    CapExceeded,
    Context,
    ContextMismatch,
    MembershipViolation,
    NotOpen,
    ScopeFunction,
    ScopeViolations,
    SoftAuraSpace,
    SoftSet,
    TopologyViolation,
    decode_space,
    discrete_topology,
    generate_topology,
    indiscrete_topology,
    make_soft_set,
    make_space,
    pawlak_equivalence_check,
    replay_space,
    validate_scope,
    validate_topology,
)

from softaura import space as space_module

from conftest import named_context


def three_point_members(ctx):
    f1 = make_soft_set(ctx, {"e1": ["x1"], "e2": ["x1", "x2"]})
    f2 = make_soft_set(ctx, {"e1": ["x1", "x2"], "e2": ["x1", "x2", "x3"]})
    f3 = make_soft_set(ctx, {"e1": ["x1", "x2"], "e2": ["x1", "x2"]})
    return f1, f2, f3


class TestValidateTopology:
    def test_valid_family(self):
        ctx = named_context(3, 2)
        f1, f2, f3 = three_point_members(ctx)
        topo = validate_topology(
            ctx,
            [
                ("null", SoftSet.null(ctx)),
                ("absolute", SoftSet.absolute(ctx)),
                ("F1", f1),
                ("F2", f2),
                ("F3", f3),
            ],
        )
        assert len(topo) == 5
        assert topo.contains(f3)
        assert topo.member_named("F2") == f2
        assert topo.member_named("missing") is None

    def test_missing_null(self):
        ctx = named_context(2, 1)
        with pytest.raises(TopologyViolation) as exc:
            validate_topology(ctx, [("absolute", SoftSet.absolute(ctx))])
        assert exc.value.kind == "missing-null"

    def test_missing_absolute(self):
        ctx = named_context(2, 1)
        with pytest.raises(TopologyViolation) as exc:
            validate_topology(ctx, [("null", SoftSet.null(ctx))])
        assert exc.value.kind == "missing-absolute"

    def test_missing_union_witness(self):
        ctx = named_context(3, 2)
        f1, _, _ = three_point_members(ctx)
        g = make_soft_set(ctx, {"e1": ["x2"], "e2": ["x2"]})
        with pytest.raises(TopologyViolation) as exc:
            validate_topology(
                ctx,
                [
                    ("null", SoftSet.null(ctx)),
                    ("absolute", SoftSet.absolute(ctx)),
                    ("F1", f1),
                    ("G", g),
                ],
            )
        assert exc.value.kind == "missing-union"
        assert exc.value.witness == ("F1", "G")

    def test_missing_intersection_witness(self):
        ctx = named_context(2, 2)
        a = make_soft_set(ctx, {"e1": ["x1"], "e2": ["x1"]})
        b = make_soft_set(ctx, {"e1": ["x2"], "e2": ["x1"]})
        with pytest.raises(TopologyViolation) as exc:
            validate_topology(
                ctx,
                [
                    ("null", SoftSet.null(ctx)),
                    ("absolute", SoftSet.absolute(ctx)),
                    ("A", a),
                    ("B", b),
                    ("AB", a.union(b)),
                ],
            )
        assert exc.value.kind == "missing-intersection"
        assert exc.value.witness == ("A", "B")

    def test_duplicate_names_rejected(self):
        ctx = named_context(2, 1)
        with pytest.raises(ValueError):
            validate_topology(
                ctx,
                [("null", SoftSet.null(ctx)), ("null", SoftSet.absolute(ctx))],
            )

    def test_discrete_contains_everything(self):
        ctx = named_context(2, 2)
        topo = discrete_topology(ctx)
        assert topo.contains(make_soft_set(ctx, {"e1": ["x2"], "e2": []}))
        assert not topo.is_extensional

    def test_indiscrete(self):
        ctx = named_context(2, 1)
        topo = indiscrete_topology(ctx)
        assert len(topo) == 2
        assert topo.contains(SoftSet.null(ctx))
        assert topo.contains(SoftSet.absolute(ctx))
        assert not topo.contains(make_soft_set(ctx, {"e1": ["x1"]}))


def saturated_topology(context, subbasis, cap=DEFAULT_CAP):
    """(name, masks) members of the topology generated by named (name, SoftSet) pairs.

    The reference saturates {null, absolute} and the subbasis under pairwise
    intersections, then pairwise unions, until a round adds nothing.  It
    counts the seed members without checking the cap, and raises CapExceeded
    with the family size as soon as a derived member takes it past `cap`.
    """
    family = dict.fromkeys([SoftSet.null(context).masks, SoftSet.absolute(context).masks])
    family.update(dict.fromkeys(s.masks for _, s in subbasis))

    def saturate(op):
        added = True
        while added:
            added = False
            for a, b in itertools.combinations(list(family), 2):
                derived = tuple(op(x, y) for x, y in zip(a, b))
                if derived not in family:
                    family[derived] = None
                    added = True
                    if len(family) > cap:
                        raise CapExceeded(len(family), cap, "topology generation")

    saturate(lambda x, y: x & y)
    saturate(lambda x, y: x | y)
    named = {SoftSet.null(context).masks: "null", SoftSet.absolute(context).masks: "absolute"}
    for name, s in subbasis:
        named.setdefault(s.masks, name)
    counter = itertools.count(1)
    return [
        (named.get(masks) or f"G{next(counter)}", masks)
        for masks in sorted(family, key=lambda masks: tuple(reversed(masks)))
    ]


class TestGenerateTopology:
    def test_matches_saturation_reference(self):
        # members, names and order, or every CapExceeded field, on seeded random subbases
        rng = random.Random(16)
        caps = (1, 2, 3, 5, 8, 20, 100, DEFAULT_CAP)
        raised = 0
        for trial in range(3200):
            ctx = named_context(rng.randint(1, 4), rng.randint(1, 3))
            subbasis = [
                (f"S{k}", SoftSet(ctx, tuple(rng.randint(0, ctx.full_mask) for _ in ctx.parameters)))
                for k in range(rng.randint(0, 5))
            ]
            cap = caps[trial % len(caps)]
            try:
                expected = saturated_topology(ctx, subbasis, cap)
            except CapExceeded as exc:
                raised += 1
                with pytest.raises(CapExceeded) as info:
                    generate_topology(ctx, subbasis, cap=cap)
                got = info.value
                assert (got.required, got.cap, got.family) == (exc.required, exc.cap, exc.family)
            else:
                got = generate_topology(ctx, subbasis, cap=cap)
                assert [(name, s.masks) for name, s in got] == expected
        assert 300 < raised < 3000

    def test_round_trip_members(self):
        ctx = named_context(3, 2)
        f1, f2, f3 = three_point_members(ctx)
        topo = generate_topology(ctx, [("F1", f1), ("F3", f3)])
        # closure under union and intersection, containing the subbasis
        assert topo.contains(f1)
        assert topo.contains(f3)
        assert topo.contains(f1.union(f3))
        assert topo.contains(f1.intersect(f3))
        names = [n for n, _ in topo]
        assert "null" in names and "absolute" in names
        # result passes its own validator
        validate_topology(ctx, list(topo))

    def test_generated_names_canonical(self):
        ctx = named_context(2, 1)
        a = make_soft_set(ctx, {"e1": ["x1"]})
        b = make_soft_set(ctx, {"e1": ["x2"]})
        topo = generate_topology(ctx, [("A", a), ("B", b)])
        # A | B is derived and equals absolute, so no G names are needed
        assert len(topo) == 4
        assert sorted(n for n, _ in topo) == ["A", "B", "absolute", "null"]

    def test_cap_enforced(self):
        ctx = named_context(4, 2)
        subbasis = [
            (f"S{i}", SoftSet.point(ctx, x)) for i, x in enumerate(ctx.universe)
        ]
        with pytest.raises(CapExceeded):
            generate_topology(ctx, subbasis, cap=5)

    def test_reserved_subbasis_name_rejected(self):
        ctx = named_context(2, 1)
        with pytest.raises(ValueError):
            generate_topology(ctx, [("null", SoftSet.point(ctx, "x1"))])


class TestValidateScope:
    def test_collects_all_violations(self):
        ctx = named_context(2, 2)
        topo = indiscrete_topology(ctx)
        bad = make_soft_set(ctx, {"e1": ["x1"], "e2": []})
        assignment = {"x1": bad, "x2": SoftSet.absolute(ctx)}
        with pytest.raises(ScopeViolations) as exc:
            validate_scope(ctx, topo, assignment)
        vs = exc.value.violations
        assert NotOpen("x1") in vs
        assert MembershipViolation("x1", "e2") in vs
        assert len(vs) == 2

    def test_violation_order_same_for_space_construction(self):
        # per point: NotOpen first, then MembershipViolation per parameter
        ctx = named_context(2, 2)
        topo = indiscrete_topology(ctx)
        bad1 = make_soft_set(ctx, {"e1": [], "e2": ["x2"]})
        bad2 = make_soft_set(ctx, {"e1": ["x1"], "e2": []})
        want = (
            NotOpen("x1"),
            MembershipViolation("x1", "e1"),
            MembershipViolation("x1", "e2"),
            NotOpen("x2"),
            MembershipViolation("x2", "e1"),
            MembershipViolation("x2", "e2"),
        )
        with pytest.raises(ScopeViolations) as exc:
            validate_scope(ctx, topo, {"x2": bad2, "x1": bad1})
        assert exc.value.violations == want
        with pytest.raises(ScopeViolations) as exc:
            SoftAuraSpace(ctx, topo, ScopeFunction(ctx, (bad1, bad2)))
        assert exc.value.violations == want
        with pytest.raises(ScopeViolations) as exc:
            SoftAuraSpace.from_assignment(ctx, topo, {"x2": bad2, "x1": bad1})
        assert exc.value.violations == want
        with pytest.raises(ScopeViolations) as exc:
            make_space(ctx.universe, ctx.parameters, {"x1": bad1.as_dict(), "x2": bad2.as_dict()}, topo)
        assert exc.value.violations == want

    def test_missing_point(self):
        ctx = named_context(2, 1)
        topo = discrete_topology(ctx)
        with pytest.raises(ValueError):
            validate_scope(ctx, topo, {"x1": SoftSet.absolute(ctx)})

    def test_unknown_point(self):
        ctx = named_context(1, 1)
        topo = discrete_topology(ctx)
        with pytest.raises(ValueError):
            validate_scope(
                ctx,
                topo,
                {"x1": SoftSet.absolute(ctx), "zz": SoftSet.absolute(ctx)},
            )

    def test_trivial_scope_is_always_valid(self):
        ctx = named_context(3, 2)
        topo = indiscrete_topology(ctx)
        scope = ScopeFunction(ctx, (SoftSet.absolute(ctx),) * ctx.n_points)
        assert scope.of("x2") == SoftSet.absolute(ctx)
        SoftAuraSpace(ctx, topo, scope)


class TestSingleScopeScan:
    def test_each_construction_scans_the_scope_once(self, monkeypatch):
        scope = {"x1": {"e1": ["x1"]}, "x2": {"e1": ["x1", "x2"]}}
        desc = {
            "universe": ["x1", "x2"],
            "parameters": ["e1"],
            "topology": {"kind": "discrete"},
            "scope": scope,
        }
        ctx = named_context(2, 1)
        builds = {
            "make_space": lambda: make_space(["x1", "x2"], ["e1"], scope),
            "replay_space": lambda: replay_space(desc),
            "decode_space": lambda: decode_space(desc),
            "pawlak_equivalence_check": lambda: pawlak_equivalence_check(ctx, [["x1"], ["x2"]], ["x1"]),
        }
        calls = []
        real = space_module._check_scope

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(space_module, "_check_scope", counting)
        for name, build in builds.items():
            calls.clear()
            build()
            assert len(calls) == 1, name


class TestSpaceAssembly:
    def test_make_space_defaults_discrete(self):
        sp = make_space(
            ["x1", "x2"],
            ["e1"],
            {"x1": {"e1": ["x1"]}, "x2": {"e1": ["x1", "x2"]}},
        )
        assert sp.topology.kind == "discrete"
        assert sp.scope_masks == ((1,), (3,))

    def test_membership_enforced(self):
        with pytest.raises(ScopeViolations):
            make_space(
                ["x1", "x2"],
                ["e1"],
                {"x1": {"e1": ["x2"]}, "x2": {"e1": ["x2"]}},
            )

    def test_context_mismatch(self):
        ctx = named_context(2, 1)
        other = named_context(3, 1)
        topo = discrete_topology(other)
        scope = ScopeFunction(ctx, (SoftSet.absolute(ctx),) * ctx.n_points)
        with pytest.raises(ContextMismatch):
            SoftAuraSpace(ctx, topo, scope)

    def test_scope_must_be_open(self):
        ctx = named_context(2, 1)
        f1 = make_soft_set(ctx, {"e1": ["x1"]})
        topo = validate_topology(
            ctx,
            [
                ("null", SoftSet.null(ctx)),
                ("absolute", SoftSet.absolute(ctx)),
                ("F1", f1),
            ],
        )
        bad = make_soft_set(ctx, {"e1": ["x2"]})
        with pytest.raises(ScopeViolations) as exc:
            validate_scope(ctx, topo, {"x1": f1, "x2": bad})
        assert NotOpen("x2") in exc.value.violations
