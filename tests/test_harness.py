"""Family enumeration, the law suite engine, and the mapping scan."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings

from softaura import (
    CapExceeded,
    Context,
    LAWS,
    REPORT_ROWS,
    STRICTNESS_EDGES,
    SizeGuard,
    SoftSet,
    SpaceFamilySpec,
    aura_closure,
    aura_interior,
    classify,
    decomposition_mapping_scan,
    discrete_topology,
    enumerate_aura_topology,
    enumerate_scope_functions,
    find_strictness_witnesses,
    indiscrete_topology,
    iter_all_soft_sets,
    iter_family_spaces,
    oracle_closure,
    oracle_interior,
    run_law_suite,
    replay_witness,
    witness_from_json,
)

from softaura import harness, mapping

from conftest import named_context, space_with_sets


class TestScopeEnumeration:
    def test_counts(self):
        for (n, m), want in (((1, 1), 1), ((2, 1), 4), ((2, 2), 16), ((3, 2), 4096)):
            ctx = named_context(n, m)
            got = sum(1 for _ in enumerate_scope_functions(ctx, discrete_topology(ctx)))
            assert got == want

    def test_order_endpoints(self):
        ctx = named_context(2, 1)
        scopes = list(enumerate_scope_functions(ctx, discrete_topology(ctx)))
        first, last = scopes[0], scopes[-1]
        # first assigns each point its singleton, last the absolute set
        assert [s.masks for s in first.assignment] == [(1,), (2,)]
        assert [s.masks for s in last.assignment] == [(3,), (3,)]

    def test_all_admissible_and_distinct(self):
        ctx = named_context(2, 2)
        seen = set()
        for scope in enumerate_scope_functions(ctx, discrete_topology(ctx)):
            key = tuple(s.masks for s in scope.assignment)
            assert key not in seen
            seen.add(key)
            for xi in range(2):
                for ei in range(2):
                    assert scope.assignment[xi].masks[ei] >> xi & 1

    def test_cap_raised_upfront(self):
        ctx = named_context(3, 2)
        gen = enumerate_scope_functions(ctx, discrete_topology(ctx), cap=100)
        with pytest.raises(CapExceeded):
            next(gen)

    def test_extensional_topology(self):
        ctx = named_context(2, 1)
        scopes = list(enumerate_scope_functions(ctx, indiscrete_topology(ctx)))
        # only the absolute member contains each point
        assert len(scopes) == 1
        assert scopes[0].assignment[0].is_absolute()


class TestFamilySpec:
    def test_exhaustive_guard(self):
        with pytest.raises(SizeGuard):
            SpaceFamilySpec(4, 4)

    def test_generated_requires_sampled(self):
        with pytest.raises(SizeGuard):
            SpaceFamilySpec(2, 2, topology_kind="generated")

    def test_sampled_requires_seed_and_count(self):
        with pytest.raises(ValueError):
            SpaceFamilySpec(2, 2, scope_mode="sampled")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SpaceFamilySpec(2, 2, scope_mode="everything")

    def test_unknown_topology_kind(self):
        with pytest.raises(ValueError):
            SpaceFamilySpec(2, 2, topology_kind="indiscrete")

    def test_bounds_positive(self):
        with pytest.raises(ValueError):
            SpaceFamilySpec(0, 1)

    @pytest.mark.parametrize("count", [0, -5])
    def test_sample_count_positive(self, count):
        with pytest.raises(ValueError, match="sample_count"):
            SpaceFamilySpec(2, 1, scope_mode="sampled", seed=1, sample_count=count)


class TestFamilyIteration:
    def test_exhaustive_order_and_count(self):
        spec = SpaceFamilySpec(2, 2)
        items = list(iter_family_spaces(spec))
        assert len(items) == 1 + 1 + 4 + 16
        assert items[0][0] == (1, 1, 0)
        ranks = [rank for rank, _ in items]
        assert ranks == sorted(ranks)

    def test_over_cap_shape_fails_before_the_first_space(self):
        # 3x2 and 4x1 fit the cap, but 4x2 has 2^24 discrete scope functions
        with pytest.raises(CapExceeded) as info:
            next(iter_family_spaces(SpaceFamilySpec(4, 2)))
        assert (info.value.required, info.value.cap) == (16_777_216, 1_000_000)
        # 3x3, with 2^18 scope functions at its largest shape, still starts
        assert next(iter_family_spaces(SpaceFamilySpec(3, 3)))[0] == (1, 1, 0)

    def test_sampled_deterministic(self):
        spec = SpaceFamilySpec(3, 2, scope_mode="sampled", seed=11, sample_count=9)
        a = [(rank, space.scope_masks) for rank, space in iter_family_spaces(spec)]
        b = [(rank, space.scope_masks) for rank, space in iter_family_spaces(spec)]
        assert a == b
        assert len(a) == 9

    def test_sampled_generated_topologies_are_valid(self):
        spec = SpaceFamilySpec(
            3, 2, topology_kind="generated", scope_mode="sampled", seed=3, sample_count=8
        )
        for _, space in iter_family_spaces(spec):
            assert space.topology.kind == "generated"
            for s in space.scope.assignment:
                assert space.topology.contains(s)


class TestOracles:
    @given(space_with_sets(count=1, max_points=4, max_params=2))
    @settings(max_examples=100)
    def test_agree_with_operators(self, bundle):
        space, g = bundle
        assert oracle_closure(space, g) == aura_closure(space, g)
        assert oracle_interior(space, g) == aura_interior(space, g)

    def test_hoisted_scope_table_matches_two_argument_call(self):
        for _, space in iter_family_spaces(SpaceFamilySpec(2, 2)):
            scopes = harness.oracle_scopes(space)
            for g in iter_all_soft_sets(space.context):
                assert oracle_closure(space, g, scopes) == oracle_closure(space, g)
                assert oracle_interior(space, g, scopes) == oracle_interior(space, g)


@pytest.fixture(scope="module")
def small_suite():
    return run_law_suite(SpaceFamilySpec(2, 2))


class TestLawSuite:
    def test_all_laws_green(self, small_suite):
        assert set(small_suite.laws) == set(LAWS)
        for name, row in small_suite.laws.items():
            assert row.checked > 0, name
            assert row.failures == 0, name
            assert row.witnesses == []
        assert small_suite.total_failures == 0

    def test_family_shape(self, small_suite):
        assert small_suite.spaces_checked == 22
        assert small_suite.sets_per_space_max == 16

    def test_reports_empty_on_small_family(self, small_suite):
        # alpha meet failures and the set-level one-step decomposition gap
        # all need three points or more
        assert set(small_suite.reports) == set(REPORT_ROWS)
        for row in small_suite.reports.values():
            assert row["found"] == 0
            assert row["first"] is None

    def test_strictness_on_small_family(self, small_suite):
        assert set(small_suite.strictness) == set(STRICTNESS_EDGES)
        w = small_suite.strictness["alpha=>pre"]
        assert w is not None
        assert w.rank == (2, 1, 3, 1)
        assert replay_witness(w)
        for edge in ("open=>alpha", "alpha=>semi", "semi|pre=>b", "b=>beta"):
            assert small_suite.strictness[edge] is None

    def test_law_selection(self):
        res = run_law_suite(SpaceFamilySpec(2, 1), laws=["closure-grounding", "duality"])
        assert set(res.laws) == {"closure-grounding", "duality"}
        assert res.total_failures == 0

    def test_alpha_meet_rows_only_when_pairs_scanned(self):
        # the alpha-meet rows come from the pair scan; without it they are left out
        spec = SpaceFamilySpec(3, 2, scope_mode="sampled", seed=11, sample_count=200)
        res = run_law_suite(spec, laws=["duality"])
        assert list(res.reports) == ["decomposition-set-cech"]
        full = run_law_suite(spec)
        assert list(full.reports) == list(REPORT_ROWS)
        assert full.reports["alpha-meet-kuratowski"]["found"] == 159
        assert res.reports["decomposition-set-cech"] == full.reports["decomposition-set-cech"]

    def test_rough_pair_row_alone_is_scanned(self, small_suite):
        res = run_law_suite(SpaceFamilySpec(2, 2), laws=["rough-monotonicity"])
        assert list(res.laws) == ["rough-monotonicity"]
        assert res.laws["rough-monotonicity"].checked == small_suite.laws["rough-monotonicity"].checked > 0
        assert list(res.reports) == list(REPORT_ROWS)

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError):
            run_law_suite(SpaceFamilySpec(2, 1), laws=["no-such-law"])

    def test_json_deterministic(self, small_suite):
        again = run_law_suite(SpaceFamilySpec(2, 2))
        assert again.to_json_bytes() == small_suite.to_json_bytes()

    def test_json_shape(self, small_suite):
        doc = small_suite.to_json_dict()
        assert doc["config"]["maxUniverse"] == 2
        assert doc["config"]["scopeEnumeration"] == "all"
        assert doc["family"]["spaces"] == 22
        assert set(doc["laws"]) == set(LAWS)
        assert doc["laws"]["duality"]["failures"] == 0
        assert doc["strictness"]["alpha=>pre"]["rank"] == [2, 1, 3, 1]
        bytes_ = small_suite.to_json_bytes()
        assert bytes_.endswith(b"\n")

    def test_sampled_suite_generated_topology(self):
        spec = SpaceFamilySpec(
            3, 2, topology_kind="generated", scope_mode="sampled", seed=5, sample_count=10
        )
        res = run_law_suite(spec)
        assert res.spaces_checked == 10
        assert res.total_failures == 0
        assert res.to_json_bytes() == run_law_suite(spec).to_json_bytes()


#: Report sha256 of cheap specs, pinned so engine changes keep every count,
#: witness rank and report row byte-identical.  The 7x2 spec draws shapes with
#: n*m > 12, so it covers the sampled-set path.
REPORT_SHA256 = [
    (SpaceFamilySpec(2, 2), "70affffdeaf19a24f542123789dcd749b1cf5529a4794dec31bc9db97d883053"),
    (
        SpaceFamilySpec(3, 2, scope_mode="sampled", seed=11, sample_count=200),
        "40b3bbe36228d68c01f8d74b1270345beac2f000631322cd6837a03964b2639e",
    ),
    (
        SpaceFamilySpec(7, 2, scope_mode="sampled", seed=9, sample_count=6),
        "a5d6454e3845e931c4d047601ddd07aa1ec741ee1d12c28e15ebd158576bae76",
    ),
    (
        SpaceFamilySpec(3, 2, topology_kind="generated", scope_mode="sampled", seed=5, sample_count=10),
        "83682ade3586e7f320a836abf1c895f5e66a55206dd49bb999c651d959e80326",
    ),
]


@pytest.mark.parametrize("spec, digest", REPORT_SHA256)
def test_report_bytes_pinned(spec, digest):
    assert hashlib.sha256(run_law_suite(spec).to_json_bytes()).hexdigest() == digest


def test_sampled_sets_pinned():
    # explicit 64-bit mixing of the family seed and the space rank, so sampled
    # sets do not depend on the interpreter's tuple hash
    sets = harness._sampled_sets(harness._family_context(7, 2), 9, (7, 2, 5))
    assert sets[:4] == [3915, 11811, 12529, 1810]


class TestWitnessPlumbing:
    def test_round_trip(self, small_suite):
        w = small_suite.strictness["alpha=>pre"]
        back = witness_from_json(w.to_json_dict())
        assert back == w
        assert replay_witness(back)

    def test_law_witnesses_replay(self, monkeypatch):
        # a closure that sends the null set to the absolute set breaks
        # grounding (space law), duality (set law) and additivity (pair law)
        real = harness.aura_closure

        def broken(space, g):
            return SoftSet.absolute(space.context) if g.is_null() else real(space, g)

        monkeypatch.setattr(harness, "aura_closure", broken)
        result = run_law_suite(SpaceFamilySpec(2, 2))
        for name in ("closure-grounding", "duality", "closure-additivity"):
            assert result.laws[name].failures > 0, name
        witnesses = [w for row in result.laws.values() for w in row.witnesses]
        assert {LAWS[w.name].arity for w in witnesses} == {"space", "set", "pair"}
        # mirrored rough rows carry their own name and replay through their own entry
        for name in ("rough-monotonicity", "rough-upper-join"):
            row = result.laws[name]
            assert row.failures > 0, name
            assert 0 < len(row.witnesses) <= harness.WITNESS_LIMIT
            assert {w.name for w in row.witnesses} == {name}
        assert all(replay_witness(w) is True for w in witnesses)
        monkeypatch.undo()
        assert all(replay_witness(w) is False for w in witnesses)

    def test_replay_rejects_unknown_kind(self, small_suite):
        w = small_suite.strictness["alpha=>pre"]
        broken = witness_from_json({**w.to_json_dict(), "kind": "mystery"})
        with pytest.raises(ValueError):
            replay_witness(broken)


def reference_mapping_scan(per_shape: int) -> harness.MappingScanResult:
    """The product scan: each mapping's flags ANDed over every target aura-open set."""
    spaces = harness._family_space_selection(per_shape)

    def flags(space, c):
        g = harness._unpack(space.context, c)
        pc, pk = classify(space, g, "cech"), classify(space, g, "kuratowski")
        return (pc.alpha_open, pc.semi_open, pc.pre_open, pk.alpha_open, pk.semi_open, pk.pre_open)

    rows = {
        id(sp): [flags(sp, c) for c in range(1 << (sp.context.n_points * sp.context.n_params))]
        for sp in spaces
    }
    taus = {
        id(sp): [harness._pack(v.masks, sp.context.n_points) for v in enumerate_aura_topology(sp)]
        for sp in spaces
    }
    checked = kur_failures = cech_mismatches = 0
    kur_first = cech_first = None
    for src in spaces:
        nx, ne = src.context.n_points, src.context.n_params
        for tgt in spaces:
            ny, nk = tgt.context.n_points, tgt.context.n_params
            full = (1 << ny) - 1
            for u in itertools.product(range(ny), repeat=nx):
                pre = [
                    sum(1 << xi for xi, yi in enumerate(u) if s >> yi & 1) for s in range(full + 1)
                ]
                for p in itertools.product(range(nk), repeat=ne):
                    checked += 1
                    acc = [True] * 6
                    for v in taus[id(tgt)]:
                        h = 0
                        for ei in range(ne):
                            h |= pre[(v >> (p[ei] * ny)) & full] << (ei * nx)
                        acc = [a and f for a, f in zip(acc, rows[id(src)][h])]
                    a_c, s_c, p_c, a_k, s_k, p_k = acc
                    if a_k != (s_k and p_k):
                        kur_failures += 1
                        kur_first = kur_first or harness._mapping_desc(src, tgt, u, p)
                    if a_c != (s_c and p_c):
                        cech_mismatches += 1
                        cech_first = cech_first or harness._mapping_desc(src, tgt, u, p)
    return harness.MappingScanResult(checked, kur_failures, kur_first, cech_mismatches, cech_first)


class TestMappingScan:
    @pytest.mark.parametrize("per_shape", [10, 3])
    def test_equals_product_scan(self, per_shape):
        assert decomposition_mapping_scan(per_shape=per_shape) == reference_mapping_scan(per_shape)

    def test_default_scan_pins_and_cross_checks(self, monkeypatch):
        calls = []
        real = mapping.inverse_image

        def counting(m, g):
            calls.append(m.param_map)
            return real(m, g)

        monkeypatch.setattr(mapping, "inverse_image", counting)
        res = decomposition_mapping_scan()
        assert (res.mappings_checked, res.kuratowski_failures, res.cech_mismatches) == (35290, 0, 656)
        assert len(calls) >= 6758
        # parameter maps that merge and that swap parameters are both cross-checked
        assert {("e1", "e1"), ("e2", "e1")} <= {(pm["e1"], pm["e2"]) for pm in calls if len(pm) == 2}

    def test_wrong_inverse_image_is_caught(self, monkeypatch):
        real = mapping.inverse_image

        def wrong(m, g):
            return real(m, g).complement()

        monkeypatch.setattr(mapping, "inverse_image", wrong)
        with pytest.raises(AssertionError, match="inverse_image"):
            decomposition_mapping_scan(per_shape=3)

    @pytest.mark.parametrize(
        "options",
        [{"per_shape": 1}, {"per_shape": 0}, {"cross_check_every": 0}, {"cross_check_every": -1}],
    )
    def test_rejects_degenerate_options(self, options):
        # these used to divide by zero, scan nothing, or slice the family backwards
        with pytest.raises(ValueError, match=next(iter(options))):
            decomposition_mapping_scan(**options)

    def test_quick_scan(self):
        res = decomposition_mapping_scan(per_shape=3)
        assert res.mappings_checked > 0
        assert res.kuratowski_failures == 0
        assert res.kuratowski_first_failure is None
        assert res.cech_mismatches >= 0
        if res.cech_mismatches:
            d = res.cech_first_mismatch
            assert set(d) >= {"source", "target", "pointMap", "paramMap"}
