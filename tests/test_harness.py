"""Family enumeration, the law suite engine, and the mapping scan."""

import hashlib

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
    decomposition_mapping_scan,
    discrete_topology,
    enumerate_scope_functions,
    find_strictness_witnesses,
    indiscrete_topology,
    iter_family_spaces,
    oracle_closure,
    oracle_interior,
    run_law_suite,
    replay_witness,
    witness_from_json,
)

from softaura import harness

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


class TestFamilyIteration:
    def test_exhaustive_order_and_count(self):
        spec = SpaceFamilySpec(2, 2)
        items = list(iter_family_spaces(spec))
        assert len(items) == 1 + 1 + 4 + 16
        assert items[0][0] == (1, 1, 0)
        ranks = [rank for rank, _ in items]
        assert ranks == sorted(ranks)

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
        "94cc3810dbf52f9b8aad10f47de3674ab7b00a8937185235ac12606029128c84",
    ),
    (
        SpaceFamilySpec(3, 2, topology_kind="generated", scope_mode="sampled", seed=5, sample_count=10),
        "83682ade3586e7f320a836abf1c895f5e66a55206dd49bb999c651d959e80326",
    ),
]


@pytest.mark.parametrize("spec, digest", REPORT_SHA256)
def test_report_bytes_pinned(spec, digest):
    assert hashlib.sha256(run_law_suite(spec).to_json_bytes()).hexdigest() == digest


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
        assert all(replay_witness(w) is True for w in witnesses)
        monkeypatch.undo()
        assert all(replay_witness(w) is False for w in witnesses)

    def test_replay_rejects_unknown_kind(self, small_suite):
        w = small_suite.strictness["alpha=>pre"]
        broken = witness_from_json({**w.to_json_dict(), "kind": "mystery"})
        with pytest.raises(ValueError):
            replay_witness(broken)


class TestMappingScan:
    def test_quick_scan(self):
        res = decomposition_mapping_scan(per_shape=3)
        assert res.mappings_checked > 0
        assert res.kuratowski_failures == 0
        assert res.kuratowski_first_failure is None
        assert res.cech_mismatches >= 0
        if res.cech_mismatches:
            d = res.cech_first_mismatch
            assert set(d) >= {"source", "target", "pointMap", "paramMap"}
