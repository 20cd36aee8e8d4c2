"""Family enumeration, the law suite engine, and the mapping scan."""

import collections
import copy
import functools
import gc
import hashlib
import itertools
import pickle
import random
import time
import types
import weakref

import pytest
from hypothesis import given, settings

from softaura import (
    CapExceeded,
    Context,
    DocumentError,
    KuratowskiResult,
    LAWS,
    OpennessProfile,
    REPORT_ROWS,
    STRICTNESS_EDGES,
    SizeGuard,
    SoftAuraSpace,
    SoftSet,
    SpaceFamilySpec,
    aura_closure,
    aura_interior,
    classify,
    decode_mapping,
    decode_space,
    decomposition_mapping_scan,
    discrete_topology,
    encode_space,
    enumerate_aura_topology,
    enumerate_scope_functions,
    indiscrete_topology,
    iter_all_soft_sets,
    iter_family_spaces,
    oracle_closure,
    oracle_interior,
    run_law_suite,
    replay_witness,
    verify_decomposition,
    witness_from_json,
)

from softaura import harness, mapping, operators, rough

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

    @pytest.mark.parametrize("mode", [{}, {"scope_mode": "sampled", "seed": 1, "sample_count": 3}])
    def test_universe_bound_within_limit(self, mode):
        with pytest.raises(ValueError, match="limit is 64"):
            SpaceFamilySpec(65, 1, **mode)
        assert SpaceFamilySpec(64, 1, scope_mode="sampled", seed=1, sample_count=1).max_universe == 64

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
        # the hierarchy law alone finds the same witnesses
        assert run_law_suite(SpaceFamilySpec(2, 2), ["hierarchy-cech"]).strictness == small_suite.strictness

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
        # a report row's first witness replays through the report registry
        firsts = [witness_from_json(row["first"]) for row in full.reports.values() if row["found"]]
        assert [(w.kind, w.name) for w in firsts] == [("report", "alpha-meet-kuratowski"), ("report", "decomposition-set-cech")]
        assert all(replay_witness(w) is True for w in firsts)

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

    def test_result_is_a_value(self, small_suite):
        result = run_law_suite(SpaceFamilySpec(2, 2))
        for record in (result, *result.laws.values()):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
        assert result == small_suite
        for again in (copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
            assert again == result and again.to_json_bytes() == result.to_json_bytes()

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


def _null_to_absolute(real):
    """A closure that sends the null set to the absolute set and is `real` elsewhere."""
    return lambda space, g: SoftSet.absolute(space.context) if g.is_null() else real(space, g)


#: sha256 of the exhaustive 2 x 2 report under `_null_to_absolute` for every
#: law, a rough pair row alone and a rough pair row beside the row it shares
#: a comparison with: a rough row counts and witnesses what that row fails
FAULTY_REPORT_SHA256 = [
    (None, "d203e8a0e6e997c52cdb507a5d46fc011319bcc755e85ee5b684b155076160a8"),
    (["rough-monotonicity"], "e741fdc7e050eada512d2f5baf6fed9f7e6e05da37bde75b1a2fa73334ce452a"),
    (["rough-lower-meet", "interior-meet"], "c9a1dd69ba8860bca64f1b8cdc5306c97ace988772bdaf1180b85ee7ea294005"),
]


@pytest.mark.parametrize("laws, digest", FAULTY_REPORT_SHA256, ids=["all", "rough-monotonicity", "lower-meet"])
def test_faulty_report_bytes_pinned(laws, digest, monkeypatch):
    monkeypatch.setattr(harness, "aura_closure", _null_to_absolute(harness.aura_closure))
    result = run_law_suite(SpaceFamilySpec(2, 2), laws=laws)
    assert hashlib.sha256(result.to_json_bytes()).hexdigest() == digest
    assert all(replay_witness(w) is True for row in result.laws.values() for w in row.witnesses)


def _nulls_first_slice_full(real):
    """An operator that sends the set with all of X at e1 and null slices elsewhere to the null set when |X| >= 2."""

    def op(space, g):
        ctx = space.context
        if ctx.n_points > 1 and g.masks[0] == ctx.full_mask and not any(g.masks[1:]):
            return SoftSet.null(ctx)
        return real(space, g)

    return op


#: Operators `_nulls_first_slice_full` breaks in each fault case
_ROUGH_FAULTS = {"both": ("aura_closure", "aura_interior"), "closure": ("aura_closure",), "interior": ("aura_interior",)}
ROUGH_PAIR_ROWS = ("rough-monotonicity", "rough-upper-join", "rough-lower-meet")


@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1)], ids=["2x1", "2x2", "3x1"])
@pytest.mark.parametrize("fault", list(_ROUGH_FAULTS))
@pytest.mark.parametrize("name", ROUGH_PAIR_ROWS)
def test_rough_row_counts_each_failing_pair_once(name, fault, shape, monkeypatch):
    # with both operators broken, monotonicity fails on pairs where the
    # closure and the interior both break it, and the pair counts once
    for op in _ROUGH_FAULTS[fault]:
        monkeypatch.setattr(harness, op, _nulls_first_slice_full(getattr(harness, op)))
    spec = SpaceFamilySpec(*shape)
    row = run_law_suite(spec, laws=[name]).laws[name]
    law = LAWS[name].evaluator
    failing = 0
    for _, space in iter_family_spaces(spec):
        t = harness._Tables(space)
        failing += sum(not law(t, g, h) for g in range(t.full + 1) for h in range(g, t.full + 1))
    assert row.failures == failing
    # the closure alone breaks no meet of interiors, the interior no join of closures
    assert (failing == 0) == ((name, fault) in {("rough-upper-join", "interior"), ("rough-lower-meet", "closure")})
    if (name, fault) == ("rough-monotonicity", "both"):
        assert failing == {(2, 1): 8, (2, 2): 296, (3, 1): 392}[shape]
    ranks = [w.rank for w in row.witnesses]
    assert len(set(ranks)) == len(ranks) == min(failing, harness.WITNESS_LIMIT)
    assert all(replay_witness(w) is True for w in row.witnesses)


def test_sampled_sets_pinned():
    # explicit 64-bit mixing of the family seed and the space rank, so sampled
    # sets do not depend on the interpreter's tuple hash
    sets = harness._sampled_sets(harness._family_context(7, 2), 9, (7, 2, 5))
    assert sets[:4] == [3915, 11811, 12529, 1810]


def _spilling(real):
    """A closure that also marks x1 at e2 on the sets at e1 alone that hold x1."""

    def spills(space, g):
        out = real(space, g)
        if space.context.n_params > 1 and g.masks[0] & 1 and not any(g.masks[1:]):
            return SoftSet(space.context, (out.masks[0], out.masks[1] | 1, *out.masks[2:]))
        return out

    return spills


def _reversed_columns(real):
    """A closure that reads the scope columns in reverse parameter order."""
    return lambda space, g: SoftSet(space.context, tuple(map(operators._closure_slice, space.scope_columns[::-1], g.masks)))


def _reads_x1_at_e2(real):
    """A closure that, on a set at e1 alone, also marks the last point at e1 when x1's scope at e2 is absolute."""

    def reads(space, g):
        out = real(space, g)
        ctx = space.context
        if ctx.n_params > 1 and g.masks[0] and not any(g.masks[1:]) and space.scope_masks[0][1] == ctx.full_mask:
            return SoftSet(ctx, (out.masks[0] | 1 << (ctx.n_points - 1), *out.masks[1:]))
        return out

    return reads


def _widening(real):
    """A closure that sends every set with two points at the first parameter to the absolute set."""
    return lambda space, g: SoftSet.absolute(space.context) if g.masks[0] & (g.masks[0] - 1) else real(space, g)


def _odd_subbasis_null(real):
    """`_null_to_absolute` on generated topologies with an odd number of subbasis sets; `real` elsewhere."""
    return lambda space, g: (
        SoftSet.absolute(space.context)
        if g.is_null() and len(space.topology.subbasis or ()) % 2
        else real(space, g)
    )


@pytest.mark.parametrize(
    "faults, rows",
    [
        ((("aura_closure", _widening),), {"closure-additivity", "rough-upper-join"}),
        ((("aura_closure", _nulls_first_slice_full), ("aura_interior", _nulls_first_slice_full)), set(ROUGH_PAIR_ROWS)),
    ],
    ids=["widening", "nulls-first-slice-full"],
)
def test_pair_scan_hits_each_row_once_per_pair(faults, rows, monkeypatch):
    # the suite counts every hit of `_pair_row`, so no row may be hit twice
    # on one pair, rough rows included
    for op, fault in faults:
        monkeypatch.setattr(harness, op, fault(getattr(harness, op)))
    hits = collections.Counter()
    for rank3, space in iter_family_spaces(SpaceFamilySpec(2, 2)):
        t = harness._Tables(space)
        size = t.full + 1
        for g in range(size):
            harness._pair_row(t, g, range(g, size), lambda name, a, b: hits.update([(rank3, name, a, b)]))
    assert rows <= {name for _, name, _, _ in hits}
    assert max(hits.values()) == 1


class TestSampledRepeats:
    """A space drawn again in a sampled family is checked once and replayed; the report is unchanged."""

    # 3 x 2 seed 6 draws 200 spaces, most of them again: pinned fault-free, with
    # a closure that leaks out of its slice, and with one that fails thousands
    # of pairs, so the kept findings are bounded and rough rows interleave
    REPEATING = SpaceFamilySpec(3, 2, scope_mode="sampled", seed=6, sample_count=200)

    @pytest.mark.parametrize(
        "fault, failures, digest",
        [
            (None, 0, "6d9d027f13b1bc17063dfc43c52246e013f6f860bec98ff447aef18c393a25dc"),
            (_spilling, 3230, "f2cf9a058019e53af054373577e9248f0684082d177aebc5c556f3a237b3663c"),
            (_widening, 11455, "1ddd49858c53442d4d2491a07a244626e498ec945eac06c5defbb675dbb725b3"),
        ],
        ids=["none", "spilling", "widening"],
    )
    def test_report_bytes_pinned(self, fault, failures, digest, monkeypatch):
        if fault is not None:
            monkeypatch.setattr(harness, "aura_closure", fault(harness.aura_closure))
        result = run_law_suite(self.REPEATING)
        assert result.spaces_checked == 200
        assert result.total_failures == failures
        assert hashlib.sha256(result.to_json_bytes()).hexdigest() == digest
        witnesses = [w for row in result.laws.values() for w in row.witnesses]
        assert len(witnesses) == harness.WITNESS_LIMIT * sum(1 for r in result.laws.values() if r.failures)
        assert all(replay_witness(w) is True for w in witnesses)

    def test_kept_findings_are_bounded(self, monkeypatch):
        # under a fault failing thousands of pairs each row of a space keeps
        # only the findings it can take as a witness, counting the rest
        kept = []

        class Keeping(harness._Findings):
            def __init__(self, limits):
                super().__init__(limits)
                kept.append(self)

        monkeypatch.setattr(harness, "_Findings", Keeping)
        monkeypatch.setattr(harness, "aura_closure", _widening(harness.aura_closure))
        run_law_suite(self.REPEATING)
        assert max(sum(count for count, _ in f.values()) for f in kept) > 100
        for found in kept:
            for row, (count, firsts) in found.items():
                limit = 1 if row in REPORT_ROWS else harness.WITNESS_LIMIT
                assert len(firsts) <= min(count, limit)

    @pytest.mark.parametrize(
        "spec, tables",
        [
            (SpaceFamilySpec(3, 2, scope_mode="sampled", seed=6, sample_count=20), 16),
            # every scope is enumerated once, so no space repeats
            (SpaceFamilySpec(2, 2), 22),
        ],
    )
    def test_tables_built_once_per_distinct_space(self, spec, tables, monkeypatch):
        result, built = _recorded_run(spec, monkeypatch)
        assert len(built) == tables == len({space for _, space in iter_family_spaces(spec)})
        assert all(t.space == space for (_, space), t in built)
        assert result.spaces_checked == sum(1 for _ in iter_family_spaces(spec))

    def test_equal_scopes_under_other_topologies_stay_apart(self, monkeypatch):
        # 20 generated 2 x 2 draws: 15 distinct spaces, but only 5 distinct
        # scopes; the witnesses carry the subbasis, and the fault reads it
        spec = SpaceFamilySpec(2, 2, topology_kind="generated", scope_mode="sampled", seed=4, sample_count=20)
        spaces = [space for _, space in iter_family_spaces(spec)]
        assert len(set(spaces)) == 15
        assert len({(s.context, s.scope) for s in spaces}) == 5
        result, built = _recorded_run(spec, monkeypatch)
        assert len(built) == 15
        assert hashlib.sha256(result.to_json_bytes()).hexdigest() == (
            "e9c646f96bde5d2e7f07f3106354e597c1ad0be899a6dced53dd12350f822c50"
        )
        monkeypatch.setattr(harness, "aura_closure", _odd_subbasis_null(harness.aura_closure))
        result = run_law_suite(spec)
        assert result.total_failures == 63
        assert hashlib.sha256(result.to_json_bytes()).hexdigest() == (
            "07ee25e96a91aa7c5fb1467fbb1b52c21205c7b6751317d8d9363d8627c37a96"
        )
        witnesses = [w for row in result.laws.values() for w in row.witnesses]
        assert witnesses and all(replay_witness(w) is True for w in witnesses)


class TestWitnessPlumbing:
    def test_round_trip(self, small_suite):
        w = small_suite.strictness["alpha=>pre"]
        back = witness_from_json(w.to_json_dict())
        assert back == w
        assert replay_witness(back)
        # the witness space is a canonical space document
        assert encode_space(decode_space(w.space)) == w.space

    def test_law_witnesses_replay(self, monkeypatch):
        # a closure that sends the null set to the absolute set breaks
        # grounding (space law), duality (set law) and additivity (pair law)
        monkeypatch.setattr(harness, "aura_closure", _null_to_absolute(harness.aura_closure))
        result = run_law_suite(SpaceFamilySpec(2, 2))
        for name in ("closure-grounding", "duality", "closure-additivity"):
            assert result.laws[name].failures > 0, name
        witnesses = [w for row in result.laws.values() for w in row.witnesses]
        assert {LAWS[w.name].arity for w in witnesses} == {"space", "set", "pair"}
        # rough pair rows carry their own name and replay through their own entry
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
        odd_space = witness_from_json({**w.to_json_dict(), "space": {**w.space, "topology": {"kind": "mystery"}}})
        with pytest.raises(DocumentError, match="unknown topology kind"):
            replay_witness(odd_space)

    @pytest.mark.parametrize(
        "kind, name",
        [
            ("law", "no-such-law"),
            ("law", "decomposition-set-cech"),
            ("report", "no-such-report"),
            ("report", "duality"),
            ("strictness", "no-such-edge"),
        ],
    )
    def test_replay_rejects_unknown_name(self, kind, name, small_suite):
        w = small_suite.strictness["alpha=>pre"]
        unknown = witness_from_json({**w.to_json_dict(), "kind": kind, "name": name})
        with pytest.raises(ValueError, match="cannot replay"):
            replay_witness(unknown)

    @pytest.mark.parametrize(
        "kind, name, sets",
        [
            ("law", "closure-grounding", 1),
            ("law", "duality", 0),
            ("law", "duality", 2),
            ("law", "closure-monotonicity", 1),
            ("law", "rough-monotonicity", 3),
            ("report", "alpha-meet-cech", 1),
            ("strictness", "alpha=>pre", 0),
            ("strictness", "alpha=>pre", 2),
        ],
    )
    def test_replay_rejects_a_wrong_number_of_sets(self, kind, name, sets, small_suite):
        # the row's number of sets is checked before the (here empty) space document is read
        doc = small_suite.strictness["alpha=>pre"].to_json_dict()
        odd = witness_from_json({**doc, "kind": kind, "name": name, "sets": doc["sets"] * sets, "space": {}})
        with pytest.raises(ValueError, match="cannot replay"):
            replay_witness(odd)


def _lazy_spaces(n: int, m: int, seeds):
    """Seeded discrete n x m spaces, the shape the suite only samples."""
    ctx = harness._family_context(n, m)
    topo = discrete_topology(ctx)
    for seed in seeds:
        yield SoftAuraSpace(ctx, topo, harness._sample_scope(ctx, topo, random.Random(seed)))


def _entries(t, packed):
    """Every table's entry at each packed set: cl, int_, fix, both openness rows, both oracles."""
    tables = (t.cl, t.int_, t.fix, t.rows["cech"], t.rows["kuratowski"], *t.oracle)
    return [tuple(table[g] for table in tables) for g in packed]


def _recorded_run(spec, monkeypatch):
    """The suite's result on `spec` and, per table the run built, the draw it was built for and the table.

    A sampled family's enumerable space drawn again builds no tables, so
    its later draws are left out.
    """
    built = []

    class Recording(harness._Tables):
        def __init__(self, space, unpacked=None):
            super().__init__(space, unpacked)
            built.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_Tables", Recording)
        result = run_law_suite(spec)
    seen = set()
    draws = []
    for rank3, space in iter_family_spaces(spec):
        if spec.scope_mode == "sampled" and rank3[0] * rank3[1] <= harness.EXHAUSTIVE_GUARD:
            if space in seen:
                continue
            seen.add(space)
        draws.append((rank3, space))
    assert len(draws) == len(built)
    return result, list(zip(draws, built))


def _non_null_slices(g) -> int:
    return sum(1 for mk in g.masks if mk)


class TestComposedTables:
    """`cl`, `int_` and `fix` are composed from single-slice entries; the laws must still see every fault."""

    def test_entries_equal_whole_set_operator_calls(self):
        eager = [harness._Tables(space) for _, space in iter_family_spaces(SpaceFamilySpec(2, 2))]
        lazy = [harness._Tables(space) for space in _lazy_spaces(4, 4, range(3))]
        assert all(type(t.cl) is list for t in eager) and all(type(t.cl) is harness._Lazy for t in lazy)
        for t in eager + lazy:
            n = t.space.context.n_points
            for g in range(t.full + 1):
                s = harness._unpack(t.space.context, g)
                assert t.cl[g] == harness._pack(aura_closure(t.space, s).masks, n)
                assert t.int_[g] == harness._pack(aura_interior(t.space, s).masks, n)

    def test_representation_follows_the_shape(self, monkeypatch):
        # whoever builds the tables: a replayed 3 x 2 witness space gets the
        # lists the suite filled, a 4 x 4 space dicts
        spec = SpaceFamilySpec(3, 2, scope_mode="sampled", seed=6, sample_count=20)
        result, built = _recorded_run(spec, monkeypatch)
        witnesses = [w for w in result.strictness.values() if w is not None and w.rank[:2] == (3, 2)]
        assert witnesses
        tables = {rank3: suite for (rank3, _), suite in built}
        for w in witnesses:
            suite, t = tables[w.rank[:3]], harness._Tables(harness.replay_space(w.space))
            assert replay_witness(w)
            assert t.exhaustive and type(t.cl) is type(t.fix) is type(t.rows["cech"]) is type(t.sets) is list
            every = range(t.full + 1)
            assert _entries(t, every) == _entries(suite, every)
            assert [s.masks for s in t.sets] == [s.masks for s in suite.sets]
        (space,) = _lazy_spaces(4, 4, [0])
        t = harness._Tables(space)
        assert not t.exhaustive
        assert all(type(table) is harness._Lazy for table in (t.sets, t.cl, t.int_, t.fix, *t.rows.values()))

    def test_tables_above_the_guard_keep_their_rows_to_themselves(self, monkeypatch):
        # list-backed tables of one context share its unpacked sets, which
        # make no operator call; dict-backed tables fill with what one
        # sampled space reads, so they unpack their sets for themselves
        spec = SpaceFamilySpec(2, 16, scope_mode="sampled", seed=5, sample_count=24)
        result, built = _recorded_run(spec, monkeypatch)
        above = [(rank3, t) for (rank3, _), t in built if not t.exhaustive]
        below = [t for _, t in built if t.exhaustive]
        assert above and below and result.total_failures == 0
        shared = {t.space.context: t.sets for t in below}
        assert all(t.sets is shared[t.space.context] for t in below)
        assert len({id(t.sets) for _, t in above}) == len(above)
        for rank3, t in above:
            assert type(t.sets) is harness._Lazy
            packed = harness._sampled_sets(t.space.context, spec.seed, rank3)
            assert _entries(t, packed) == _entries(harness._Tables(t.space), packed)

    def test_memo_lasts_one_run(self, monkeypatch):
        real = harness.aura_closure
        calls = [0]

        def counting(space, g):
            calls[0] += 1
            return real(space, g)

        monkeypatch.setattr(harness, "aura_closure", counting)
        spec = SpaceFamilySpec(3, 2, scope_mode="sampled", seed=6, sample_count=20)
        run_law_suite(spec)
        first = calls[0]
        run_law_suite(spec)
        assert calls[0] == 2 * first

    @pytest.mark.parametrize("shape, table_type", [((2, 2), list), ((4, 4), harness._Lazy)], ids=["2x2-lists", "4x4-dicts"])
    def test_tables_freed_without_the_cyclic_collector(self, shape, table_type):
        (space,) = _lazy_spaces(*shape, [3])
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = harness._Tables(space)
            assert type(t.cl) is type(t.fix) is type(t.rows["cech"]) is table_type
            ref = weakref.ref(t)
            for g in (0, 5, t.full):
                _entries(t, [g]), t.int_[g], t.sets[g]
            t.separation, harness._slice_decision(t, harness.LAWS)
            del t
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_multi_slice_fault_in_rough_is_reported_by_delegation(self, monkeypatch):
        # the tables never call the closure on a set with two non-null
        # slices, so only the rows that call the public rough operators see this
        real = rough.aura_closure

        def adds_a_point(space, g):
            c = real(space, g)
            if _non_null_slices(g) < 2:
                return c
            return SoftSet(space.context, (c.masks[0] | 1, *c.masks[1:]))

        monkeypatch.setattr(rough, "aura_closure", adds_a_point)
        result = run_law_suite(SpaceFamilySpec(2, 2))
        # accuracy() counts on the slice kernel, not through upper_approx (see below)
        assert {name for name, row in result.laws.items() if row.failures} == {"rough-delegation"}
        assert all(replay_witness(w) for w in result.laws["rough-delegation"].witnesses)

    @pytest.mark.parametrize(
        "spec",
        # seed 20 draws two 6 x 3 spaces
        [SpaceFamilySpec(2, 2), SpaceFamilySpec(6, 3, scope_mode="sampled", seed=20, sample_count=2)],
        ids=["2x2-lists", "6x3-dicts"],
    )
    def test_overshooting_fixpoint_is_reported(self, spec, monkeypatch):
        # a fixpoint kernel that fills every non-null slice, with its
        # iteration counts unchanged: the tables iterate the closure instead,
        # so kuratowski-fixpoint sees the public operator miss the least fixpoint
        real = operators._fixpoint_slice

        def overshoots(space, ei, g):
            _, growth = real(space, ei, g)
            return (space.context.full_mask if g else 0), growth

        monkeypatch.setattr(operators, "_fixpoint_slice", overshoots)
        row = run_law_suite(spec).laws["kuratowski-fixpoint"]
        assert row.failures > 0
        (n, m, *_) = row.witnesses[0].rank
        assert (n * m <= harness.EXHAUSTIVE_GUARD) == (spec.scope_mode == "all")
        assert replay_witness(row.witnesses[0])
        monkeypatch.undo()
        assert not replay_witness(row.witnesses[0])

    def test_multi_slice_fault_in_the_fixpoint_closure_is_reported(self, monkeypatch):
        # the tables never call the fixpoint closure, so only the law that
        # calls the public operator on every set sees a fault on sets with
        # two non-null slices
        real = harness.kuratowski_closure

        def drops_x1(space, g):
            out = real(space, g)
            if _non_null_slices(g) < 2:
                return out
            closure = SoftSet(space.context, (out.closure.masks[0] & ~1, *out.closure.masks[1:]))
            return KuratowskiResult(closure, out.iterations)

        monkeypatch.setattr(harness, "kuratowski_closure", drops_x1)
        result = run_law_suite(SpaceFamilySpec(2, 2))
        assert {name for name, row in result.laws.items() if row.failures} == {"kuratowski-fixpoint"}
        witnesses = result.laws["kuratowski-fixpoint"].witnesses
        assert witnesses and all(replay_witness(w) for w in witnesses)
        monkeypatch.undo()
        assert not any(replay_witness(w) for w in witnesses)

    @pytest.mark.parametrize("fault", ["adds-x1", "null"])
    def test_accuracy_kernel_fault_is_reported_by_rough_accuracy(self, fault, monkeypatch):
        # accuracy() counts both approximations on the slice kernel in one pass;
        # a kernel that adds x1 to every non-null closure slice there, or one
        # that returns null slices (so the counts no longer fit and Accuracy
        # refuses them), is seen by rough-accuracy alone, since every other
        # row reads other code
        real = rough._closure_slice
        if fault == "adds-x1":
            kernel = lambda col, g: real(col, g) | (1 if g else 0)
        else:
            kernel = lambda col, g: 0
        monkeypatch.setattr(rough, "_closure_slice", kernel)
        result = run_law_suite(SpaceFamilySpec(2, 2))
        assert {name for name, row in result.laws.items() if row.failures} == {"rough-accuracy"}
        witnesses = result.laws["rough-accuracy"].witnesses
        assert witnesses and all(replay_witness(w) for w in witnesses)
        monkeypatch.undo()
        assert not any(replay_witness(w) for w in witnesses)

    @pytest.mark.parametrize(
        "fault, failures, digest",
        [
            (_reversed_columns, 730, "f060912872550a204fd9bd8c587da9147b8aa5922858fa2931e046b4ce1c0f96"),
            (_reads_x1_at_e2, 128, "ee92e4d31eac0387a7b8d51de1a374c0037741cc8263eb228ef63f9dc0bde8ed"),
        ],
        ids=["reversed-columns", "reads-x1-at-e2"],
    )
    def test_fault_reading_another_column_is_reported_on_its_own_space(self, fault, failures, digest, monkeypatch):
        # each fault keeps its single-slice entries in their own slice but
        # reads a scope column of another parameter; spaces with the same
        # column at the set's parameter then disagree, so every space's
        # tables must come from its own calls for the counts to be right
        # and every witness to replay
        monkeypatch.setattr(harness, "aura_closure", fault(harness.aura_closure))
        result = run_law_suite(SpaceFamilySpec(2, 2))
        assert result.total_failures == failures
        assert hashlib.sha256(result.to_json_bytes()).hexdigest() == digest
        witnesses = [w for row in result.laws.values() for w in row.witnesses]
        assert witnesses and all(replay_witness(w) is True for w in witnesses)
        monkeypatch.undo()
        assert not any(replay_witness(w) for w in witnesses)

    def test_single_slice_fault_is_reported_by_the_oracle(self, monkeypatch):
        real = harness.aura_closure

        def wrong_on_x1_at_e1(space, g):
            if g.masks[0] == 1 and _non_null_slices(g) == 1:
                return SoftSet.absolute(space.context)
            return real(space, g)

        monkeypatch.setattr(harness, "aura_closure", wrong_on_x1_at_e1)
        row = run_law_suite(SpaceFamilySpec(2, 2)).laws["oracle-equivalence"]
        assert row.failures > 0
        assert all(replay_witness(w) for w in row.witnesses)

    def test_wrong_oracle_interior_is_reported(self, monkeypatch):
        # an interior oracle that returns each slice unchanged
        real = harness._oracle_scan

        def identity_interior(table, names, interior):
            return [x for x, _ in table if x in names] if interior else real(table, names, interior)

        monkeypatch.setattr(harness, "_oracle_scan", identity_interior)
        row = run_law_suite(SpaceFamilySpec(2, 2)).laws["oracle-equivalence"]
        assert row.failures > 0
        assert all(replay_witness(w) for w in row.witnesses)
        monkeypatch.undo()
        assert not any(replay_witness(w) for w in row.witnesses)

    def test_oracle_runs_once_per_slice(self, monkeypatch):
        real_scan, real_scopes = harness._oracle_scan, harness.oracle_scopes
        calls = {}

        class Column(list):
            """One parameter's oracle scope table, which knows its space and parameter index."""

        def scopes(space):
            out = real_scopes(space)
            for i, e in enumerate(out):
                out[e] = Column(out[e])
                out[e].key = (space, i)
            return out

        def counting(table, names, interior):
            if not interior:
                space, i = table.key
                calls.setdefault(space, []).append((i, frozenset(names)))
            return real_scan(table, names, interior)

        monkeypatch.setattr(harness, "oracle_scopes", scopes)
        monkeypatch.setattr(harness, "_oracle_scan", counting)
        run_law_suite(SpaceFamilySpec(2, 2))
        assert len(calls) == 22
        for space, slices in calls.items():
            # the null set once per space, so each parameter's null slice once;
            # each single-slice set of the space once, never a slice twice
            n, m = space.context.n_points, space.context.n_params
            assert len(slices) == len(set(slices)) == m << n
            assert sorted(i for i, names in slices if not names) == list(range(m))

    @pytest.mark.parametrize(
        "spec, stride",
        [(SpaceFamilySpec(2, 2), 1), (SpaceFamilySpec(3, 1), 1), (SpaceFamilySpec(3, 2), 8), (None, 5)],
    )
    def test_oracle_entries_equal_whole_set_oracle_calls(self, spec, stride):
        # spec None: lazy tables of seeded 4 x 4 spaces, the shape the suite
        # samples; each exhaustive family shares its unpacked sets, as the
        # suite does.  The r-th space checks the sets g = r (mod stride): with
        # stride 8 every 3 x 2 space and every 3 x 2 set is checked, in 1/8 of
        # the family's 262,934 (space, set) pairs
        if spec is None:
            spaces = list(_lazy_spaces(4, 4, range(3)))
        else:
            spaces = [space for _, space in iter_family_spaces(spec)]
        unpacked = {}
        tables = [harness._Tables(space, unpacked).oracle for space in spaces]
        for r, (space, (ocl, oint)) in enumerate(zip(spaces, tables)):
            ctx = space.context
            n = ctx.n_points
            scopes = harness.oracle_scopes(space)
            for g in range(r % stride, 1 << n * ctx.n_params, stride):
                s = harness._unpack(ctx, g)
                assert ocl[g] == harness._pack(oracle_closure(space, s, scopes).masks, n)
                assert oint[g] == harness._pack(oracle_interior(space, s, scopes).masks, n)

    def test_rough_delegation_compares_slices_not_packed_sets(self, monkeypatch):
        # a lower approximation (x1 shifted one place past the last point, null)
        # where the interior is (null, {x1}): packed, the two are the same integer
        real = harness.lower_approx
        calls = [0]

        def aliased(space, g):
            low = real(space, g)
            if low.masks != (0, 1):
                return low
            calls[0] += 1
            return types.SimpleNamespace(masks=(1 << space.context.n_points, 0))

        monkeypatch.setattr(harness, "lower_approx", aliased)
        result = run_law_suite(SpaceFamilySpec(2, 2))
        assert calls[0] > 0
        assert {name for name, row in result.laws.items() if row.failures} == {"rough-delegation"}
        witnesses = result.laws["rough-delegation"].witnesses
        assert witnesses and all(replay_witness(w) for w in witnesses)
        # the packed comparison of the approximation with the table would pass
        assert harness._pack((1 << 2, 0), 2) == harness._pack((0, 1), 2)


def _sliced_and_full(spec, monkeypatch):
    """The suite as run, how often it decided by slices, and the suite on per-set and per-pair scans alone.

    The counter holds the spaces whose pair laws were decided slice by slice
    ("pairs"), and per set law those where it was decided on single-slice
    sets.
    """
    decided = collections.Counter()
    real = harness._slice_decision

    def counting(t, names):
        laws, counts = real(t, names)
        decided.update(laws)
        decided["pairs"] += counts is not None
        return laws, counts

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_slice_decision", counting)
        sliced = run_law_suite(spec)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_slice_decision", lambda t, names: (set(), None))
        full = run_law_suite(spec)
    return sliced, decided, full


def _decided_everywhere(decided, spaces: int) -> bool:
    """Every slicewise set law was decided by slices on all `spaces`."""
    return all(decided[name] == spaces for name in harness._SLICEWISE_SET_LAWS)


class TestSlicePairs:
    """Pair laws decided one parameter slice at a time report exactly what the full `_pair_row` scan reports."""

    @pytest.mark.parametrize(
        "spec, spaces, sets, alpha_meets",
        [
            (SpaceFamilySpec(2, 2), 22, 16, False),
            (SpaceFamilySpec(3, 2, scope_mode="sampled", seed=6, sample_count=20), 20, 64, True),
            # seed 9 draws a single 4 x 3 space, 4,096 sets and 8.4 M pairs
            (SpaceFamilySpec(4, 3, scope_mode="sampled", seed=9, sample_count=1), 1, 4096, True),
        ],
    )
    def test_equals_full_scan(self, spec, spaces, sets, alpha_meets, monkeypatch):
        sliced, decided, full = _sliced_and_full(spec, monkeypatch)
        # each distinct space is decided once: seed 6 draws 16 in 20 (see TestSampledRepeats)
        distinct = len({space for _, space in iter_family_spaces(spec)})
        assert sliced.spaces_checked == spaces
        assert decided["pairs"] == distinct
        assert _decided_everywhere(decided, distinct)
        assert sliced.sets_per_space_max == sets
        assert (sliced.reports["alpha-meet-kuratowski"]["found"] > 0) == alpha_meets
        assert sliced.to_json_dict() == full.to_json_dict()

    def test_far_fewer_pair_evaluations(self, monkeypatch):
        real = harness._pair_row
        pairs = [0]

        def counting(t, g, hs, hit):
            pairs[0] += len(hs)
            real(t, g, hs, hit)

        monkeypatch.setattr(harness, "_pair_row", counting)
        result = run_law_suite(SpaceFamilySpec(2, 2))
        # m * 2^n (2^n + 1) / 2 single-slice pairs per space, against 2^nm (2^nm + 1) / 2
        per_shape = {(1, 1): 3, (1, 2): 6, (2, 1): 10, (2, 2): 20}
        counts = {(1, 1): 1, (1, 2): 1, (2, 1): 4, (2, 2): 16}
        assert pairs[0] == sum(per_shape[s] * counts[s] for s in per_shape)
        assert result.laws["closure-additivity"].checked == 3 + 10 + 4 * 10 + 16 * 136
        # with no pair law selected no pair is evaluated, single-slice or not
        pairs[0] = 0
        run_law_suite(SpaceFamilySpec(2, 2), laws=["duality"])
        assert pairs[0] == 0

    @pytest.mark.parametrize("op, found", [("aura_closure", 16), ("aura_interior", 64), ("kuratowski_closure", 0)])
    def test_entry_outside_its_slice_takes_the_full_scan(self, op, found, monkeypatch):
        # the operator on each single-slice set at e1 holding x1 also marks x1
        # at e2: every table stays the OR of its single-slice entries and no
        # pair of single-slice sets fails a law, but the tables are no longer
        # decided slice by slice (with the closure, the slice formula would
        # count no alpha-meet findings where the full scan counts 16)
        real = getattr(harness, op)

        def spill(ctx, s):
            return SoftSet(ctx, (s.masks[0], s.masks[1] | 1))

        def spills(space, g):
            out = real(space, g)
            if space.context.n_params > 1 and g.masks[0] & 1 and not any(g.masks[1:]):
                if op == "kuratowski_closure":
                    return KuratowskiResult(spill(space.context, out.closure), out.iterations)
                return spill(space.context, out)
            return out

        monkeypatch.setattr(harness, op, spills)
        spec = SpaceFamilySpec(3, 2, scope_mode="sampled", seed=6, sample_count=20)
        sliced, decided, full = _sliced_and_full(spec, monkeypatch)
        # the 20 draws hold 16 distinct spaces, 6 of them one-parameter
        # spaces drawn 9 times; each distinct space is decided once
        one_parameter = len({space for (_, m, _), space in iter_family_spaces(spec) if m == 1})
        assert one_parameter == 6
        assert sliced.spaces_checked == 20
        assert sliced.reports["alpha-meet-cech"]["found"] == found
        assert sliced.to_json_dict() == full.to_json_dict()
        if op == "kuratowski_closure":
            # no table calls the public fixpoint closure, so every space is
            # still decided by slices; kuratowski-fixpoint, which calls it on
            # every set, is scanned set by set and reports the leak
            assert decided["pairs"] == 16 > one_parameter
            assert _decided_everywhere(decided, 16)
            assert sliced.laws["kuratowski-fixpoint"].failures > 0
            return
        assert decided["pairs"] == one_parameter < 20
        assert _decided_everywhere(decided, one_parameter)
        if op == "aura_closure":
            # the fixpoint table iterates the closure table, so it spills too,
            # and the public fixpoint closure no longer matches it
            t = harness._Tables(next(space for (_, m, _), space in iter_family_spaces(spec) if m > 1))
            assert t.fix[1] >> t.space.context.n_points & 1
            assert sliced.laws["kuratowski-fixpoint"].failures > 0

    def test_witnesses_of_a_leaking_closure_replay(self, monkeypatch):
        # the closure of {x1} at e1 also marks x1 at e2, so the fixpoint
        # table, which iterates it, reads the scope column at e2 too; each
        # space's tables are built from its own calls, so the witnesses replay
        real = harness.aura_closure

        def spills(space, g):
            out = real(space, g)
            if space.context.n_params > 1 and g.masks == (1, 0):
                return SoftSet(space.context, (out.masks[0], out.masks[1] | 1))
            return out

        monkeypatch.setattr(harness, "aura_closure", spills)
        result = run_law_suite(SpaceFamilySpec(2, 2))
        witnesses = [w for row in result.laws.values() for w in row.witnesses]
        assert result.laws["kuratowski-fixpoint"].failures > 0
        assert all(replay_witness(w) for w in witnesses)

    def test_law_failing_on_slice_pairs_takes_the_full_scan(self, monkeypatch):
        # a closure that sends each whole slice at e1 to the null set keeps
        # every table a product, but fails additivity on single-slice pairs
        real = harness.aura_closure

        def empties(space, g):
            ctx = space.context
            if ctx.n_points > 1 and g.masks == (ctx.full_mask,) + (0,) * (ctx.n_params - 1):
                return SoftSet.null(ctx)
            return real(space, g)

        monkeypatch.setattr(harness, "aura_closure", empties)
        sliced, decided, full = _sliced_and_full(SpaceFamilySpec(2, 2), monkeypatch)
        # the two one-point spaces alone are decided slice by slice; the
        # tables stay products, so each set law is left to the per-set scan
        # only where a single-slice set fails it
        assert decided["pairs"] == 2
        assert decided["closure-enlargement"] == decided["duality"] == 2
        assert decided["interior-contraction"] == 22
        assert sliced.laws["closure-additivity"].failures > 0
        assert sliced.laws["closure-enlargement"].failures > 0
        assert sliced.to_json_dict() == full.to_json_dict()


class TestSliceSets:
    """Set laws decided on single-slice sets report exactly what the per-set scan reports."""

    @pytest.mark.parametrize(
        "specs, findings",
        [
            ([SpaceFamilySpec(2, 2)], False),
            ([SpaceFamilySpec(3, 1)], True),
            # seeds 9 and 12 each draw one 4 x 2 space, 11 and 16 one 2 x 4 space
            ([SpaceFamilySpec(4, 2, scope_mode="sampled", seed=s, sample_count=1) for s in (9, 12)], True),
            ([SpaceFamilySpec(2, 4, scope_mode="sampled", seed=s, sample_count=1) for s in (11, 16)], False),
        ],
    )
    def test_equals_per_set_scan(self, specs, findings, monkeypatch):
        for spec in specs:
            sliced, decided, full = _sliced_and_full(spec, monkeypatch)
            if spec.scope_mode == "sampled":
                ((n, m, _), _), = iter_family_spaces(spec)
                assert n * m == 8
            assert _decided_everywhere(decided, sliced.spaces_checked)
            assert (sliced.reports["decomposition-set-cech"]["found"] > 0) == findings
            assert sliced.to_json_dict() == full.to_json_dict()

    def test_set_law_reads_single_slice_sets_only(self, monkeypatch):
        calls = [0]
        real = LAWS["duality"]

        def counting(t, g):
            calls[0] += 1
            return real.evaluator(t, g)

        monkeypatch.setitem(LAWS, "duality", harness.LawSpec("set", counting, real.description))
        result = run_law_suite(SpaceFamilySpec(2, 2))
        # m * 2^n single-slice sets per space, against 2^nm sets counted as checked
        counts = {(1, 1): 1, (1, 2): 1, (2, 1): 4, (2, 2): 16}
        assert calls[0] == sum(m * 2**n * k for (n, m), k in counts.items()) == 150
        assert result.laws["duality"].checked == sum(2 ** (n * m) * k for (n, m), k in counts.items()) == 278

    def test_tau_infinity_needs_an_absolute_fixpoint_of_the_absolute_set(self, monkeypatch):
        # a closure that keeps every slice but a full one, which loses x1, and
        # so a fixpoint table, its iterate, that does the same: the tables
        # stay products and tau-infinity-in-tau holds on every single-slice
        # set (its complement has a full, so unclosed, slice), yet fails on
        # sets with two non-null slices that are not open
        def keeps(space, g):
            full = space.context.full_mask
            return SoftSet(space.context, tuple(mk & ~1 if mk == full else mk for mk in g.masks))

        monkeypatch.setattr(harness, "aura_closure", keeps)
        sliced, decided, full = _sliced_and_full(SpaceFamilySpec(2, 2), monkeypatch)
        # the tables are products on every space, but fix of the absolute set
        # is not absolute, so no space decides tau-infinity-in-tau by slices
        assert decided["interior-contraction"] == 22
        assert decided["tau-infinity-in-tau"] == 0
        assert sliced.laws["tau-infinity-in-tau"].failures > 0
        assert sliced.to_json_dict() == full.to_json_dict()

    def test_alpha_not_semi_on_a_slice_takes_the_per_set_count(self, monkeypatch):
        # an interior that fills each non-null slice and a closure that drops
        # x1: {x1} at a parameter is then one-step alpha but not semi, so no
        # count from per-slice flags would give decomposition-set-cech; the
        # per-set scan, which alone counts it, reports it
        def fills(space, g):
            full = space.context.full_mask
            return SoftSet(space.context, tuple(full if mk else 0 for mk in g.masks))

        def drops(space, g):
            return SoftSet(space.context, tuple(mk & ~1 for mk in g.masks))

        monkeypatch.setattr(harness, "aura_interior", fills)
        monkeypatch.setattr(harness, "aura_closure", drops)
        sliced, decided, full = _sliced_and_full(SpaceFamilySpec(2, 2), monkeypatch)
        assert sliced.laws["hierarchy-cech"].failures > 0
        assert sliced.reports["decomposition-set-cech"]["found"] > 0
        assert sliced.to_json_dict() == full.to_json_dict()


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


@functools.lru_cache(maxsize=None)
def cached_reference_scan(per_shape: int) -> harness.MappingScanResult:
    return reference_mapping_scan(per_shape)


#: Public inverse_image calls of the scan by (per_shape, cross_check_every):
#: how many (mapping, target aura-open set) pairs it cross-checks.
SCAN_CROSS_CHECKS = [
    (10, 64, 6758),
    (2, 1, 35672),
    (3, 7, 12712),
    (5, 64, 3280),
    (10, 200, 2162),
    (4, 3, 30936),
]


#: sha256 of the repr of the default scan's public inverse_image calls, in
#: order: (source index, target index) in _family_space_selection(10), the
#: point map's and parameter map's items, and the checked set's masks.
SCAN_CROSS_CHECK_SHA256 = "cd1891005cfb31229499970b95d79adc0f54480a25a5f8b7a2d3ecaaaf7be5a7"


def _counting_inverse_image(monkeypatch) -> list:
    calls = []
    real = mapping.inverse_image

    def counting(m, g):
        calls.append(m.param_map)
        return real(m, g)

    monkeypatch.setattr(mapping, "inverse_image", counting)
    return calls


class TestMappingScan:
    @pytest.mark.parametrize("per_shape", [10, 3])
    def test_equals_product_scan(self, per_shape):
        assert decomposition_mapping_scan(per_shape=per_shape) == cached_reference_scan(per_shape)

    @pytest.mark.parametrize("per_shape, every, pinned", SCAN_CROSS_CHECKS)
    def test_cross_checks_pinned(self, per_shape, every, pinned, monkeypatch):
        calls = _counting_inverse_image(monkeypatch)
        res = decomposition_mapping_scan(per_shape=per_shape, cross_check_every=every)
        assert len(calls) == pinned
        assert res == cached_reference_scan(per_shape)

    def test_default_scan_pins_and_cross_checks(self, monkeypatch):
        calls = _counting_inverse_image(monkeypatch)
        res = decomposition_mapping_scan()
        assert (res.mappings_checked, res.kuratowski_failures, res.cech_mismatches) == (35290, 0, 656)
        assert len(calls) == 6758
        # parameter maps that merge and that swap parameters are both cross-checked
        assert {("e1", "e1"), ("e2", "e1")} <= {(pm["e1"], pm["e2"]) for pm in calls if len(pm) == 2}

    def test_default_cross_checks_pinned_by_value(self, monkeypatch):
        # which (mapping, set) pairs are checked, not only how many
        index = {sp: i for i, sp in enumerate(harness._family_space_selection(10))}
        real = mapping.inverse_image
        calls = []

        def recording(m, g):
            maps = tuple(m.point_map.items()), tuple(m.param_map.items())
            calls.append((index[m.source], index[m.target], *maps, g.masks))
            return real(m, g)

        monkeypatch.setattr(mapping, "inverse_image", recording)
        decomposition_mapping_scan()
        assert len(calls) == 6758
        assert hashlib.sha256(repr(calls).encode()).hexdigest() == SCAN_CROSS_CHECK_SHA256

    @pytest.mark.parametrize("per_shape, total", [(100, 1866256), (10**6, 1838295988)])
    def test_mapping_cap_raised_before_any_classification(self, per_shape, total, monkeypatch):
        # 10**6 selects every scope of every shape: 4,182 spaces
        def refuse(*args):
            raise AssertionError("classified before the mapping cap was checked")

        monkeypatch.setattr(harness, "classify", refuse)
        began = time.perf_counter()
        with pytest.raises(CapExceeded, match="mappings") as info:
            decomposition_mapping_scan(per_shape=per_shape)
        assert time.perf_counter() - began < 1.0
        assert (info.value.required, info.value.cap, info.value.family) == (total, harness.DEFAULT_CAP, "mappings")

    @pytest.mark.parametrize("per_shape", [3, 4])
    def test_equals_product_scan_with_failures_under_both_kinds(self, per_shape, monkeypatch):
        # alpha-open sets that have no slice equal to {x2}: still decided
        # slice by slice, union-closed and holding the null set, so the scan
        # stays exact, but alpha != semi and pre on many mappings under both
        # kinds, first in a pair where several point maps fail
        real = harness.classify

        def no_x2_slice(space, g, kind):
            p = real(space, g, kind)
            if 2 not in g.masks:
                return p
            return OpennessProfile(p.a_open, False, p.semi_open, p.pre_open, p.b_open, p.beta_open, p.closure_kind)

        monkeypatch.setattr(harness, "classify", no_x2_slice)
        monkeypatch.setitem(globals(), "classify", no_x2_slice)
        res = decomposition_mapping_scan(per_shape=per_shape)
        assert res.kuratowski_failures > 0 and res.cech_mismatches > 0
        assert res == reference_mapping_scan(per_shape)

    def test_equals_product_scan_with_fixpoint_failures_alone(self, monkeypatch):
        # the scan skips a parameter map's counting when neither kind fails;
        # alpha dropped on slices equal to {x2} under the fixpoint closure
        # only makes mappings that fail that kind alone
        real = harness.classify

        def no_x2_fixpoint_slice(space, g, kind):
            p = real(space, g, kind)
            if kind != "kuratowski" or 2 not in g.masks:
                return p
            return OpennessProfile(p.a_open, False, p.semi_open, p.pre_open, p.b_open, p.beta_open, p.closure_kind)

        monkeypatch.setattr(harness, "classify", no_x2_fixpoint_slice)
        monkeypatch.setitem(globals(), "classify", no_x2_fixpoint_slice)
        res = decomposition_mapping_scan(per_shape=3)
        assert res.kuratowski_failures > res.cech_mismatches
        assert res == reference_mapping_scan(3)

    def test_every_cross_check_reads_its_own_set(self, monkeypatch):
        # with cross_check_every=1 each (mapping, target aura-open set) pair
        # of the scan is cross-checked once, so no two checks repeat a pair
        real = mapping.inverse_image
        checked = []

        def recording(m, g):
            maps = tuple(m.point_map.items()), tuple(m.param_map.items())
            checked.append((id(m.source), id(m.target), maps, g.masks))
            return real(m, g)

        monkeypatch.setattr(mapping, "inverse_image", recording)
        decomposition_mapping_scan(per_shape=2, cross_check_every=1)
        assert len(set(checked)) == len(checked) == 35672

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

    @pytest.mark.parametrize("per_shape, built", [(2, 10), (3, 14), (10, 36)])
    def test_space_selection_builds_only_the_chosen_scopes(self, per_shape, built, monkeypatch):
        made = []
        real = harness.ScopeFunction
        monkeypatch.setattr(harness, "ScopeFunction", lambda ctx, sets: made.append(sets) or real(ctx, sets))
        spaces = harness._family_space_selection(per_shape)
        monkeypatch.undo()
        assert len(made) == len(spaces) == built
        # evenly spaced ranks of the full canonical enumeration, both ends included
        want = []
        for n in range(1, 4):
            for m in range(1, 3):
                ctx = named_context(n, m)
                topo = discrete_topology(ctx)
                scopes = list(enumerate_scope_functions(ctx, topo))
                last = len(scopes) - 1
                ranks = range(last + 1)
                if last >= per_shape:
                    ranks = sorted({round(j * last / (per_shape - 1)) for j in range(per_shape)})
                want += [SoftAuraSpace(ctx, topo, scopes[i]) for i in ranks]
        assert spaces == want

    def test_quick_scan(self):
        res = decomposition_mapping_scan(per_shape=3)
        assert res.mappings_checked > 0
        assert res.kuratowski_failures == 0
        assert res.kuratowski_first_failure is None
        assert res.cech_mismatches >= 0
        # the default scan's first one-step mismatch is a mapping document that replays
        m, _, _ = decode_mapping(decomposition_mapping_scan().cech_first_mismatch)
        assert verify_decomposition(m, kind="cech")[0] is False
        assert verify_decomposition(m, kind="kuratowski")[0] is True
