"""Soft mappings, inverse images, continuity flags, and the two verifiers."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softaura import (
    CECH,
    KURATOWSKI,
    TARGET_AMBIENT,
    TARGET_AURA,
    TARGET_KURATOWSKI,
    CapExceeded,
    ContextMismatch,
    ContinuityProfile,
    SoftAuraSpace,
    SoftMapping,
    SoftSet,
    SpaceFamilySpec,
    SpaceMismatch,
    UnknownParameter,
    UnknownPoint,
    aura_closure,
    classify,
    compose,
    continuity_profile,
    discrete_topology,
    enumerate_aura_topology,
    enumerate_scope_functions,
    generate_topology,
    harness,
    identity_mapping,
    inverse_image,
    iter_all_soft_sets,
    iter_family_spaces,
    kuratowski_closure,
    make_soft_set,
    make_space,
    verify_closure_characterization,
    verify_decomposition,
)
from softaura.cli import main
from softaura.documents import decode_space, load_mapping
from softaura.mapping import _single_slice, _target_basis

from conftest import aura_spaces, brute_open_slices, fixture_path, load_fixture_doc, named_context

FAMILIES = (TARGET_AURA, TARGET_KURATOWSKI, TARGET_AMBIENT)
KINDS = (CECH, KURATOWSKI)


# -- product references: every member of the target family, every target set --


def per_space(fn):
    """fn(space, *args) memoised per space object and args.

    The key is the space's identity, since hashing a space walks every scope
    set.  Each entry keeps its space alive, so no other space can take its id.
    """
    cache = {}

    def memo(space, *args):
        key = (id(space), *args)
        if key not in cache:
            cache[key] = (space, fn(space, *args))
        return cache[key][1]

    return memo


@per_space
def reference_family(space: SoftAuraSpace, target_family: str) -> list[SoftSet]:
    """The whole target family: the aura product, the fixpoint-complement scan, the ambient members."""
    if target_family == TARGET_AURA:
        return enumerate_aura_topology(space)
    if target_family == TARGET_AMBIENT and space.topology.is_extensional:
        return [s for _, s in space.topology]
    sets = list(iter_all_soft_sets(space.context))
    if target_family == TARGET_KURATOWSKI:
        return [s for s in sets if kuratowski_closure(space, s.complement()).closure == s.complement()]
    return sets


def per_set(fn):
    """fn(space, g, kind) memoised per space, masks of g and kind."""
    memo = per_space(lambda space, masks, kind: fn(space, SoftSet(space.context, masks), kind))
    return lambda space, g, kind: memo(space, g.masks, kind)


def soft_closure(space: SoftAuraSpace, g: SoftSet, kind: str) -> SoftSet:
    """The public closure operator named by `kind`."""
    return aura_closure(space, g) if kind == CECH else kuratowski_closure(space, g).closure


# mappings of one family share sources and inverse images, so classifications
# and source closures repeat
cached_classify = per_set(classify)
cached_closure = per_set(soft_closure)


@per_space
def target_closures(space: SoftAuraSpace, kind: str) -> list[tuple[SoftSet, SoftSet]]:
    """(G, cl G) for every soft set G over the space, in canonical rank order."""
    return [(g, soft_closure(space, g, kind)) for g in iter_all_soft_sets(space.context)]


def reference_profile(m, kind=CECH, target_family=TARGET_AURA) -> ContinuityProfile:
    """Classify the inverse image of every member of the target family."""
    profs = [
        cached_classify(m.source, inverse_image(m, v), kind)
        for v in reference_family(m.target, target_family)
    ]
    return ContinuityProfile(
        all(p.a_open for p in profs),
        all(p.alpha_open for p in profs),
        all(p.semi_open for p in profs),
        all(p.pre_open for p in profs),
        all(p.beta_open for p in profs),
        kind,
    )


def reference_decomposition(m, kind=KURATOWSKI):
    """The first aura-open target set, in product order, whose inverse image splits alpha from semi and pre."""
    prof = reference_profile(m, kind)
    if prof.alpha_continuous == (prof.semi_continuous and prof.pre_continuous):
        return True, None
    for v in enumerate_aura_topology(m.target):
        p = cached_classify(m.source, inverse_image(m, v), kind)
        if p.alpha_open != (p.semi_open and p.pre_open):
            return False, v
    return False, None


def reference_closure_characterization(m, kind=CECH):
    """The containment over all 2^(|Y|·|K|) target sets, in canonical rank order."""
    witness = next(
        (
            g for g, cl_g in target_closures(m.target, kind)
            if not cached_closure(m.source, inverse_image(m, g), kind).is_subset_of(inverse_image(m, cl_g))
        ),
        None,
    )
    return reference_profile(m, kind).continuous == (witness is None), witness


# -- enumerating references: every slice the target family takes, per parameter --


def slice_family(space: SoftAuraSpace, target_family: str) -> list:
    """Per parameter, the ascending slices the family takes: open slices, fixpoint complements, ambient projections."""
    ctx = space.context
    full, n = ctx.full_mask, ctx.n_points
    if target_family == TARGET_AURA:
        return [brute_open_slices(space, ki) for ki in range(ctx.n_params)]
    if target_family == TARGET_KURATOWSKI:
        def fixed(ki, s):
            g = _single_slice(ctx, ki, full & ~s).union(_single_slice(ctx, ki, full).complement())
            return kuratowski_closure(space, g).closure == g

        return [[s for s in range(1 << n) if fixed(ki, s)] for ki in range(ctx.n_params)]
    if not space.topology.is_extensional:
        return [range(1 << n)] * ctx.n_params
    return [sorted({v.masks[ki] for _, v in space.topology}) for ki in range(ctx.n_params)]


def slice_profile(m, kind=CECH, target_family=TARGET_AURA) -> ContinuityProfile:
    """Classify the single-slice pull-back of every slice of the family at every source parameter."""
    slices = slice_family(m.target, target_family)
    profs = [
        cached_classify(m.source, _single_slice(m.source.context, ei, m._slice_preimage(s)), kind)
        for ei, ki in enumerate(m._param_image)
        for s in slices[ki]
    ]
    return ContinuityProfile(
        all(p.a_open for p in profs),
        all(p.alpha_open for p in profs),
        all(p.semi_open for p in profs),
        all(p.pre_open for p in profs),
        all(p.beta_open for p in profs),
        kind,
    )


def slice_decomposition(m, kind=KURATOWSKI):
    """The first deciding open slice at the last target parameter that has one."""
    prof = slice_profile(m, kind)
    if prof.alpha_continuous == (prof.semi_continuous and prof.pre_continuous):
        return True, None
    slices = slice_family(m.target, TARGET_AURA)
    for ki in reversed(range(m.target.context.n_params)):
        for s in slices[ki]:
            v = _single_slice(m.target.context, ki, s)
            p = cached_classify(m.source, inverse_image(m, v), kind)
            if p.alpha_open != (p.semi_open and p.pre_open):
                return False, v
    return False, None


def slice_closure_characterization(m, kind=CECH):
    """The containment over every single-slice target set, lowest parameter first."""
    ctx = m.target.context
    witness = next(
        (
            g
            for g in (_single_slice(ctx, ki, s) for ki in range(ctx.n_params) for s in range(1 << ctx.n_points))
            if not soft_closure(m.source, inverse_image(m, g), kind).is_subset_of(
                inverse_image(m, soft_closure(m.target, g, kind))
            )
        ),
        None,
    )
    return slice_profile(m, kind).continuous == (witness is None), witness


@st.composite
def generated_spaces(draw, max_points: int = 3, max_params: int = 2) -> SoftAuraSpace:
    """A space over a topology generated from a random subbasis, with a random admissible scope."""
    ctx = named_context(draw(st.integers(1, max_points)), draw(st.integers(1, max_params)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    topo = harness._sample_generated_topology(ctx, rng)
    return SoftAuraSpace(ctx, topo, harness._sample_scope(ctx, topo, rng))


@st.composite
def small_mappings(draw, max_points: int = 3, max_params: int = 2) -> SoftMapping:
    spaces = st.one_of(
        aura_spaces(max_points=max_points, max_params=max_params),
        generated_spaces(max_points=max_points, max_params=max_params),
    )
    src, tgt = draw(spaces), draw(spaces)
    ys, ks = tgt.context.universe, tgt.context.parameters
    return SoftMapping(
        src,
        tgt,
        {x: ys[draw(st.integers(0, len(ys) - 1))] for x in src.context.universe},
        {e: ks[draw(st.integers(0, len(ks) - 1))] for e in src.context.parameters},
    )


def family_mappings(per_shape: int, sources=None, targets=None):
    """Every mapping between two spaces of the scan's deterministic subfamily (or of the chosen indices)."""
    spaces = harness._family_space_selection(per_shape)
    pick = lambda idxs: spaces if idxs is None else [spaces[i] for i in idxs]
    for src, tgt in itertools.product(pick(sources), pick(targets)):
        for u in itertools.product(range(tgt.context.n_points), repeat=src.context.n_points):
            for p in itertools.product(range(tgt.context.n_params), repeat=src.context.n_params):
                yield SoftMapping(src, tgt, *harness._mapping_tables(src, tgt, u, p))



@pytest.fixture(scope="module")
def chain():
    return make_space(
        ["1", "2", "3"],
        ["e"],
        {"1": {"e": ["1", "2"]}, "2": {"e": ["2", "3"]}, "3": {"e": ["3"]}},
    )


@pytest.fixture(scope="module")
def mismatch_pair():
    # semi- and pre-continuous but not alpha-continuous under the one-step
    # closure; clean under the fixpoint closure
    src = make_space(
        ["x1", "x2", "x3"],
        ["e1"],
        {
            "x1": {"e1": ["x1"]},
            "x2": {"e1": ["x1", "x2", "x3"]},
            "x3": {"e1": ["x2", "x3"]},
        },
    )
    tgt = make_space(
        ["x1", "x2"],
        ["e1"],
        {"x1": {"e1": ["x1"]}, "x2": {"e1": ["x1", "x2"]}},
    )
    m = SoftMapping(src, tgt, {"x1": "x1", "x2": "x1", "x3": "x2"}, {"e1": "e1"})
    return src, tgt, m


class TestConstruction:
    def test_missing_point_entry(self, chain):
        with pytest.raises(ValueError):
            SoftMapping(chain, chain, {"1": "1", "2": "2"}, {"e": "e"})

    def test_unknown_target_point(self, chain):
        with pytest.raises(UnknownPoint):
            SoftMapping(chain, chain, {"1": "9", "2": "2", "3": "3"}, {"e": "e"})

    def test_extra_source_point(self, chain):
        with pytest.raises(UnknownPoint):
            SoftMapping(
                chain, chain, {"1": "1", "2": "2", "3": "3", "9": "1"}, {"e": "e"}
            )

    def test_missing_param_entry(self, chain):
        with pytest.raises(ValueError):
            SoftMapping(chain, chain, {"1": "1", "2": "2", "3": "3"}, {})

    def test_unknown_target_param(self, chain):
        with pytest.raises(UnknownParameter):
            SoftMapping(chain, chain, {"1": "1", "2": "2", "3": "3"}, {"e": "k"})

    def test_extra_source_param(self, chain):
        with pytest.raises(UnknownParameter):
            SoftMapping(
                chain, chain, {"1": "1", "2": "2", "3": "3"}, {"e": "e", "k": "e"}
            )


    @pytest.mark.parametrize(
        "point_map, param_map, error, message",
        [
            # the whole point map is checked before the parameter map, source
            # points in universe order before keys the source lacks
            ({"9": "1", "1": "8", "2": "2", "3": "3"}, {"e": "e"}, UnknownPoint, "unknown point '8'"),
            ({"1": "1", "2": "2", "9": "1"}, {"e": "e"}, ValueError, "point map missing '3'"),
            ({"1": "7", "2": "8", "3": "3"}, {"e": "e"}, UnknownPoint, "unknown point '7'"),
            ({"1": "1", "2": "2", "3": "3", "9": "1", "8": "1"}, {"e": "e"}, UnknownPoint, "unknown point '9'"),
            ({"1": "1", "2": "2"}, {"e": "k"}, ValueError, "point map missing '3'"),
            ({"1": "1", "2": "2", "3": "3", "9": "1"}, {}, UnknownPoint, "unknown point '9'"),
            ({"1": "1", "2": "2", "3": "3"}, {"k": "e", "e": "z"}, UnknownParameter, "unknown parameter 'z'"),
            ({"1": "1", "2": "2", "3": "3"}, {"k": "e"}, ValueError, "parameter map missing 'e'"),
        ],
    )
    def test_first_of_two_faults_is_raised(self, chain, point_map, param_map, error, message):
        with pytest.raises(error) as info:
            SoftMapping(chain, chain, point_map, param_map)
        assert type(info.value) is error
        assert str(info.value) == message


class TestInverseImage:
    def test_context_checked(self, chain):
        other = make_space(["y1"], ["e"], {"y1": {"e": ["y1"]}})
        m = identity_mapping(chain)
        with pytest.raises(ContextMismatch):
            inverse_image(m, SoftSet.absolute(other.context))

    def test_identity_is_identity(self, chain):
        m = identity_mapping(chain)
        g = make_soft_set(chain.context, {"e": ["1", "3"]})
        assert inverse_image(m, g) == g

    def test_constant_map(self, chain):
        m = SoftMapping(chain, chain, {"1": "3", "2": "3", "3": "3"}, {"e": "e"})
        g3 = make_soft_set(chain.context, {"e": ["3"]})
        assert inverse_image(m, g3) == SoftSet.absolute(chain.context)
        g12 = make_soft_set(chain.context, {"e": ["1", "2"]})
        assert inverse_image(m, g12) == SoftSet.null(chain.context)

    @given(aura_spaces(max_points=3, max_params=2), st.data())
    @settings(max_examples=60)
    def test_preserves_boolean_structure(self, space, data):
        m = identity_mapping(space)
        full = space.context.full_mask
        masks = lambda: tuple(
            data.draw(st.integers(0, full)) for _ in range(space.context.n_params)
        )
        g, h = SoftSet(space.context, masks()), SoftSet(space.context, masks())
        assert inverse_image(m, g.union(h)) == inverse_image(m, g).union(
            inverse_image(m, h)
        )
        assert inverse_image(m, g.complement()) == inverse_image(m, g).complement()


class TestContinuity:
    def test_constant_to_closed_point_is_continuous(self, chain):
        m = SoftMapping(chain, chain, {"1": "3", "2": "3", "3": "3"}, {"e": "e"})
        prof = continuity_profile(m)
        assert prof.continuous
        assert prof.closure_kind == CECH

    def test_identity_continuous_for_open_families(self, chain):
        for kind in (CECH, KURATOWSKI):
            for fam in (TARGET_AURA, TARGET_KURATOWSKI):
                prof = continuity_profile(
                    identity_mapping(chain), kind=kind, target_family=fam
                )
                assert prof.continuous

    def test_ambient_family_is_stronger(self, chain):
        # ambient targets include non-open sets, so even the identity fails
        # on the chain space, while a singleton-scope source passes
        prof = continuity_profile(identity_mapping(chain), target_family=TARGET_AMBIENT)
        assert not prof.continuous
        singleton = make_space(
            ["x1", "x2"],
            ["e1"],
            {"x1": {"e1": ["x1"]}, "x2": {"e1": ["x2"]}},
        )
        prof2 = continuity_profile(
            identity_mapping(singleton), target_family=TARGET_AMBIENT
        )
        assert prof2.continuous

    def test_profile_implications(self, mismatch_pair):
        _, _, m = mismatch_pair
        for kind in (CECH, KURATOWSKI):
            p = continuity_profile(m, kind=kind)
            if p.continuous:
                assert p.alpha_continuous
            if p.alpha_continuous:
                assert p.semi_continuous and p.pre_continuous
            if p.pre_continuous:
                assert p.beta_continuous

    def test_mismatch_pair_profile(self, mismatch_pair):
        _, _, m = mismatch_pair
        p = continuity_profile(m, kind=CECH)
        assert p.semi_continuous and p.pre_continuous
        assert not p.alpha_continuous

    @pytest.mark.parametrize("family", [TARGET_AURA, TARGET_KURATOWSKI, TARGET_AMBIENT])
    def test_unknown_kind_rejected_before_enumeration(self, chain, family):
        # cap=1 is below every target family of the chain: the kind is checked first
        m = identity_mapping(chain)
        with pytest.raises(ValueError, match="unknown closure kind"):
            continuity_profile(m, kind="cehc", cap=1, target_family=family)

    def test_decomposition_rejects_unknown_kind_before_enumeration(self, chain):
        with pytest.raises(ValueError, match="unknown closure kind"):
            verify_decomposition(identity_mapping(chain), kind="cehc", cap=1)


class TestCompose:
    def test_types_must_chain(self, chain, mismatch_pair):
        src, _, m = mismatch_pair
        with pytest.raises(SpaceMismatch):
            compose(m, identity_mapping(src))

    def test_composition_tables(self, chain):
        shift = SoftMapping(chain, chain, {"1": "2", "2": "2", "3": "3"}, {"e": "e"})
        const3 = SoftMapping(chain, chain, {"1": "3", "2": "3", "3": "3"}, {"e": "e"})
        comp = compose(shift, const3)
        assert comp.point_map == {"1": "3", "2": "3", "3": "3"}
        assert comp.param_map == {"e": "e"}
        assert comp.source is chain and comp.target is chain


class TestClosureCharacterization:
    def test_exhaustive_on_chain(self, chain):
        m = SoftMapping(chain, chain, {"1": "3", "2": "3", "3": "3"}, {"e": "e"})
        held, witness = verify_closure_characterization(m)
        assert held

    @given(aura_spaces(max_points=3, max_params=1))
    @settings(max_examples=40, deadline=None)
    def test_fixpoint_biconditional_for_endomaps(self, space):
        # with the idempotent fixpoint closure the characterization is a
        # biconditional; reversal endomap over the canonical x1..xn names
        names = list(space.context.universe)
        pm = {x: names[len(names) - 1 - i] for i, x in enumerate(names)}
        m = SoftMapping(space, space, pm, {e: e for e in space.context.parameters})
        held, _ = verify_closure_characterization(m, kind=KURATOWSKI)
        assert held

    @given(aura_spaces(max_points=3, max_params=1))
    @settings(max_examples=40, deadline=None)
    def test_cech_failures_are_one_sided(self, space):
        # one-step closure: the containment still implies continuity, so a
        # broken biconditional always has a continuous mapping behind it
        names = list(space.context.universe)
        pm = {x: names[len(names) - 1 - i] for i, x in enumerate(names)}
        m = SoftMapping(space, space, pm, {e: e for e in space.context.parameters})
        held, witness = verify_closure_characterization(m)
        if not held:
            assert witness is not None
            assert continuity_profile(m).continuous

    def test_kuratowski_kind(self, chain):
        held, _ = verify_closure_characterization(
            identity_mapping(chain), kind=KURATOWSKI
        )
        assert held

    def test_discontinuous_mapping_violates_inclusion(self, mismatch_pair):
        # the containment implies continuity, so a discontinuous mapping
        # must expose a violating target set and the biconditional holds
        _, _, m = mismatch_pair
        assert not continuity_profile(m).continuous
        held, witness = verify_closure_characterization(m)
        assert held
        assert witness is not None

    def test_unknown_kind_rejected_before_enumeration(self, chain, monkeypatch):
        def enumerated(*args):
            raise AssertionError("a target set was enumerated before the kind was checked")

        monkeypatch.setattr("softaura.mapping.inverse_image", enumerated)
        with pytest.raises(ValueError, match="unknown closure kind"):
            verify_closure_characterization(identity_mapping(chain), kind="kuratowsky")

    def test_takes_no_cap(self, chain):
        # nothing it does enumerates a family, so there is nothing to cap
        with pytest.raises(TypeError, match="cap"):
            verify_closure_characterization(identity_mapping(chain), cap=1)

    @pytest.mark.parametrize("option", ["samples", "seed"])
    def test_takes_no_sampling_options(self, chain, option):
        # the single-point slices decide every target set; a sample could only miss a violation
        with pytest.raises(TypeError, match=option):
            verify_closure_characterization(identity_mapping(chain), **{option: 1})


class TestDecomposition:
    def test_kuratowski_identity_holds(self, chain):
        held, witness = verify_decomposition(identity_mapping(chain))
        assert held and witness is None

    def test_cech_mismatch_found(self, mismatch_pair):
        _, _, m = mismatch_pair
        held, witness = verify_decomposition(m, kind=CECH)
        assert not held
        assert witness is not None
        # the witness inverse image separates alpha from semi+pre
        from softaura import classify

        p = classify(m.source, inverse_image(m, witness), CECH)
        assert p.alpha_open != (p.semi_open and p.pre_open)

    def test_same_mapping_clean_under_fixpoint(self, mismatch_pair):
        _, _, m = mismatch_pair
        held, witness = verify_decomposition(m, kind=KURATOWSKI)
        assert held and witness is None

    @given(aura_spaces(max_points=3, max_params=1))
    @settings(max_examples=40, deadline=None)
    def test_fixpoint_decomposition_always_holds(self, space):
        names = list(space.context.universe)
        pm = {x: names[0] for x in names}
        m = SoftMapping(space, space, pm, {e: e for e in space.context.parameters})
        held, _ = verify_decomposition(m, kind=KURATOWSKI)
        assert held


class TestSlicePath:
    """The deciders against the product references above."""

    @given(small_mappings())
    @settings(max_examples=150, deadline=None)
    def test_equals_product_references(self, m):
        for kind in KINDS:
            for family in FAMILIES:
                assert continuity_profile(m, kind, target_family=family) == reference_profile(m, kind, family)
            assert verify_decomposition(m, kind) == reference_decomposition(m, kind)
            assert verify_closure_characterization(m, kind=kind) == reference_closure_characterization(m, kind)

    def test_witnesses_on_scan_family(self):
        violations = 0
        for m in family_mappings(3):
            for kind in KINDS:
                assert verify_decomposition(m, kind) == reference_decomposition(m, kind)
                got = verify_closure_characterization(m, kind=kind)
                assert got == reference_closure_characterization(m, kind)
                violations += got[1] is not None
        assert violations > 0

    def test_mismatch_witnesses_at_each_parameter(self):
        # the per_shape=3 family has no one-step mismatch; in the default scan
        # family, 3x1 and 3x2 sources (indices 18, 31) into 2x1 and 2x2 targets
        # (3, 8, 13) split alpha from semi and pre, with witnesses at both parameters
        placed = []
        for m in family_mappings(10, sources=(18, 31), targets=(3, 8, 13)):
            got = verify_decomposition(m, CECH)
            assert got == reference_decomposition(m, CECH)
            if not got[0]:
                placed.append(max(i for i, s in enumerate(got[1].masks) if s))
        assert len(placed) == 14
        assert set(placed) == {0, 1}

    def test_witness_is_first_slice_at_last_parameter(self, mismatch_pair):
        # the mismatch pair at both parameters: both target parameters have
        # the deciding slice {x1}, and the witness takes the last one
        src, tgt, _ = mismatch_pair
        double = lambda sp: make_space(
            list(sp.context.universe),
            ["e1", "e2"],
            {x: {e: list(sp.scope.of(x).points("e1")) for e in ("e1", "e2")} for x in sp.context.universe},
        )
        m = SoftMapping(
            double(src), double(tgt), {"x1": "x1", "x2": "x1", "x3": "x2"}, {"e1": "e1", "e2": "e2"}
        )
        witness = _single_slice(m.target.context, 1, 0b01)
        assert verify_decomposition(m, CECH) == reference_decomposition(m, CECH) == (False, witness)

        # two deciding slices ({x1} and {x1, x2}) at e1: the witness takes the first
        src = make_space(
            ["x1", "x2", "x3"],
            ["e1", "e2"],
            {
                "x1": {"e1": ["x1", "x3"], "e2": ["x1", "x2", "x3"]},
                "x2": {"e1": ["x2", "x3"], "e2": ["x2", "x3"]},
                "x3": {"e1": ["x1", "x2", "x3"], "e2": ["x2", "x3"]},
            },
        )
        tgt = make_space(
            ["x1", "x2", "x3"],
            ["e1", "e2"],
            {
                "x1": {"e1": ["x1"], "e2": ["x1", "x2", "x3"]},
                "x2": {"e1": ["x1", "x2"], "e2": ["x1", "x2", "x3"]},
                "x3": {"e1": ["x2", "x3"], "e2": ["x2", "x3"]},
            },
        )
        m = SoftMapping(src, tgt, {"x1": "x3", "x2": "x1", "x3": "x1"}, {"e1": "e1", "e2": "e1"})
        first, second = (_single_slice(tgt.context, 0, s) for s in (0b001, 0b011))
        for v in (first, second):
            p = classify(src, inverse_image(m, v), CECH)
            assert p.semi_open and p.pre_open and not p.alpha_open
        assert verify_decomposition(m, CECH) == reference_decomposition(m, CECH) == (False, first)

    def test_six_by_four_singleton_identity_decides(self, tmp_path, capsys):
        names, params = [f"x{i + 1}" for i in range(6)], [f"e{j + 1}" for j in range(4)]
        doc = {
            "universe": names,
            "parameters": params,
            "topology": {"kind": "discrete"},
            "scope": {x: {e: [x] for e in params} for x in names},
        }
        space = decode_space(doc).space
        m = identity_mapping(space)
        # the product family has 2^24 members; each parameter has 2^6 slices
        with pytest.raises(CapExceeded):
            enumerate_aura_topology(space)
        for kind in KINDS:
            for family in FAMILIES:
                assert continuity_profile(m, kind, target_family=family).continuous
        assert verify_decomposition(m) == (True, None)
        assert verify_closure_characterization(m) == (True, None)

        (tmp_path / "space.json").write_text(json.dumps(doc), encoding="utf-8")
        mapping_doc = {
            "source": {"ref": "space.json"},
            "target": {"ref": "space.json"},
            "pointMap": {x: x for x in names},
            "paramMap": {e: e for e in params},
        }
        (tmp_path / "map.json").write_text(json.dumps(mapping_doc), encoding="utf-8")
        for family in FAMILIES:
            rc = main(["continuity", str(tmp_path / "map.json"), "--target-family", family])
            assert rc == 0
            assert "continuous:  yes" in capsys.readouterr().out

    def test_cap_bounds_each_parameter(self, capsys):
        # only an explicit ambient topology is still enumerated: nested_space.json has 8 members
        argv = ["continuity", fixture_path("nested_endo_mapping.json"), "--target-family", "ambient"]
        rc = main([*argv, "--cap", "7"])
        assert rc == 4
        assert "needs 8 members, cap is 7" in capsys.readouterr().err
        assert main([*argv, "--cap", "8"]) == 0

    def test_open_families_take_no_cap_work(self, capsys):
        # the chain fixture's 8 target slices are no longer enumerated
        assert main(["continuity", fixture_path("chain_endo_mapping.json"), "--cap", "1"]) == 0
        assert "continuous:  yes" in capsys.readouterr().out


class TestBasisPath:
    """The basis deciders against the enumerating slice references above."""

    @given(small_mappings(max_points=5, max_params=3))
    @settings(max_examples=150, deadline=None)
    def test_equals_slice_references(self, m):
        for kind in KINDS:
            for family in FAMILIES:
                assert continuity_profile(m, kind, target_family=family) == slice_profile(m, kind, family)
            assert verify_decomposition(m, kind) == slice_decomposition(m, kind)
            assert verify_closure_characterization(m, kind=kind) == slice_closure_characterization(m, kind)

    def test_slice_references_equal_product_references_on_scan_family(self):
        for m in family_mappings(3, sources=(2, 9, 12), targets=(5, 8, 11, 13)):
            for kind in KINDS:
                for family in FAMILIES:
                    assert slice_profile(m, kind, family) == reference_profile(m, kind, family)

    def test_classes_union_closed_on_exhaustive_family(self):
        # the basis reduction assumes every openness class holds the null set
        # and is closed under unions, under both closure kinds
        memo: dict = {}
        spaces = 0
        for _, space in iter_family_spaces(SpaceFamilySpec(3, 2)):
            tables = harness._Tables(space, memo)
            assert [s.masks for s in tables.sets] == [s.masks for s in iter_all_soft_sets(space.context)]
            for kind in KINDS:
                rows = tables.rows[kind]
                for j in range(6):
                    members = [g for g, flags in enumerate(rows) if flags[j]]
                    assert rows[0][j]
                    assert all(rows[a | b][j] for i, a in enumerate(members) for b in members[i + 1:])
            spaces += 1
        assert spaces == 4182

    def test_explicit_ambient_basis_is_least_member_projection(self):
        space = decode_space(load_fixture_doc("nested_space.json")).space
        # e1 projections: {}, {x1}, {x1,x2}, X; e2 projections: {}, X
        assert _target_basis(space, 8, TARGET_AMBIENT) == [[0, 0b001, 0b011, 0b111], [0, 0b111, 0b111, 0b111]]
        with pytest.raises(CapExceeded):
            _target_basis(space, 7, TARGET_AMBIENT)


class TestCapFamilies:
    """Each capped enumeration names its family."""

    def test_family_names(self, chain, mismatch_pair):
        nested = load_mapping(fixture_path("nested_endo_mapping.json"))[0]
        ctx = chain.context
        subbasis = {"A": make_soft_set(ctx, {"e": ["1"]}), "B": make_soft_set(ctx, {"e": ["2"]})}
        cases = {
            "aura topology": lambda cap: enumerate_aura_topology(chain, cap=cap),
            "ambient members": lambda cap: continuity_profile(nested, target_family=TARGET_AMBIENT, cap=cap),
            "witness search": lambda cap: verify_decomposition(mismatch_pair[2], CECH, cap=cap),
            "scope functions": lambda cap: next(enumerate_scope_functions(ctx, discrete_topology(ctx), cap=cap)),
            "topology generation": lambda cap: generate_topology(ctx, subbasis, cap=cap),
        }
        for family, call in cases.items():
            with pytest.raises(CapExceeded) as info:
                call(3)
            assert info.value.family == family
            assert str(info.value) == f"{family}: enumeration needs {info.value.required} members, cap is 3"
