"""Soft mappings, inverse images, continuity flags, and the two verifiers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softaura import (
    CECH,
    KURATOWSKI,
    TARGET_AMBIENT,
    TARGET_AURA,
    TARGET_KURATOWSKI,
    ContextMismatch,
    SoftMapping,
    SoftSet,
    SpaceMismatch,
    UnknownParameter,
    UnknownPoint,
    compose,
    continuity_profile,
    identity_mapping,
    inverse_image,
    make_soft_set,
    make_space,
    verify_closure_characterization,
    verify_decomposition,
)

from conftest import aura_spaces


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

    def test_sampled_mode_agrees(self, chain):
        m = identity_mapping(chain)
        held, witness = verify_closure_characterization(m, samples=200, seed=7)
        assert held and witness is None

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
        m = identity_mapping(chain)
        for options in ({}, {"samples": 5}, {"cap": 1}):
            # cap=1 is below the target's 2**3 soft sets: the kind is checked first
            with pytest.raises(ValueError, match="unknown closure kind"):
                verify_closure_characterization(m, kind="kuratowsky", **options)


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
