"""Exhaustive and sampled verification over small space families.

The engine enumerates every scope function over the discrete topology for
each universe/parameter shape up to the requested bounds, builds per-space
lookup tables by calling the public operators once per soft set, and then
evaluates every law as comparisons of those library-produced values.  Each
law is defined once, as a predicate over the tables; replay_witness
evaluates the same predicate on tables built for the witness space.  Set
ranks, pair ranks, scope ranks and shape ranks are all canonical, so every
reported witness is the first one in canonical order and every report is
byte-reproducible.

Literal per-element oracles for the closure and interior live here too; they
work on name sets, never on bitmasks, so they share no code with the
optimized operators they check.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from operator import and_
from typing import Callable, Iterator, Mapping, Sequence

from .errors import CapExceeded, SizeGuard
from .genopen import classify
from .operators import (
    CECH,
    KURATOWSKI,
    aura_closure,
    aura_interior,
    enumerate_aura_topology,
    kuratowski_closure,
)
from .rough import accuracy, lower_approx, upper_approx
from .separation import separation_report, t1_singleton_closure, t1_via_singleton_scopes
from .softset import Context, SoftSet, _trusted, make_soft_set
from .space import (
    DEFAULT_CAP,
    DISCRETE,
    GENERATED,
    ScopeFunction,
    SoftAuraSpace,
    SoftTopology,
    discrete_topology,
    generate_topology,
)

#: Product bound for exhaustive family enumeration.
EXHAUSTIVE_GUARD = 12

#: Witnesses kept per law row before further failures are only counted.
WITNESS_LIMIT = 3


@dataclass(frozen=True)
class SpaceFamilySpec:
    """Bounds and enumeration mode for a family of spaces.

    scope_mode "all" enumerates every scope function over every shape up to
    (max_universe, max_params); it requires max_universe * max_params <= 12.
    scope_mode "sampled" draws `sample_count` >= 1 spaces from `seed` instead.
    topology_kind "generated" (random saturated subbases) is only available
    in sampled mode.
    """

    max_universe: int
    max_params: int
    topology_kind: str = DISCRETE
    scope_mode: str = "all"
    seed: int | None = None
    sample_count: int | None = None

    def __post_init__(self):
        if self.max_universe < 1 or self.max_params < 1:
            raise ValueError("bounds must be at least 1")
        if self.topology_kind not in (DISCRETE, GENERATED):
            raise ValueError(f"unsupported family topology kind {self.topology_kind!r}")
        if self.scope_mode == "all":
            if self.max_universe * self.max_params > EXHAUSTIVE_GUARD:
                raise SizeGuard(
                    f"exhaustive family needs max_universe*max_params <= {EXHAUSTIVE_GUARD}"
                )
            if self.topology_kind != DISCRETE:
                raise SizeGuard("exhaustive enumeration is only supported over the discrete topology")
        elif self.scope_mode == "sampled":
            if self.seed is None or self.sample_count is None:
                raise ValueError("sampled mode requires seed and sample_count")
            if self.sample_count < 1:
                raise ValueError("sample_count must be at least 1")
            if not 0 <= self.seed < 1 << 64:
                raise ValueError("seed must fit in 64 bits")
        else:
            raise ValueError(f"unknown scope mode {self.scope_mode!r}")


def _family_context(n: int, m: int) -> Context:
    return Context(
        tuple(f"x{i}" for i in range(1, n + 1)),
        tuple(f"e{j}" for j in range(1, m + 1)),
    )


def _admissible_members(topology: SoftTopology, xi: int) -> list[SoftSet]:
    """Members of an extensional topology containing point xi in every slice, in canonical order."""
    bit = 1 << xi
    members = [s for _, s in topology if all(mk & bit for mk in s.masks)]
    return sorted(members, key=lambda s: tuple(reversed(s.masks)))


def enumerate_scope_functions(
    context: Context,
    topology: SoftTopology,
    cap: int = DEFAULT_CAP,
) -> Iterator[ScopeFunction]:
    """Stream every admissible scope function in canonical order.

    Per point, admissible soft sets (topology members containing the point
    in every slice) ascend by combined bitmask; assignments then follow
    product order with the last point varying fastest.  The total count is
    capped before anything is yielded.
    """
    n, m = context.n_points, context.n_params
    per_point: list[list[SoftSet]] = []
    if topology.kind == DISCRETE:
        full = context.full_mask
        for xi in range(n):
            bit = 1 << xi
            slices = [s for s in range(full + 1) if s & bit]
            choices = [
                SoftSet(context, masks)
                for masks in itertools.product(slices, repeat=m)
            ]
            per_point.append(choices)
    else:
        per_point = [_admissible_members(topology, xi) for xi in range(n)]

    total = 1
    for choices in per_point:
        total *= len(choices)
    if total > cap:
        raise CapExceeded(total, cap)
    for combo in itertools.product(*per_point):
        yield ScopeFunction(context, combo)


def _sample_scope(context: Context, topology: SoftTopology, rng: random.Random) -> ScopeFunction:
    n, m = context.n_points, context.n_params
    assignment = []
    if topology.kind == DISCRETE:
        for xi in range(n):
            bit = 1 << xi
            rest = context.full_mask & ~bit
            masks = []
            for _ in range(m):
                sub = rng.randrange(1 << (n - 1)) if n > 1 else 0
                # deposit sub's bits into the positions of `rest`
                mask, taken, r = bit, sub, rest
                while r:
                    low = r & -r
                    if taken & 1:
                        mask |= low
                    taken >>= 1
                    r ^= low
                masks.append(mask)
            assignment.append(SoftSet(context, tuple(masks)))
    else:
        for xi in range(n):
            assignment.append(rng.choice(_admissible_members(topology, xi)))
    return ScopeFunction(context, tuple(assignment))


def _sample_topology(context: Context, kind: str, rng: random.Random) -> SoftTopology:
    if kind == DISCRETE:
        return discrete_topology(context)
    full = context.full_mask
    subbasis = []
    for i in range(rng.randrange(4)):
        masks = tuple(rng.randrange(full + 1) for _ in range(context.n_params))
        subbasis.append((f"S{i + 1}", SoftSet(context, masks)))
    return generate_topology(context, subbasis)


def iter_family_spaces(spec: SpaceFamilySpec) -> Iterator[tuple[tuple[int, int, int], SoftAuraSpace]]:
    """Yield ((|X|, |E|, scope rank), space) in canonical family order.

    In "all" mode every shape's scope count is checked against the cap
    before the first space, so an over-cap family fails at once.
    """
    if spec.scope_mode == "all":
        for n in range(1, spec.max_universe + 1):
            for m in range(1, spec.max_params + 1):
                # discrete scopes: 2^(n-1) slices per point and parameter
                total = 1 << ((n - 1) * m * n)
                if total > DEFAULT_CAP:
                    raise CapExceeded(total, DEFAULT_CAP)
        for n in range(1, spec.max_universe + 1):
            for m in range(1, spec.max_params + 1):
                ctx = _family_context(n, m)
                topo = discrete_topology(ctx)
                for idx, scope in enumerate(enumerate_scope_functions(ctx, topo)):
                    yield (n, m, idx), SoftAuraSpace(ctx, topo, scope)
    else:
        rng = random.Random(spec.seed)
        contexts: dict[tuple[int, int], Context] = {}
        for idx in range(spec.sample_count):
            n = rng.randint(1, spec.max_universe)
            m = rng.randint(1, spec.max_params)
            ctx = contexts.setdefault((n, m), _family_context(n, m))
            topo = _sample_topology(ctx, spec.topology_kind, rng)
            scope = _sample_scope(ctx, topo, rng)
            yield (n, m, idx), SoftAuraSpace(ctx, topo, scope)


# -- literal oracles --------------------------------------------------------


def oracle_scopes(space: SoftAuraSpace) -> dict[str, list[tuple[str, set[str]]]]:
    """Per parameter, every point with its scope slice as a name set, in universe order."""
    return {
        e: [(x, set(space.scope.of(x).points(e))) for x in space.context.universe]
        for e in space.context.parameters
    }


def _oracle_scan(space: SoftAuraSpace, g: SoftSet, scopes, hit: Callable) -> SoftSet:
    slices: dict[str, list[str]] = {}
    for e, table in (scopes or oracle_scopes(space)).items():
        ge = set(g.points(e))
        slices[e] = [x for x, scope_x in table if hit(scope_x, ge)]
    return make_soft_set(space.context, slices)


def oracle_closure(space: SoftAuraSpace, g: SoftSet, scopes=None) -> SoftSet:
    """Per-element definition scan using name sets; no bitmask shortcuts.

    Callers scanning many sets of one space pass `scopes=oracle_scopes(space)`.
    """
    return _oracle_scan(space, g, scopes, lambda scope_x, ge: not scope_x.isdisjoint(ge))


def oracle_interior(space: SoftAuraSpace, g: SoftSet, scopes=None) -> SoftSet:
    """Per-element definition scan using name sets; no bitmask shortcuts; `scopes` as for oracle_closure."""
    return _oracle_scan(space, g, scopes, set.issubset)


# -- witnesses ---------------------------------------------------------------


def _space_desc(space: SoftAuraSpace) -> dict:
    topo: dict = {"kind": space.topology.kind}
    if space.topology.kind == GENERATED:
        topo["subbasis"] = {
            name: {e: list(s.points(e)) for e in space.context.parameters}
            for name, s in (space.topology.subbasis or ())
        }
    return {
        "universe": list(space.context.universe),
        "parameters": list(space.context.parameters),
        "topology": topo,
        "scope": {
            x: {e: list(s.points(e)) for e in space.context.parameters}
            for x, s in space.scope.items()
        },
    }


def replay_space(desc: Mapping) -> SoftAuraSpace:
    """Rebuild a witness space from its description."""
    ctx = Context(tuple(desc["universe"]), tuple(desc["parameters"]))
    kind = desc["topology"]["kind"]
    if kind == DISCRETE:
        topo = discrete_topology(ctx)
    elif kind == GENERATED:
        topo = generate_topology(
            ctx,
            {
                name: SoftSet.from_slices(ctx, slices)
                for name, slices in desc["topology"]["subbasis"].items()
            },
        )
    else:
        raise ValueError(f"cannot replay topology kind {kind!r}")
    assignment = {
        x: SoftSet.from_slices(ctx, slices) for x, slices in desc["scope"].items()
    }
    return SoftAuraSpace.from_assignment(ctx, topo, assignment)


@dataclass(frozen=True)
class Witness:
    """A replayable finding: a space, the soft sets involved, and what they show.

    kind is "law" (a falsification), "strictness" (an implication edge that
    is strict), or "report" (an expected finding, e.g. a one-step-closure
    alpha intersection failure).  rank is the canonical position
    (|X|, |E|, scope rank, set ranks...) of the instance in family order.
    """

    kind: str
    name: str
    space: dict
    rank: tuple[int, ...]
    sets: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "rank": list(self.rank),
            "space": self.space,
            "sets": [
                {e: list(pts) for e, pts in slices.items()} for slices in self.sets
            ],
        }


def _witness(kind: str, name: str, space: SoftAuraSpace, rank, sets: Sequence[SoftSet]) -> Witness:
    return Witness(
        kind,
        name,
        _space_desc(space),
        tuple(rank),
        tuple(s.as_dict() for s in sets),
    )


def witness_from_json(d: Mapping) -> Witness:
    """Rebuild a Witness from its to_json_dict form (e.g. out of a suite report)."""
    return Witness(
        d["kind"],
        d["name"],
        d["space"],
        tuple(d["rank"]),
        tuple({e: tuple(pts) for e, pts in slices.items()} for slices in d["sets"]),
    )


# -- per-space operator tables -----------------------------------------------


def _pack(masks: Sequence[int], n: int) -> int:
    out = 0
    for i, m in enumerate(masks):
        out |= m << (i * n)
    return out


def _unpack(ctx: Context, g: int) -> SoftSet:
    n = ctx.n_points
    return _trusted(ctx, tuple((g >> (i * n)) & ctx.full_mask for i in range(ctx.n_params)))


class _Lazy(dict):
    """A table whose entry for a key is computed by `fill` on first lookup."""

    def __init__(self, fill: Callable):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _openness_row(cl, int_, g: int) -> tuple[bool, ...]:
    """(open, alpha, semi, pre, b, beta) of packed g, read off closure/interior tables."""
    ig = int_[g]
    cl_ig = cl[ig]
    i_cl_g = int_[cl[g]]
    return (
        ig == g,
        g & ~int_[cl_ig] == 0,
        g & ~cl_ig == 0,
        g & ~i_cl_g == 0,
        g & ~(cl_ig | i_cl_g) == 0,
        g & ~cl[i_cl_g] == 0,
    )


class _Tables:
    """Packed operator tables of one space, keyed by packed soft set.

    A soft set packs into one integer with slice i shifted by i*|X|.  `sets`
    unpacks; `cl`, `int_` and `fix` hold the packed one-step closure,
    interior and fixpoint closure; `fix_result` the fixpoint closure with its
    iteration counts; `rows[kind]` the six openness flags of each set under
    a closure kind and `cols[kind]` the same flags as six per-flag tables.
    Every entry comes from one public-operator call.  Given a shape's full
    set list the tables are lists filled up front; without one they are
    dicts filled on first lookup.  Tables belong to one space and are
    dropped with it.
    """

    def __init__(self, space: SoftAuraSpace, sets: Sequence[SoftSet] | None = None):
        ctx = space.context
        n = ctx.n_points
        eager = sets is not None
        if sets is None:
            sets = _Lazy(lambda g: _unpack(ctx, g))

        def table(fill):
            return [fill(g) for g in range(len(sets))] if eager else _Lazy(fill)

        self.space = space
        self.full = _pack((ctx.full_mask,) * ctx.n_params, n)
        self.sets = sets
        self.cl = table(lambda g: _pack(aura_closure(space, sets[g]).masks, n))
        self.int_ = table(lambda g: _pack(aura_interior(space, sets[g]).masks, n))
        self.fix_result = table(lambda g: kuratowski_closure(space, sets[g]))
        self.fix = table(lambda g: _pack(self.fix_result[g].closure.masks, n))
        self.rows = {
            kind: table(lambda g, cl=cl: _openness_row(cl, self.int_, g))
            for kind, cl in ((CECH, self.cl), (KURATOWSKI, self.fix))
        }
        self.cols = {
            kind: tuple(zip(*rows))
            if eager
            else tuple(_Lazy(lambda g, rows=rows, j=j: rows[g][j]) for j in range(6))
            for kind, rows in self.rows.items()
        }

    @cached_property
    def separation(self):
        return separation_report(self.space)

    @cached_property
    def oracle_scopes(self):
        return oracle_scopes(self.space)


# -- law registry ------------------------------------------------------------
#
# Every law is one predicate over the tables of a space: space laws take the
# tables alone, set laws one packed set, pair laws a packed pair.  The suite
# and replay_witness evaluate the same predicate.


def _closure_grounding(t):
    return t.cl[0] == 0


def _interior_absolute(t):
    return t.int_[t.full] == t.full


def _rough_fixed_points(t):
    space, null, absolute = t.space, t.sets[0], t.sets[t.full]
    return (
        lower_approx(space, null).is_null()
        and upper_approx(space, null).is_null()
        and lower_approx(space, absolute).is_absolute()
        and upper_approx(space, absolute).is_absolute()
    )


def _t1_iff_t2(t):
    return t.separation.t1 == t.separation.t2


def _t1_iff_singleton_scopes(t):
    return t.separation.t1 == t1_via_singleton_scopes(t.space)


def _t1_implies_t0(t):
    return t.separation.t0 or not t.separation.t1


def _t1_singleton_closure(t):
    return t1_singleton_closure(t.space).holds


def _closure_enlargement(t, g):
    return g & ~t.cl[g] == 0


def _interior_contraction(t, g):
    return t.int_[g] & ~g == 0


def _duality(t, g):
    comp = t.full & ~g
    return t.cl[comp] == t.full & ~t.int_[g] and t.int_[comp] == t.full & ~t.cl[g]


def _kuratowski_fixpoint(t, g):
    k = t.fix[g]
    n = t.space.context.n_points
    return (
        t.cl[g] & ~k == 0
        and g & ~k == 0
        and t.fix[k] == k
        and t.cl[k] == k
        and all(1 <= it <= n for it in t.fix_result[g].iterations.values())
    )


def _tau_infinity_in_tau(t, g):
    comp = t.full & ~g
    return t.fix[comp] != comp or t.int_[g] == g


def _hierarchy(kind: str):
    def law(t, g):
        opn, alpha, semi, pre, b, beta = t.rows[kind][g]
        return (
            (not opn or alpha)
            and (not alpha or (semi and pre))
            and (not (semi or pre) or b)
            and (not b or beta)
        )

    return law


def _classify_consistency(t, g):
    for kind in (CECH, KURATOWSKI):
        p = classify(t.space, t.sets[g], kind)
        flags = (p.a_open, p.alpha_open, p.semi_open, p.pre_open, p.b_open, p.beta_open)
        if flags != t.rows[kind][g]:
            return False
    return True


def _alpha_decomposes(kind: str):
    def law(t, g):
        _, alpha, semi, pre, _, _ = t.rows[kind][g]
        return alpha == (semi and pre)

    return law


def _rough_delegation(t, g):
    n = t.space.context.n_points
    s = t.sets[g]
    return (
        _pack(lower_approx(t.space, s).masks, n) == t.int_[g]
        and _pack(upper_approx(t.space, s).masks, n) == t.cl[g]
    )


def _rough_sandwich(t, g):
    return t.int_[g] & ~g == 0 and g & ~t.cl[g] == 0


def _rough_accuracy(t, g):
    acc = accuracy(t.space, t.sets[g])
    return (
        0 <= acc.value <= 1
        and (acc.value == 1) == (t.cl[g] == t.int_[g])
        and acc.convention_applied == (t.cl[g] == 0)
    )


def _oracle_equivalence(t, g):
    n = t.space.context.n_points
    s, scopes = t.sets[g], t.oracle_scopes
    return (
        _pack(oracle_closure(t.space, s, scopes).masks, n) == t.cl[g]
        and _pack(oracle_interior(t.space, s, scopes).masks, n) == t.int_[g]
    )


def _pair_row(t, g: int, hs, hit: Callable) -> None:
    """Every pair law and alpha-meet report on the pairs (g, h), h in hs.

    `hit(name, a, b)` receives each failing law and each report finding,
    with (a, b) in witness order.  The suite calls this once per g with
    hs = range(g, size), so the body below is the innermost loop of a run.
    """
    cl, int_, fix = t.cl, t.int_, t.fix
    opn, alp, sem, pre, _, bet = t.cols[CECH]
    alp_k = t.cols[KURATOWSKI][1]
    clg, ing, fixg = cl[g], int_[g], fix[g]
    og, ag, sg, pg, eg, akg = opn[g], alp[g], sem[g], pre[g], bet[g], alp_k[g]
    for h in hs:
        u = g | h
        w = g & h
        if cl[u] != clg | cl[h]:
            hit("closure-additivity", g, h)
        if int_[w] != ing & int_[h]:
            hit("interior-meet", g, h)
        if fix[u] != fixg | fix[h]:
            hit("kuratowski-additivity", g, h)
        if g & ~h == 0:
            if clg & ~cl[h]:
                hit("closure-monotonicity", g, h)
            if ing & ~int_[h]:
                hit("interior-monotonicity", g, h)
        elif h & ~g == 0:
            if cl[h] & ~clg:
                hit("closure-monotonicity", h, g)
            if int_[h] & ~ing:
                hit("interior-monotonicity", h, g)
        if sg and sem[h] and not sem[u]:
            hit("union-closure-semi", g, h)
        if pg and pre[h] and not pre[u]:
            hit("union-closure-pre", g, h)
        if eg and bet[h] and not bet[u]:
            hit("union-closure-beta", g, h)
        if og and opn[h] and not (opn[u] and opn[w]):
            hit("aura-open-family", g, h)
        if akg and alp_k[h] and not alp_k[w]:
            hit("alpha-meet-kuratowski", g, h)
        if ag and alp[h] and not alp[w]:
            hit("alpha-meet-cech", g, h)


def _pair_law(*names: str):
    """The pair predicate: `_pair_row` on the one pair (g, h) flags none of `names`."""

    def law(t, g, h):
        found: set[str] = set()
        _pair_row(t, g, (h,), lambda name, a, b: found.add(name))
        return found.isdisjoint(names)

    return law


#: Rows whose pair evaluations coincide extensionally with a base row given
#: rough delegation; the engine shares the evaluations and mirrors counts.
_SHARED_ROUGH_PAIR_ROWS = {
    "rough-monotonicity": ("closure-monotonicity", "interior-monotonicity"),
    "rough-upper-join": ("closure-additivity",),
    "rough-lower-meet": ("interior-meet",),
}


@dataclass(frozen=True)
class LawSpec:
    arity: str  # "space" | "set" | "pair"
    evaluator: Callable  # (tables, *packed sets) -> True when the law holds
    description: str


LAWS: dict[str, LawSpec] = {
    "closure-grounding": LawSpec("space", _closure_grounding, "closure of null is null"),
    "closure-enlargement": LawSpec("set", _closure_enlargement, "G inside cl(G)"),
    "closure-monotonicity": LawSpec("pair", _pair_law("closure-monotonicity"), "G inside H implies cl(G) inside cl(H)"),
    "closure-additivity": LawSpec("pair", _pair_law("closure-additivity"), "cl(G or H) = cl(G) or cl(H)"),
    "interior-absolute": LawSpec("space", _interior_absolute, "interior of absolute is absolute"),
    "interior-contraction": LawSpec("set", _interior_contraction, "int(G) inside G"),
    "interior-monotonicity": LawSpec("pair", _pair_law("interior-monotonicity"), "G inside H implies int(G) inside int(H)"),
    "interior-meet": LawSpec("pair", _pair_law("interior-meet"), "int(G and H) = int(G) and int(H)"),
    "duality": LawSpec("set", _duality, "cl and int are complement-dual"),
    "aura-open-family": LawSpec("pair", _pair_law("aura-open-family"), "aura-open sets are closed under union and intersection"),
    "kuratowski-fixpoint": LawSpec("set", _kuratowski_fixpoint, "fixpoint closure is idempotent, contains one-step closure, stabilises within |X| steps"),
    "kuratowski-additivity": LawSpec("pair", _pair_law("kuratowski-additivity"), "fixpoint closure is additive"),
    "tau-infinity-in-tau": LawSpec("set", _tau_infinity_in_tau, "complements of fixpoint-closed sets are aura-open"),
    "hierarchy-cech": LawSpec("set", _hierarchy(CECH), "open => alpha => semi,pre => b => beta (one-step closure)"),
    "hierarchy-kuratowski": LawSpec("set", _hierarchy(KURATOWSKI), "open => alpha => semi,pre => b => beta (fixpoint closure)"),
    "classify-consistency": LawSpec("set", _classify_consistency, "classify flags match direct operator composition"),
    "decomposition-set-kuratowski": LawSpec("set", _alpha_decomposes(KURATOWSKI), "alpha = semi and pre under the fixpoint closure"),
    "union-closure-semi": LawSpec("pair", _pair_law("union-closure-semi"), "semi-open sets are union-closed"),
    "union-closure-pre": LawSpec("pair", _pair_law("union-closure-pre"), "pre-open sets are union-closed"),
    "union-closure-beta": LawSpec("pair", _pair_law("union-closure-beta"), "beta-open sets are union-closed"),
    "t1-iff-t2": LawSpec("space", _t1_iff_t2, "T1 and T2 coincide"),
    "t1-iff-singleton-scopes": LawSpec("space", _t1_iff_singleton_scopes, "T1 iff every scope slice is a singleton"),
    "t1-implies-t0": LawSpec("space", _t1_implies_t0, "T1 implies T0"),
    "t1-singleton-closure": LawSpec("space", _t1_singleton_closure, "in a T1 space soft points are closed"),
    "rough-delegation": LawSpec("set", _rough_delegation, "lower/upper approximations equal interior/closure"),
    "rough-sandwich": LawSpec("set", _rough_sandwich, "lower inside target inside upper"),
    "rough-fixed-points": LawSpec("space", _rough_fixed_points, "null and absolute approximate to themselves"),
    "rough-duality": LawSpec("set", _duality, "approximations are complement-dual"),
    "rough-monotonicity": LawSpec("pair", _pair_law(*_SHARED_ROUGH_PAIR_ROWS["rough-monotonicity"]), "approximations are monotone"),
    "rough-upper-join": LawSpec("pair", _pair_law(*_SHARED_ROUGH_PAIR_ROWS["rough-upper-join"]), "upper approximation distributes over union"),
    "rough-lower-meet": LawSpec("pair", _pair_law(*_SHARED_ROUGH_PAIR_ROWS["rough-lower-meet"]), "lower approximation distributes over intersection"),
    "rough-accuracy": LawSpec("set", _rough_accuracy, "accuracy in [0,1]; 1 exactly when the boundary is null; convention flagged on null upper"),
    "oracle-equivalence": LawSpec("set", _oracle_equivalence, "bitmask operators equal the literal oracles"),
}

#: classify-consistency re-derives all twelve flags through classify(), so
#: the suite checks it on every 7th set of a space only.
_SET_STRIDE = {"classify-consistency": 7}

#: Witness-producing findings (never build-blocking): alpha meets can fail
#: under both closure kinds because the interior stays one-step, and the
#: one-step closure can break the per-set alpha = semi+pre identity.
#: The alpha-meet rows come from the pair scan and appear only when it ran.
REPORT_ROWS = ("alpha-meet-cech", "alpha-meet-kuratowski", "decomposition-set-cech")
_PAIR_REPORT_ROWS = REPORT_ROWS[:2]

_cech_decomposes = _alpha_decomposes(CECH)

#: Hierarchy edges, each witnessed by a set where the right class holds and
#: the left does not: a condition on its flags (open, alpha, semi, pre, b, beta).
_EDGE_CONDITIONS = {
    "open=>alpha": lambda opn, alpha, semi, pre, b, beta: alpha and not opn,
    "alpha=>semi": lambda opn, alpha, semi, pre, b, beta: semi and not alpha,
    "alpha=>pre": lambda opn, alpha, semi, pre, b, beta: pre and not alpha,
    "semi|pre=>b": lambda opn, alpha, semi, pre, b, beta: b and not (semi or pre),
    "b=>beta": lambda opn, alpha, semi, pre, b, beta: beta and not b,
}
STRICTNESS_EDGES = tuple(_EDGE_CONDITIONS)


def replay_witness(w: Witness) -> bool:
    """Rebuild the witness space and re-evaluate its finding on that space's tables."""
    space = replay_space(w.space)
    ctx = space.context
    t = _Tables(space)
    gs = [_pack(SoftSet.from_slices(ctx, slices).masks, ctx.n_points) for slices in w.sets]
    if w.kind == "law":
        return not LAWS[w.name].evaluator(t, *gs)
    if w.kind == "strictness" and w.name in _EDGE_CONDITIONS:
        return _EDGE_CONDITIONS[w.name](*t.rows[CECH][gs[0]])
    if w.kind == "report":
        if w.name in ("alpha-meet-cech", "alpha-meet-kuratowski"):
            return not _pair_law(w.name)(t, *gs)
        if w.name == "decomposition-set-cech":
            return not _cech_decomposes(t, gs[0])
    raise ValueError(f"cannot replay witness kind {w.kind!r} name {w.name!r}")


# -- suite engine ------------------------------------------------------------


@dataclass
class LawResult:
    checked: int = 0
    failures: int = 0
    witnesses: list[Witness] = field(default_factory=list)


@dataclass
class SuiteResult:
    """Outcome of one law-suite run; serialises to a deterministic JSON report."""

    spec: SpaceFamilySpec
    laws: dict[str, LawResult]
    reports: dict[str, dict]
    strictness: dict[str, Witness | None]
    spaces_checked: int
    sets_per_space_max: int

    @property
    def total_failures(self) -> int:
        return sum(r.failures for r in self.laws.values())

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "maxUniverse": self.spec.max_universe,
                "maxParams": self.spec.max_params,
                "topologyKind": self.spec.topology_kind,
                "scopeEnumeration": self.spec.scope_mode,
                "seed": self.spec.seed,
                "sampleCount": self.spec.sample_count,
            },
            "family": {
                "spaces": self.spaces_checked,
                "setsPerSpaceMax": self.sets_per_space_max,
            },
            "laws": {
                name: {
                    "checked": r.checked,
                    "failures": r.failures,
                    "witnesses": [w.to_json_dict() for w in r.witnesses],
                }
                for name, r in self.laws.items()
            },
            "reports": self.reports,
            "strictness": {
                edge: (w.to_json_dict() if w is not None else None)
                for edge, w in self.strictness.items()
            },
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), indent=2, ensure_ascii=False) + "\n").encode(
            "utf-8"
        )


def _sampled_sets(ctx: Context, seed: int, rank3: tuple[int, ...]) -> list[int]:
    """A spread of 256 packed soft sets, for shapes too big to enumerate.

    The family seed is mixed with the space's rank in explicit 64-bit
    (FNV-style) steps, so the draw does not depend on the interpreter's hash.
    """
    for part in rank3:
        seed = ((seed ^ part) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    rng = random.Random(seed)
    n, m, full = ctx.n_points, ctx.n_params, ctx.full_mask
    return [_pack([rng.randrange(full + 1) for _ in range(m)], n) for _ in range(256)]


def require_known_laws(laws: Sequence[str]) -> None:
    """ValueError naming every entry of `laws` that is not a law in LAWS."""
    unknown = [l for l in laws if l not in LAWS]
    if unknown:
        raise ValueError(f"unknown laws: {unknown}")


def run_law_suite(spec: SpaceFamilySpec, laws: Sequence[str] | None = None) -> SuiteResult:
    """Evaluate the law registry over the family and collect a deterministic report.

    Per space, the operator tables are filled by public operator calls; law
    checks are then comparisons of those library-produced values.  Shapes
    with n*m <= 12 check every soft set and every pair; larger shapes check
    256 seeded sets and no pairs.  Scan order is canonical everywhere, so
    witnesses are canonically minimal and reports byte-reproducible.  The
    alpha-meet report rows are left out when no space ran the pair scan
    (no pair law selected, or no shape with n*m <= 12).
    """
    if laws is not None:
        require_known_laws(laws)
    selected = set(laws) if laws is not None else set(LAWS)
    # a mirrored rough row needs its base rows scanned, selected or not
    scanned = selected.union(*(_SHARED_ROUGH_PAIR_ROWS.get(name, ()) for name in selected))

    results = {name: LawResult() for name in LAWS if name in scanned}
    checks = [(name, LAWS[name]) for name in results if LAWS[name].arity != "pair"]
    pair_rows = [
        name
        for name in results
        if LAWS[name].arity == "pair" and name not in _SHARED_ROUGH_PAIR_ROWS
    ]
    reports: dict[str, dict] = {
        name: {"found": 0, "first": None} for name in REPORT_ROWS
    }
    strictness: dict[str, Witness | None] = {e: None for e in STRICTNESS_EDGES}
    shape_sets: dict[tuple[int, int], list[SoftSet]] = {}
    spaces_checked = 0
    sets_max = 0

    for rank3, space in iter_family_spaces(spec):
        spaces_checked += 1
        ctx = space.context
        n, m = ctx.n_points, ctx.n_params
        exhaustive = n * m <= EXHAUSTIVE_GUARD
        if exhaustive:
            packed: Sequence[int] = range(1 << (n * m))
            if (n, m) not in shape_sets:
                shape_sets[n, m] = [_unpack(ctx, g) for g in packed]
            t = _Tables(space, shape_sets[n, m])
        else:
            t = _Tables(space)
            packed = _sampled_sets(ctx, spec.seed or 0, rank3)
        size = len(packed)
        sets_max = max(sets_max, size)

        def record(name: str, rank: tuple[int, ...], gs: Sequence[int]) -> None:
            """Count one finding; keep the witnesses its row keeps."""
            row = reports.get(name)
            if row is not None:
                row["found"] += 1
                if row["first"] is None:
                    row["first"] = _witness(
                        "report", name, space, rank, [t.sets[g] for g in gs]
                    ).to_json_dict()
                return
            r = results.get(name)
            if r is None:
                return
            r.failures += 1
            if len(r.witnesses) < WITNESS_LIMIT:
                r.witnesses.append(_witness("law", name, space, rank, [t.sets[g] for g in gs]))

        # space and set laws: one evaluation per (rank tail, packed sets) instance
        instances = {
            "space": [((), ())],
            "set": [((i,), (g,)) for i, g in enumerate(packed)],
        }
        for name, law in checks:
            chosen = instances[law.arity][:: _SET_STRIDE.get(name, 1)]
            results[name].checked += len(chosen)
            for tail, gs in chosen:
                if not law.evaluator(t, *gs):
                    record(name, rank3 + tail, gs)

        cech = t.rows[CECH]
        for edge, condition in _EDGE_CONDITIONS.items():
            if strictness[edge] is None:
                for i, g in enumerate(packed):
                    if condition(*cech[g]):
                        rank = rank3 + (i,)
                        strictness[edge] = _witness("strictness", edge, space, rank, (t.sets[g],))
                        break
        for i, g in enumerate(packed):
            if not _cech_decomposes(t, g):
                record("decomposition-set-cech", rank3 + (i,), (g,))

        # pair laws need the full set lattice: every union and meet is a row
        if exhaustive and pair_rows:
            hit = lambda name, a, b: record(name, rank3 + (a, b), (a, b))
            for g in packed:
                _pair_row(t, g, range(g, size), hit)
            for name in pair_rows:
                results[name].checked += size * (size + 1) // 2

    # rough pair rows coincide with the base rows once delegation holds;
    # counts are mirrored rather than re-scanned (see rough-delegation), and
    # witnesses are relabelled so they replay through the rough row's entry
    for rough_name, base_names in _SHARED_ROUGH_PAIR_ROWS.items():
        if rough_name in results:
            row = results[rough_name]
            for base in base_names:
                row.checked = results[base].checked
                row.failures += results[base].failures
                row.witnesses.extend(replace(w, name=rough_name) for w in results[base].witnesses)
            row.witnesses = sorted(row.witnesses, key=lambda w: w.rank)[:WITNESS_LIMIT]
    if not any(results[name].checked for name in pair_rows):
        reports = {name: r for name, r in reports.items() if name not in _PAIR_REPORT_ROWS}
    results = {name: r for name, r in results.items() if name in selected}

    return SuiteResult(spec, results, reports, strictness, spaces_checked, sets_max)


def find_strictness_witnesses(spec: SpaceFamilySpec) -> dict[str, Witness | None]:
    """First witness per hierarchy edge in canonical family order (one-step closure)."""
    return run_law_suite(spec, laws=["hierarchy-cech"]).strictness


# -- mapping decomposition scan ----------------------------------------------


@dataclass(frozen=True)
class MappingScanResult:
    """Outcome of the exhaustive mapping decomposition scan over one closure kind pair."""

    mappings_checked: int
    kuratowski_failures: int
    kuratowski_first_failure: dict | None
    cech_mismatches: int
    cech_first_mismatch: dict | None


def _family_space_selection(per_shape: int) -> list[SoftAuraSpace]:
    """Deterministic per-shape subfamily: evenly spaced canonical scope ranks.

    Always includes the first (all-singleton) and last (all-absolute) scope
    of each shape, with the rest spread through the canonical enumeration.
    """
    spaces: list[SoftAuraSpace] = []
    for n in range(1, 4):
        for m in range(1, 3):
            ctx = _family_context(n, m)
            topo = discrete_topology(ctx)
            all_scopes = list(enumerate_scope_functions(ctx, topo))
            total = len(all_scopes)
            if total <= per_shape:
                chosen = all_scopes
            else:
                idxs = sorted(
                    {round(j * (total - 1) / (per_shape - 1)) for j in range(per_shape)}
                )
                chosen = [all_scopes[i] for i in idxs]
            spaces.extend(SoftAuraSpace(ctx, topo, s) for s in chosen)
    return spaces


def _mapping_tables(src: SoftAuraSpace, tgt: SoftAuraSpace, u: tuple[int, ...], p: tuple[int, ...]) -> tuple[dict, dict]:
    """The point map and parameter map given by target index tuples u and p."""
    return (
        {x: tgt.context.universe[u[xi]] for xi, x in enumerate(src.context.universe)},
        {e: tgt.context.parameters[p[ei]] for ei, e in enumerate(src.context.parameters)},
    )


def _mapping_desc(src: SoftAuraSpace, tgt: SoftAuraSpace, u: tuple[int, ...], p: tuple[int, ...]) -> dict:
    point_map, param_map = _mapping_tables(src, tgt, u, p)
    return {
        "source": _space_desc(src),
        "target": _space_desc(tgt),
        "pointMap": point_map,
        "paramMap": param_map,
    }


def _continuity_bits(space: SoftAuraSpace, g: SoftSet) -> int:
    """Flag bits of g: alpha, semi, pre under the one-step closure, then under the fixpoint closure."""
    pc, pk = classify(space, g, CECH), classify(space, g, KURATOWSKI)
    flags = (pc.alpha_open, pc.semi_open, pc.pre_open, pk.alpha_open, pk.semi_open, pk.pre_open)
    return sum(flag << j for j, flag in enumerate(flags))


def decomposition_mapping_scan(per_shape: int = 10, cross_check_every: int = 64) -> MappingScanResult:
    """Check mapping-level decomposition over an exhaustive family of mappings.

    Spaces come from a deterministic subfamily per shape (|X| <= 3, |E| <= 2,
    discrete); between every source/target pair, ALL point maps and ALL
    parameter maps are enumerated.  For each mapping the alpha/semi/pre
    continuity flags are computed under both closure kinds; the
    fixpoint-kind equivalence (alpha iff semi and pre) must hold for every
    mapping, while one-step-kind mismatches are counted and reported.

    Every openness class is decided slice by slice and holds the null set,
    and the target's aura-open family is the product of per-parameter
    open-slice families.  So (u, p) is in a class iff, for each source
    parameter e and open target slice V at p(e), the set with u^-1(V) at e
    and null elsewhere is: only those sets are classified (public
    classify()), their flags ANDed per (e, target parameter) once per u.

    Preimages come from one slice table per (|Y|, u).  Counting (mapping,
    target aura-open set) pairs in scan order, every `cross_check_every`-th
    set's preimage is assembled from the table by p and compared with the
    public inverse_image().  ValueError for `per_shape` < 2 or
    `cross_check_every` < 1.
    """
    from .mapping import SoftMapping, inverse_image

    if per_shape < 2 or cross_check_every < 1:
        raise ValueError(f"need per_shape >= 2 and cross_check_every >= 1, got {per_shape}, {cross_check_every}")
    spaces = _family_space_selection(per_shape)
    # rows[ei][s]: flag bits of the source set with slice s at ei, null elsewhere
    source_rows = [
        [
            [_continuity_bits(sp, _unpack(sp.context, s << (ei * sp.context.n_points)))
             for s in range(1 << sp.context.n_points)]
            for ei in range(sp.context.n_params)
        ]
        for sp in spaces
    ]
    taus = [enumerate_aura_topology(sp) for sp in spaces]
    preimages: dict[tuple, list[int]] = {}

    checked = 0
    kur_failures = 0
    kur_first = None
    cech_mismatches = 0
    cech_first = None
    evals = 0

    for src, rows in zip(spaces, source_rows):
        nx, ne = src.context.n_points, src.context.n_params
        for tgt, tau in zip(spaces, taus):
            ny, nk = tgt.context.n_points, tgt.context.n_params
            slices = [{v.masks[k] for v in tau} for k in range(nk)]
            for u in itertools.product(range(ny), repeat=nx):
                pre = preimages.get((ny, u))
                if pre is None:
                    pre = preimages[ny, u] = [
                        sum(1 << xi for xi, y in enumerate(u) if s >> y & 1) for s in range(1 << ny)
                    ]
                # per_param[ei][k]: AND of the flags of every pull-back of an open slice at k, placed at ei
                per_param = [
                    [reduce(and_, [row[pre[v]] for v in fam]) for fam in slices]
                    for row in rows
                ]
                for p in itertools.product(range(nk), repeat=ne):
                    checked += 1
                    # bits 0-2 one-step alpha, semi, pre; bits 3-5 the same under the fixpoint closure
                    flags = 0b111111
                    for ei, k in enumerate(p):
                        flags &= per_param[ei][k]
                    first = (-evals - 1) % cross_check_every
                    evals += len(tau)
                    if first < len(tau):
                        mapping = SoftMapping(src, tgt, *_mapping_tables(src, tgt, u, p))
                        for v in tau[first::cross_check_every]:
                            h = 0
                            for ei, k in enumerate(p):
                                h |= pre[v.masks[k]] << (ei * nx)
                            if _pack(inverse_image(mapping, v).masks, nx) != h:
                                raise AssertionError(
                                    "packed preimage kernel disagrees with inverse_image"
                                )
                    if (flags & 0b001000 != 0) != (flags & 0b110000 == 0b110000):
                        kur_failures += 1
                        if kur_first is None:
                            kur_first = _mapping_desc(src, tgt, u, p)
                    if (flags & 0b000001 != 0) != (flags & 0b000110 == 0b000110):
                        cech_mismatches += 1
                        if cech_first is None:
                            cech_first = _mapping_desc(src, tgt, u, p)
    return MappingScanResult(checked, kur_failures, kur_first, cech_mismatches, cech_first)
