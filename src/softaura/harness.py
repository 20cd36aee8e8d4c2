"""Exhaustive and sampled verification over small space families.

The engine enumerates every scope function over the discrete topology for
each universe/parameter shape up to the requested bounds, or draws a seeded
sample, builds per-space lookup tables from public operator calls (see
_Tables), and evaluates every law as comparisons of those library-produced
values.  Closure, interior and the fixpoint closure (the closure iterated,
as the paper builds it) are composed slice by slice from the space's own
single-slice entries, so a fault that reads another scope column is seen,
and replayed, on the space it acts on.

Each law, and each report row, is defined once over the tables: a space
law is a predicate on the tables and a pair law one on a packed pair,
while a set law is a filter over packed sets giving the positions of those
that fail it, so its body runs once per space.  The suite and
replay_witness evaluate the same definition, and a row counts each set or
pair that fails it once.  Pair laws, and the set laws read off the tables
alone, are decided one parameter slice at a time where that is exact (see
_slice_decision).  All ranks are canonical, and a row keeps its first
witnesses in family order (see run_law_suite).  Every report is
byte-reproducible.

Literal per-element oracles for the closure and interior live here too; they
work on name sets, never on bitmasks, so they share no code with the
optimized operators they check.  The oracle tables are composed slice by
slice like the closure's, from one name-set pass per single-slice set.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from functools import cached_property, partial, reduce
from operator import and_, attrgetter, getitem
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from .documents import DecodedSpace, decode_space, encode_space
from .errors import CapExceeded, SizeGuard, _Frozen
from .genopen import classify
from .operators import (
    CECH,
    KURATOWSKI,
    TARGET_AURA,
    aura_closure,
    aura_interior,
    enumerate_aura_topology,
    kuratowski_closure,
)
from .rough import accuracy, lower_approx, upper_approx
from .separation import separation_report, t1_singleton_closure, t1_via_singleton_scopes
from .softset import DEFAULT_UNIVERSE_LIMIT, Context, SoftSet, _pack, _unpack, make_soft_set
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


class SpaceFamilySpec(_Frozen):
    """Bounds and enumeration mode for a family of spaces.

    scope_mode "all" enumerates every scope function over every shape up to
    (max_universe, max_params); it requires max_universe * max_params <= 12.
    scope_mode "sampled" draws `sample_count` >= 1 spaces from `seed` instead.
    Either way max_universe is at most DEFAULT_UNIVERSE_LIMIT (64).
    topology_kind "generated" (topologies generated from random subbases,
    as unions of least open neighbourhoods) is only available in sampled mode.
    """

    __slots__ = ("max_universe", "max_params", "topology_kind", "scope_mode", "seed", "sample_count")

    def __init__(
        self,
        max_universe: int,
        max_params: int,
        topology_kind: str = DISCRETE,
        scope_mode: str = "all",
        seed: int | None = None,
        sample_count: int | None = None,
    ):
        if max_universe < 1 or max_params < 1:
            raise ValueError("bounds must be at least 1")
        if max_universe > DEFAULT_UNIVERSE_LIMIT:
            raise ValueError(f"max_universe is {max_universe}, the universe limit is {DEFAULT_UNIVERSE_LIMIT}")
        if topology_kind not in (DISCRETE, GENERATED):
            raise ValueError(f"unsupported family topology kind {topology_kind!r}")
        if scope_mode == "all":
            if max_universe * max_params > EXHAUSTIVE_GUARD:
                raise SizeGuard(
                    f"exhaustive family needs max_universe*max_params <= {EXHAUSTIVE_GUARD}"
                )
            if topology_kind != DISCRETE:
                raise SizeGuard("exhaustive enumeration is only supported over the discrete topology")
        elif scope_mode == "sampled":
            if seed is None or sample_count is None:
                raise ValueError("sampled mode requires seed and sample_count")
            if sample_count < 1:
                raise ValueError("sample_count must be at least 1")
            if not 0 <= seed < 1 << 64:
                raise ValueError("seed must fit in 64 bits")
        else:
            raise ValueError(f"unknown scope mode {scope_mode!r}")
        self._store(max_universe, max_params, topology_kind, scope_mode, seed, sample_count)


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


def _scope_choices(context: Context, topology: SoftTopology) -> list[list[SoftSet]]:
    """Per point, its admissible scope sets in canonical order (ascending combined bitmask)."""
    if topology.kind != DISCRETE:
        return [_admissible_members(topology, xi) for xi in range(context.n_points)]
    per_point = []
    for xi in range(context.n_points):
        slices = [s for s in range(context.full_mask + 1) if s >> xi & 1]
        per_point.append([SoftSet(context, masks) for masks in itertools.product(slices, repeat=context.n_params)])
    return per_point


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
    per_point = _scope_choices(context, topology)
    total = math.prod(map(len, per_point))
    if total > cap:
        raise CapExceeded(total, cap, "scope functions")
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


def _sample_generated_topology(context: Context, rng: random.Random) -> SoftTopology:
    """A topology generated from a subbasis of up to three random soft sets."""
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
                    raise CapExceeded(total, DEFAULT_CAP, "scope functions")
        for n in range(1, spec.max_universe + 1):
            for m in range(1, spec.max_params + 1):
                ctx = _family_context(n, m)
                topo = discrete_topology(ctx)
                for idx, scope in enumerate(enumerate_scope_functions(ctx, topo)):
                    yield (n, m, idx), SoftAuraSpace(ctx, topo, scope)
    else:
        rng = random.Random(spec.seed)
        # one context and one discrete topology per shape drawn
        shapes: dict[tuple[int, int], tuple[Context, SoftTopology]] = {}
        for idx in range(spec.sample_count):
            n = rng.randint(1, spec.max_universe)
            m = rng.randint(1, spec.max_params)
            shape = shapes.get((n, m))
            if shape is None:
                ctx = _family_context(n, m)
                shape = shapes[n, m] = ctx, discrete_topology(ctx)
            ctx, topo = shape
            if spec.topology_kind == GENERATED:
                topo = _sample_generated_topology(ctx, rng)
            scope = _sample_scope(ctx, topo, rng)
            yield (n, m, idx), SoftAuraSpace(ctx, topo, scope)


# -- literal oracles --------------------------------------------------------


def oracle_scopes(space: SoftAuraSpace) -> dict[str, list[tuple[str, set[str]]]]:
    """Per parameter, every point with its scope slice as a name set, in universe order."""
    return {
        e: [(x, set(space.scope.of(x).points(e))) for x in space.context.universe]
        for e in space.context.parameters
    }


def _oracle_scan(table: list[tuple[str, set[str]]], names: set[str], interior: bool) -> list[str]:
    """The points of one parameter's `oracle_scopes` table in the interior (or closure) of one slice.

    `names` is the slice as a name set; a point is in its interior when its
    scope slice lies inside `names`, in its closure when that meets `names`.
    """
    if interior:
        return [x for x, scope_x in table if scope_x <= names]
    return [x for x, scope_x in table if not scope_x.isdisjoint(names)]


def _oracle(space: SoftAuraSpace, g: SoftSet, scopes, interior: bool) -> SoftSet:
    scopes = scopes or oracle_scopes(space)
    return make_soft_set(space.context, {e: _oracle_scan(table, set(g.points(e)), interior) for e, table in scopes.items()})


def oracle_closure(space: SoftAuraSpace, g: SoftSet, scopes=None) -> SoftSet:
    """Per-element definition scan using name sets; no bitmask shortcuts.

    Callers scanning many sets of one space pass `scopes=oracle_scopes(space)`.
    """
    return _oracle(space, g, scopes, False)


def oracle_interior(space: SoftAuraSpace, g: SoftSet, scopes=None) -> SoftSet:
    """Per-element definition scan using name sets; no bitmask shortcuts; `scopes` as for oracle_closure."""
    return _oracle(space, g, scopes, True)


# -- witnesses ---------------------------------------------------------------


def replay_space(desc: Mapping) -> SoftAuraSpace:
    """Rebuild a witness space from its space document, which `softaura validate` also reads."""
    return decode_space(desc).space


class Witness(_Frozen):
    """A replayable finding: a space, the soft sets involved, and what they show.

    kind is "law" (a falsification), "strictness" (an implication edge that
    is strict), or "report" (an expected finding, e.g. a one-step-closure
    alpha intersection failure).  rank is the canonical position
    (|X|, |E|, scope rank, set ranks...) of the instance in family order.
    """

    __slots__ = ("kind", "name", "space", "rank", "sets")

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
        encode_space(DecodedSpace(space, {}, {})),
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


def _slice_product(rows: list[list[int]], null: int) -> list[int]:
    """The whole packed table whose entry for g is the OR of its non-null single-slice parts' entries in `rows`.

    The null set's entry is `null`.  The list is built as the product of the
    rows, in packed order.
    """
    table = [0]
    for row in rows:
        table = [hi | lo for hi in row for lo in table]
    table[0] = null
    return table


def _composed(rows: list, null: int, n: int) -> _Lazy:
    """The packed table of `_slice_product(rows, null)`, each entry composed on first lookup."""
    full = (1 << n) - 1

    def fill(g: int) -> int:
        if g == 0:
            return null
        out = 0
        for row in rows:
            out |= row[g & full]
            g >>= n
        return out

    return _Lazy(fill)


def _slicewise(entry: Callable[[int], int], t):
    """Packed table of a slicewise operator on the space of tables `t`, whose packed entry at a single-slice or null set g is `entry(g)`.

    The null set and each single-slice set get one `entry` call; any other
    entry is the OR of its single-slice parts' entries.  Per parameter i
    the entries of the sets a << i*n, a != 0, form a row (0 at 0).  The
    rows come from this space's own calls: a row that leaks out of its
    slice, or reads another scope column, is seen on the space whose
    operator produced it (see `_slice_decision`).  On exhaustive tables
    the rows are lists and the table is a list built as their product;
    otherwise both are dicts filled on first lookup.
    """
    n, m = t.space.context.n_points, t.space.context.n_params
    if t.exhaustive:
        rows = [[0] + [entry(a << (i * n)) for a in range(1, 1 << n)] for i in range(m)]
        return _slice_product(rows, entry(0))
    rows = [_Lazy(lambda a, i=i: a and entry(a << (i * n))) for i in range(m)]
    return _composed(rows, entry(0), n)


class _Tables:
    """Packed operator tables of one space, keyed by packed soft set.

    A soft set packs into one integer with slice i shifted by i*|X|.  `sets`
    unpacks; `cl`, `int_` and `fix` hold the packed one-step closure,
    interior and fixpoint closure; `rows[kind]` the six openness flags of
    each set under a closure kind, as one tuple per set.  All three and the
    `oracle` tables are composed slice by slice (`_slicewise`), each from
    this space's own single-slice entries: `cl` and `int_` from public
    operator calls, `fix` from the `cl` table applied |X| times, so no
    table calls `kuratowski_closure`, and the oracles from name-set scans.
    The shape alone picks the representation, whoever builds the tables:
    with |X|*|E| <= EXHAUSTIVE_GUARD (`exhaustive`) they are lists filled
    up front, above it dicts filled on first lookup.  List-backed tables
    take their context's unpacked sets from `unpacked` (context -> list,
    which one suite run shares across its spaces; they make no operator
    call), and keep them there.  Dict-backed tables unpack the sets they
    read for themselves.  No stored function refers to the instance, so
    reference counting frees the tables.
    """

    def __init__(self, space: SoftAuraSpace, unpacked: dict | None = None):
        ctx = space.context
        n, m = ctx.n_points, ctx.n_params
        self.exhaustive = exhaustive = n * m <= EXHAUSTIVE_GUARD

        def table(fill):
            return [fill(g) for g in range(1 << n * m)] if exhaustive else _Lazy(fill)

        self.space = space
        self.full = (1 << n * m) - 1
        shared = unpacked if exhaustive and unpacked is not None else {}
        sets = shared.get(ctx)
        if sets is None:
            sets = shared[ctx] = table(partial(_unpack, ctx))
        self.sets = sets

        def called(op):
            return lambda g: _pack(op(space, sets[g]).masks, n)

        def iterated(g):
            # cl enlarges and each step short of the fixpoint adds a point
            # to the one slice of g, so |X| steps reach the least fixpoint
            for _ in range(n):
                g = cl[g]
            return g

        self.cl = cl = _slicewise(called(aura_closure), self)
        self.int_ = int_ = _slicewise(called(aura_interior), self)
        self.fix = fix = _slicewise(iterated, self)
        self.rows = {kind: table(partial(_openness_row, c, int_)) for kind, c in ((CECH, cl), (KURATOWSKI, fix))}

    @cached_property
    def separation(self):
        return separation_report(self.space)

    @cached_property
    def oracle(self) -> tuple:
        """Packed `oracle_closure` and `oracle_interior` tables, composed like `cl` and `int_`.

        A single-slice set's entry is one `_oracle_scan` of its names at its
        parameter; the null set's is one whole-set oracle call, which also
        sees points an oracle puts on null slices.
        """
        space, null = self.space, self.sets[0]
        ctx = space.context
        n = ctx.n_points
        scopes = oracle_scopes(space)
        tables = list(scopes.values())

        def entry(interior: bool) -> Callable[[int], int]:
            def fill(g: int) -> int:
                if not g:
                    return _pack(_oracle(space, null, scopes, interior).masks, n)
                i = (g.bit_length() - 1) // n
                names = set(ctx.points_of(g >> (i * n)))
                return ctx.mask_of(_oracle_scan(tables[i], names, interior)) << (i * n)

            return fill

        return _slicewise(entry(False), self), _slicewise(entry(True), self)


# -- law registry ------------------------------------------------------------


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


def _closure_enlargement(t, gs):
    cl = t.cl
    return [j for j, g in enumerate(gs) if g & ~cl[g]]


def _interior_contraction(t, gs):
    int_ = t.int_
    return [j for j, g in enumerate(gs) if int_[g] & ~g]


def _duality(t, gs):
    cl, int_, full = t.cl, t.int_, t.full
    return [j for j, g in enumerate(gs) if cl[full & ~g] != full & ~int_[g] or int_[full & ~g] != full & ~cl[g]]


def _kuratowski_fixpoint(t, gs):
    space, sets, cl, fix = t.space, t.sets, t.cl, t.fix
    n = space.context.n_points
    failing = []
    for j, g in enumerate(gs):
        k = fix[g]
        public = kuratowski_closure(space, sets[g])
        stable = all(1 <= it <= n for it in public.iterations.values())
        if cl[g] & ~k or g & ~k or fix[k] != k or cl[k] != k or public.closure.masks != sets[k].masks or not stable:
            failing.append(j)
    return failing


def _tau_infinity_in_tau(t, gs):
    fix, int_, full = t.fix, t.int_, t.full
    return [j for j, g in enumerate(gs) if fix[full & ~g] == full & ~g and int_[g] != g]


def _flag_filter(kind: str, condition: Callable[..., bool]):
    """The filter of sets whose openness flags under `kind` meet condition(open, alpha, semi, pre, b, beta)."""
    kept = frozenset(flags for flags in itertools.product((False, True), repeat=6) if condition(*flags))

    def law(t, gs):
        rows = t.rows[kind]
        return [j for j, g in enumerate(gs) if rows[g] in kept]

    return law


def _hierarchy_fails(opn, alpha, semi, pre, b, beta):
    return (opn and not alpha) or (alpha and not (semi and pre)) or ((semi or pre) and not b) or (b and not beta)


def _decomposition_fails(opn, alpha, semi, pre, b, beta):
    return alpha != (semi and pre)


def _classify_consistency(t, gs):
    space, sets, rows = t.space, t.sets, t.rows
    flags = attrgetter("a_open", "alpha_open", "semi_open", "pre_open", "b_open", "beta_open")
    return [
        j for j, g in enumerate(gs)
        if any(flags(classify(space, sets[g], kind)) != rows[kind][g] for kind in (CECH, KURATOWSKI))
    ]


def _rough_delegation(t, gs):
    space, sets, cl, int_ = t.space, t.sets, t.cl, t.int_
    return [
        j for j, g in enumerate(gs)
        if lower_approx(space, sets[g]).masks != sets[int_[g]].masks
        or upper_approx(space, sets[g]).masks != sets[cl[g]].masks
    ]


def _rough_sandwich(t, gs):
    cl, int_ = t.cl, t.int_
    return [j for j, g in enumerate(gs) if int_[g] & ~g or g & ~cl[g]]


def _rough_accuracy(t, gs):
    space, sets, cl, int_ = t.space, t.sets, t.cl, t.int_
    failing = []
    for j, g in enumerate(gs):
        try:
            acc = accuracy(space, sets[g])
        except ValueError:
            # counts that no pair of approximations has; Accuracy refuses them
            acc = None
        # Accuracy ties convention_applied to a null upper count
        if acc is None or acc.lower_total != int_[g].bit_count() or acc.upper_total != cl[g].bit_count():
            failing.append(j)
    return failing


def _oracle_equivalence(t, gs):
    (ocl, oint), cl, int_ = t.oracle, t.cl, t.int_
    return [j for j, g in enumerate(gs) if ocl[g] != cl[g] or oint[g] != int_[g]]


def _pair_row(t, g: int, hs, hit: Callable) -> None:
    """Every pair law and alpha-meet report on the pairs (g, h), h in hs.

    `hit(name, a, b)` receives each failing row once per pair, with (a, b)
    in witness order.  Given rough delegation, a rough pair row is hit
    beside the rows whose comparison it shares: rough-upper-join with
    closure-additivity, rough-lower-meet with interior-meet, and
    rough-monotonicity with either monotonicity row.  The suite calls this
    once per g with hs = range(g, size): the innermost loop of a run.
    """
    cl, int_, fix = t.cl, t.int_, t.fix
    rows, rows_k = t.rows[CECH], t.rows[KURATOWSKI]
    clg, ing, fixg = cl[g], int_[g], fix[g]
    og, ag, sg, pg, _, eg = rows[g]
    akg = rows_k[g][1]
    for h in hs:
        u = g | h
        w = g & h
        rh = rows[h]
        if cl[u] != clg | cl[h]:
            hit("closure-additivity", g, h)
            hit("rough-upper-join", g, h)
        if int_[w] != ing & int_[h]:
            hit("interior-meet", g, h)
            hit("rough-lower-meet", g, h)
        if fix[u] != fixg | fix[h]:
            hit("kuratowski-additivity", g, h)
        if g & ~h == 0:
            up, down = clg & ~cl[h], ing & ~int_[h]
            if up:
                hit("closure-monotonicity", g, h)
            if down:
                hit("interior-monotonicity", g, h)
            if up or down:
                hit("rough-monotonicity", g, h)
        elif h & ~g == 0:
            up, down = cl[h] & ~clg, int_[h] & ~ing
            if up:
                hit("closure-monotonicity", h, g)
            if down:
                hit("interior-monotonicity", h, g)
            if up or down:
                hit("rough-monotonicity", h, g)
        if sg and rh[2] and not rows[u][2]:
            hit("union-closure-semi", g, h)
        if pg and rh[3] and not rows[u][3]:
            hit("union-closure-pre", g, h)
        if eg and rh[5] and not rows[u][5]:
            hit("union-closure-beta", g, h)
        if og and rh[0] and not (rows[u][0] and rows[w][0]):
            hit("aura-open-family", g, h)
        if akg and rows_k[h][1] and not rows_k[w][1]:
            hit("alpha-meet-kuratowski", g, h)
        if ag and rh[1] and not rows[w][1]:
            hit("alpha-meet-cech", g, h)


#: Set laws read off the tables alone; the others call public operators on
#: each set, which checks that those act slicewise on multi-slice sets.
_SLICEWISE_SET_LAWS = frozenset({
    "closure-enlargement", "interior-contraction", "duality", "rough-duality", "rough-sandwich",
    "tau-infinity-in-tau", "hierarchy-cech", "hierarchy-kuratowski", "decomposition-set-kuratowski",
    "oracle-equivalence",
})


def _slice_decision(t, names) -> tuple[set[str], dict[str, int] | None]:
    """The set laws of `names` that hold on every set, and the full pair scan's alpha-meet counts, decided one parameter slice at a time.

    `_slicewise` composes every entry of `cl`, `int_` and `fix` as the OR of
    its single-slice parts' entries, so they are products of those when
    each single-slice entry (the null set counts at every parameter) lies in
    its own slice.  Only `cl` and `int_` are checked for that: the `fix`
    entries iterate `cl` on single-slice sets, so they leave their slice
    only where a `cl` entry does.  Then each parameter's part of an entry
    depends on the set's slice there alone, a null slice has a null part,
    and every openness flag holds on a null slice.  Nothing is decided, (set(), None),
    when the tables are no such products or are not exhaustive (they hold
    only the entries read); a law left out is scanned set by set.

    Each law of `names` in _SLICEWISE_SET_LAWS is a conjunction over the
    parameters, or implications between such conjunctions, so it fails on a
    set iff it fails on the single-slice set holding one of that set's
    slices.  tau-infinity-in-tau reads fix(X - G), whose other slices are
    full for a single-slice G, so it also needs fix of the absolute set to
    be absolute.

    Every row of `_pair_row` is decided slice by slice too: a soft pair
    fails a row iff the pair of its single-slice parts at some parameter
    does, and a set has an openness flag iff each of its single-slice parts
    has it.  So `_pair_row` runs on the pairs of single-slice sets at each
    parameter only; the counts are None, and the full scan is needed, when
    one of those pairs fails a law row named in `names`, and None unread
    when `names` holds no pair row.  With A_i alpha-open
    single-slice sets at parameter i and Q_i ordered pairs of them whose
    meet is alpha-open, (prod A_i^2 - prod Q_i) / 2 is the scan's count of
    unordered failing pairs: failure is symmetric and never holds on the
    diagonal.
    """
    if not t.exhaustive:
        return set(), None
    ctx = t.space.context
    n = ctx.n_points
    singles = [[a << (i * n) for a in range(1 << n)] for i in range(ctx.n_params)]
    for i, row in enumerate(singles):
        outside = t.full & ~(ctx.full_mask << (i * n))
        if any(table[g] & outside for table in (t.cl, t.int_) for g in row):
            return set(), None
    every = [g for row in singles for g in row]
    decided = {name for name in names if name in _SLICEWISE_SET_LAWS and not LAWS[name].evaluator(t, every)}
    if t.fix[t.full] != t.full:
        decided.discard("tau-infinity-in-tau")
    if all(_ROWS[name].arity != "pair" for name in names):
        return decided, None
    failed: set[str] = set()
    hit = lambda name, a, b: failed.add(name)
    for row in singles:
        for j, g in enumerate(row):
            _pair_row(t, g, row[j:], hit)
    # the alpha-meet reports fail on single-slice pairs too; they are counted below
    if any(name in LAWS for name in failed.intersection(names)):
        return decided, None
    counts = {}
    for name, kind in _ALPHA_MEETS.items():
        flags = t.rows[kind]
        pairs = meets = 1
        for row in singles:
            opens = [g for g in row if flags[g][1]]
            pairs *= len(opens) ** 2
            meets *= sum(flags[g & h][1] for g in opens for h in opens)
        counts[name] = (pairs - meets) // 2
    return decided, counts


def _first_alpha_meet(flags, size: int) -> tuple[int, int] | None:
    """The full scan's first pair (g, h), g <= h, of sets alpha-open by `flags` (a `rows` table) whose meet is not alpha-open."""
    opens = [g for g in range(size) if flags[g][1]]
    for j, g in enumerate(opens):
        for h in opens[j:]:
            if not flags[g & h][1]:
                return g, h
    return None


def _pair_law(name: str):
    """The pair predicate: `_pair_row` on the one pair (g, h) does not hit `name`."""

    def law(t, g, h):
        found: set[str] = set()
        _pair_row(t, g, (h,), lambda row, a, b: found.add(row))
        return name not in found

    return law


class LawSpec(_Frozen):
    """arity is "space", "set" or "pair"; evaluator(tables) and evaluator(tables, g, h) are True when the law holds.

    A set law is a filter over sets: evaluator(tables, gs) gives the
    positions in gs of the packed sets that fail it, in order.
    """

    __slots__ = ("arity", "evaluator", "description")


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
    "kuratowski-fixpoint": LawSpec("set", _kuratowski_fixpoint, "public fixpoint closure is the iterated one-step closure: idempotent, contains it, stabilises within |X| steps"),
    "kuratowski-additivity": LawSpec("pair", _pair_law("kuratowski-additivity"), "fixpoint closure is additive"),
    "tau-infinity-in-tau": LawSpec("set", _tau_infinity_in_tau, "complements of fixpoint-closed sets are aura-open"),
    "hierarchy-cech": LawSpec("set", _flag_filter(CECH, _hierarchy_fails), "open => alpha => semi,pre => b => beta (one-step closure)"),
    "hierarchy-kuratowski": LawSpec("set", _flag_filter(KURATOWSKI, _hierarchy_fails), "open => alpha => semi,pre => b => beta (fixpoint closure)"),
    "classify-consistency": LawSpec("set", _classify_consistency, "classify flags match direct operator composition"),
    "decomposition-set-kuratowski": LawSpec("set", _flag_filter(KURATOWSKI, _decomposition_fails), "alpha = semi and pre under the fixpoint closure"),
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
    "rough-monotonicity": LawSpec("pair", _pair_law("rough-monotonicity"), "approximations are monotone"),
    "rough-upper-join": LawSpec("pair", _pair_law("rough-upper-join"), "upper approximation distributes over union"),
    "rough-lower-meet": LawSpec("pair", _pair_law("rough-lower-meet"), "lower approximation distributes over intersection"),
    "rough-accuracy": LawSpec("set", _rough_accuracy, "accuracy counts the lower and upper approximations; convention flagged on null upper"),
    "oracle-equivalence": LawSpec("set", _oracle_equivalence, "bitmask operators equal the literal oracles"),
}

#: classify-consistency re-derives all twelve flags through classify(), so
#: the suite checks it on every 7th set of a space only.
_SET_STRIDE = {"classify-consistency": 7}

#: Report rows: expected findings, never build-blocking, each keeping one
#: witness.  Alpha meets can fail under both closure kinds because the
#: interior stays one-step, and the one-step closure can break the per-set
#: alpha = semi+pre identity.  The alpha-meet rows come from the pair scan,
#: so they are scanned only with a pair law and reported only where it ran.
_ALPHA_MEETS = {"alpha-meet-cech": CECH, "alpha-meet-kuratowski": KURATOWSKI}
_REPORTS: dict[str, LawSpec] = {
    "alpha-meet-cech": LawSpec("pair", _pair_law("alpha-meet-cech"), "alpha-open sets meet in an alpha-open set (one-step closure)"),
    "alpha-meet-kuratowski": LawSpec("pair", _pair_law("alpha-meet-kuratowski"), "alpha-open sets meet in an alpha-open set (fixpoint closure)"),
    "decomposition-set-cech": LawSpec("set", _flag_filter(CECH, _decomposition_fails), "alpha = semi and pre under the one-step closure"),
}
REPORT_ROWS = tuple(_REPORTS)

#: Every row of the suite, law rows first; the suite keeps them all alike.
_ROWS = {**LAWS, **_REPORTS}


#: Hierarchy edges as set rows over the one-step flags: a set the filter keeps
#: is in the right class and not the left, a witness that the edge is strict.
_EDGES = {
    edge: LawSpec("set", _flag_filter(CECH, condition), f"{edge} is strict")
    for edge, condition in {
        "open=>alpha": lambda opn, alpha, semi, pre, b, beta: alpha and not opn,
        "alpha=>semi": lambda opn, alpha, semi, pre, b, beta: semi and not alpha,
        "alpha=>pre": lambda opn, alpha, semi, pre, b, beta: pre and not alpha,
        "semi|pre=>b": lambda opn, alpha, semi, pre, b, beta: b and not (semi or pre),
        "b=>beta": lambda opn, alpha, semi, pre, b, beta: beta and not b,
    }.items()
}
STRICTNESS_EDGES = tuple(_EDGES)


def replay_witness(w: Witness) -> bool:
    """Rebuild the witness space and re-evaluate its finding on that space's tables.

    ValueError when no row or edge of the witness's kind has its name, or
    when the witness holds other than that row's number of sets (0 for a
    space row, 1 for a set row or a strictness edge, 2 for a pair row).
    A set row or edge replays as its filter on the one set.
    """
    row = {"law": LAWS, "report": _REPORTS, "strictness": _EDGES}.get(w.kind, {}).get(w.name)
    if row is None:
        raise ValueError(f"cannot replay witness kind {w.kind!r} name {w.name!r}")
    want = ("space", "set", "pair").index(row.arity)
    if len(w.sets) != want:
        raise ValueError(f"cannot replay witness {w.name!r} with {len(w.sets)} sets, its row takes {want}")
    space = replay_space(w.space)
    ctx = space.context
    t = _Tables(space)
    gs = [_pack(SoftSet.from_slices(ctx, slices).masks, ctx.n_points) for slices in w.sets]
    if row.arity == "set":
        return bool(row.evaluator(t, gs))
    return not row.evaluator(t, *gs)


# -- suite engine ------------------------------------------------------------


class LawResult(_Frozen):
    """One row's count of checked instances and of failures, with its first witnesses as a tuple."""

    __slots__ = ("checked", "failures", "witnesses")

    def __init__(self, checked: int = 0, failures: int = 0, witnesses: Sequence[Witness] = ()):
        self._store(checked, failures, tuple(witnesses))


class SuiteResult(_Frozen):
    """Outcome of one law-suite run; serialises to a deterministic JSON report, built fresh per call.

    `laws`, `reports` (each report too) and `strictness` are read-only views of copies of the mappings given.
    """

    __slots__ = ("spec", "laws", "reports", "strictness", "spaces_checked", "sets_per_space_max")

    def __init__(self, spec, laws, reports, strictness, spaces_checked, sets_per_space_max):
        reports = {name: MappingProxyType(dict(report)) for name, report in reports.items()}
        laws, reports, strictness = (MappingProxyType(dict(m)) for m in (laws, reports, strictness))
        self._store(spec, laws, reports, strictness, spaces_checked, sets_per_space_max)

    def __reduce__(self):
        # copy and pickle rebuild the record from plain dicts: views do not pickle
        spec, laws, reports, strictness, *counts = self._values
        return type(self), (spec, dict(laws), {name: dict(r) for name, r in reports.items()}, dict(strictness), *counts)

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
            "reports": {name: dict(report) for name, report in self.reports.items()},
            "strictness": {edge: None if w is None else w.to_json_dict() for edge, w in self.strictness.items()},
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), indent=2, ensure_ascii=False) + "\n").encode()


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


class _Findings(dict):
    """The findings of checking one space, as the suite records them.

    `self[row]` holds a row's [count, first findings], the first findings in
    scan order as (rank suffix, packed sets) up to the row's limit in
    `limits`, a row not in `limits` being left out.  So a space is held in
    a few findings however many sets and pairs fail, and a repeat of it
    replays them under its own rank.
    """

    def __init__(self, limits: Mapping[str, int]):
        super().__init__()
        self.limits = limits

    def add(self, name: str, suffix: tuple[int, ...], gs: tuple[int, ...]) -> None:
        if name in self.limits:
            entry = self.setdefault(name, [0, []])
            entry[0] += 1
            if len(entry[1]) < self.limits[name]:
                entry[1].append((suffix, gs))


def run_law_suite(spec: SpaceFamilySpec, laws: Sequence[str] | None = None) -> SuiteResult:
    """Evaluate the law registry over the family and collect a deterministic report.

    Per space, the operator tables are filled by public operator calls; law
    checks are then comparisons of those library-produced values.  Shapes
    with n*m <= 12 check every soft set and every pair; larger shapes check
    256 seeded sets and no pairs.  Each set law's filter runs once per
    space, over its sets (every 7th for classify-consistency).  Pairs, and
    the set laws read off the tables alone, are decided on single-slice
    sets where that is exact and scanned where it is not (see
    _slice_decision), with the same counts and witnesses.  A rough pair row
    is hit by _pair_row under its own name, so selecting it scans no other
    law.  Sets and pairs are scanned in canonical order; a row keeps its
    first WITNESS_LIMIT findings in family order: canonical order in "all"
    mode, draw order in sampled mode.  A sampled family checks each
    distinct space of a shape with n*m <= 12 once, and a repeated draw
    adds its counts and replays its first findings (see _Findings) under
    its own rank, so the report is the one checking every draw gives.
    Report rows are kept like law rows, with one witness, and reported as
    their count and first witness; the alpha-meet rows are left out when
    no space ran the pair scan (no pair law selected, or no shape with
    n*m <= 12).  Reports are byte-reproducible.
    """
    if laws is not None:
        require_known_laws(laws)
    selected = set(LAWS if laws is None else laws)
    paired = any(LAWS[name].arity == "pair" for name in selected)
    rows = [
        name
        for name, row in _ROWS.items()
        if name in selected or name in _REPORTS and (paired or row.arity != "pair")
    ]
    checks = [(name, _ROWS[name]) for name in rows if _ROWS[name].arity != "pair"]
    pair_rows = [name for name in rows if _ROWS[name].arity == "pair"]
    limits = {name: 1 if name in _REPORTS else WITNESS_LIMIT for name in rows}
    # each row's counts and kept witnesses; its LawResult is built at the end
    checked = dict.fromkeys(rows, 0)
    failures = dict.fromkeys(rows, 0)
    witnesses: dict[str, list[Witness]] = {name: [] for name in rows}
    strictness: dict[str, Witness | None] = {e: None for e in STRICTNESS_EDGES}
    # unpacked sets of each enumerable context, shared by this run's spaces
    unpacked: dict = {}
    # sampled mode: each distinct enumerable space's set table and findings
    checked_spaces: dict[SoftAuraSpace, tuple] | None = {} if spec.scope_mode == "sampled" else None
    spaces_checked = 0
    sets_max = 0

    def check(space: SoftAuraSpace, rank3: tuple[int, ...]) -> tuple:
        """The set table, set count and _Findings of one space; the first strictness witnesses are recorded at once."""
        t = _Tables(space, unpacked)
        packed = range(t.full + 1) if t.exhaustive else _sampled_sets(space.context, spec.seed, rank3)
        size = len(packed)
        found = _Findings(limits)
        add = found.add
        # set laws that hold on every set per slice need no per-set scan,
        # and pair laws decided per slice no pair scan
        decided, counts = _slice_decision(t, rows)
        for name, law in checks:
            if law.arity == "space":
                if not law.evaluator(t):
                    add(name, (), ())
            elif name not in decided:
                stride = _SET_STRIDE.get(name, 1)
                for j in law.evaluator(t, packed[::stride]):
                    add(name, (j * stride,), (packed[j * stride],))

        # a repeat of the space cannot witness an edge its first draw did not
        for edge, row in _EDGES.items():
            if strictness[edge] is None:
                for i in row.evaluator(t, packed)[:1]:
                    strictness[edge] = _witness("strictness", edge, space, rank3 + (i,), (t.sets[packed[i]],))

        # pair laws need the full set lattice: every union and meet is a row;
        # the full scan runs only where the slice check cannot vouch for it
        if t.exhaustive and pair_rows:
            if counts is None:
                hit = lambda name, a, b: add(name, (a, b), (a, b))
                for g in packed:
                    _pair_row(t, g, range(g, size), hit)
            else:
                for name, pairs in counts.items():
                    if pairs:
                        firsts = []
                        # a report keeps one witness, so once it is taken no repeat needs one
                        if not witnesses[name]:
                            # exhaustive: a set's rank is its packed value
                            gs = _first_alpha_meet(t.rows[_ALPHA_MEETS[name]], size)
                            firsts.append((gs, gs))
                        found[name] = [pairs, firsts]
        return t.sets, size, found

    for rank3, space in iter_family_spaces(spec):
        spaces_checked += 1
        exhaustive = space.context.n_points * space.context.n_params <= EXHAUSTIVE_GUARD
        memoised = checked_spaces is not None and exhaustive
        entry = checked_spaces.get(space) if memoised else None
        if entry is None:
            entry = check(space, rank3)
            if memoised:
                checked_spaces[space] = entry
        sets, size, found = entry
        sets_max = max(sets_max, size)
        for name, law in checks:
            checked[name] += 1 if law.arity == "space" else len(range(0, size, _SET_STRIDE.get(name, 1)))
        if exhaustive:
            for name in pair_rows:
                checked[name] += size * (size + 1) // 2
        for row, (count, firsts) in found.items():
            failures[row] += count
            kept = witnesses[row]
            kind = "report" if row in _REPORTS else "law"
            for suffix, gs in firsts[: limits[row] - len(kept)]:
                kept.append(_witness(kind, row, space, rank3 + suffix, [sets[g] for g in gs]))

    reports = {
        name: {"found": failures[name], "first": witnesses[name][0].to_json_dict() if witnesses[name] else None}
        for name in rows
        if name in _REPORTS and checked[name]
    }
    results = {name: LawResult(checked[name], failures[name], witnesses[name]) for name in rows if name in selected}
    return SuiteResult(spec, results, reports, strictness, spaces_checked, sets_max)


# -- mapping decomposition scan ----------------------------------------------


class MappingScanResult(_Frozen):
    """Outcome of the exhaustive mapping decomposition scan over one closure kind pair."""

    __slots__ = (
        "mappings_checked", "kuratowski_failures", "kuratowski_first_failure",
        "cech_mismatches", "cech_first_mismatch",
    )


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
            per_point = _scope_choices(ctx, topo)
            total = math.prod(map(len, per_point))
            ranks = range(total) if total <= per_shape else sorted(
                {round(j * (total - 1) / (per_shape - 1)) for j in range(per_shape)}
            )
            for rank in ranks:
                # the rank-th product in enumerate_scope_functions order, last point fastest
                picked = []
                for choices in reversed(per_point):
                    rank, i = divmod(rank, len(choices))
                    picked.append(choices[i])
                spaces.append(SoftAuraSpace(ctx, topo, ScopeFunction(ctx, tuple(reversed(picked)))))
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
        "source": encode_space(DecodedSpace(src, {}, {})),
        "target": encode_space(DecodedSpace(tgt, {}, {})),
        "pointMap": point_map,
        "paramMap": param_map,
    }


def _continuity_bits(space: SoftAuraSpace, g: SoftSet) -> int:
    """Flag bits of g: alpha, semi, pre under the one-step closure, then under the fixpoint closure."""
    pc, pk = classify(space, g, CECH), classify(space, g, KURATOWSKI)
    flags = (pc.alpha_open, pc.semi_open, pc.pre_open, pk.alpha_open, pk.semi_open, pk.pre_open)
    return sum(flag << j for j, flag in enumerate(flags))


def _pull_back_column(row: tuple[int, ...], maps: list, spread: list[int]) -> list[int]:
    """Per target slice mask v, the flags of row[u^-1(v)] over the point maps u of `maps`.

    Flag j of the r-th map u sits at bit j*len(maps) + r: spread[w] puts bit
    j of the flag word w at bit j*len(maps).
    """
    col = [0] * len(maps[0][1])
    for r, (_, pre, _) in enumerate(maps):
        for v, s in enumerate(pre):
            col[v] |= spread[row[s]] << r
    return col


def decomposition_mapping_scan(per_shape: int = 10, cross_check_every: int = 64) -> MappingScanResult:
    """Check mapping-level decomposition over an exhaustive family of mappings.

    Spaces come from a deterministic subfamily per shape (|X| <= 3, |E| <= 2,
    discrete); between every source/target pair, ALL point maps and ALL
    parameter maps are enumerated.  For each mapping the alpha/semi/pre
    continuity flags are computed under both closure kinds; the
    fixpoint-kind equivalence (alpha iff semi and pre) must hold for every
    mapping, while one-step-kind mismatches are counted and reported.

    Every openness class is decided slice by slice, holds the null set and
    is closed under unions, and every open target slice at a parameter is
    a union of the reach sets R_k(y) there.  So (u, p) is in a class iff,
    for each source parameter e and V the null slice or a reach set at
    p(e), the set with u^-1(V) at e and null elsewhere is: only those sets
    are classified (public classify()).  One column table per (|X|, |Y|,
    source row) holds, for each target slice mask V, six bitsets over the
    point maps u: which flags hold on the pull-back u^-1(V)
    (_pull_back_column).  A target basis family's survivors are the AND of
    its slices' columns; per parameter map p they are ANDed across the
    source parameters, and the failures of every u are counted at once.
    Before any classification, CapExceeded (family "mappings") is raised
    when the selected pairs hold more than DEFAULT_CAP mappings.

    Preimages come from one slice table per (|X|, |Y|, u).  Counting
    (mapping, target aura-open set) pairs in scan order, every
    `cross_check_every`-th set's preimage is assembled from the table by p
    and compared with the public inverse_image(), through one SoftMapping
    per mapping that has such a set.  ValueError for `per_shape` < 2 or
    `cross_check_every` < 1.
    """
    from .mapping import SoftMapping, _target_basis, inverse_image

    if per_shape < 2 or cross_check_every < 1:
        raise ValueError(f"need per_shape >= 2 and cross_check_every >= 1, got {per_shape}, {cross_check_every}")
    spaces = _family_space_selection(per_shape)
    shapes = Counter((sp.context.n_points, sp.context.n_params) for sp in spaces)
    total = sum(
        a * b * ny**nx * nk**ne for (nx, ne), a in shapes.items() for (ny, nk), b in shapes.items()
    )
    if total > DEFAULT_CAP:
        raise CapExceeded(total, DEFAULT_CAP, "mappings")
    # rows[ei][s]: flag bits of the source set with slice s at ei, null elsewhere
    source_rows = [
        [
            tuple(_continuity_bits(sp, _unpack(sp.context, s << (ei * sp.context.n_points)))
                  for s in range(1 << sp.context.n_points))
            for ei in range(sp.context.n_params)
        ]
        for sp in spaces
    ]
    # tau only feeds the preimage cross-check
    taus = [enumerate_aura_topology(sp) for sp in spaces]
    bases = [_target_basis(sp, DEFAULT_CAP, TARGET_AURA) for sp in spaces]
    # (|X|, |Y|) -> every point map u in scan order, with its slice preimage
    # table and its point map, and the spread table of that many maps;
    # (|E|, |K|) -> every parameter map p in scan order, and their parameter
    # maps (family contexts name by shape alone); (|Y|, row) -> its column,
    # the row's length fixing |X|
    point_maps: dict[tuple[int, int], tuple[list, list[int]]] = {}
    param_tables: dict[tuple[int, int], tuple[list, list]] = {}
    columns: dict[tuple, list[int]] = {}
    checked = evals = 0
    # per kind, fixpoint then one-step: failing mappings and the first one's description
    failures = [0, 0]
    firsts: list[dict | None] = [None, None]

    for src, rows in zip(spaces, source_rows):
        nx, ne = src.context.n_points, src.context.n_params
        for tgt, tau, basis in zip(spaces, taus, bases):
            ny, nk = tgt.context.n_points, tgt.context.n_params
            if (nx, ny) not in point_maps:
                us = list(itertools.product(range(ny), repeat=nx))
                point_maps[nx, ny] = [
                    (
                        u,
                        [sum(1 << xi for xi, y in enumerate(u) if s >> y & 1) for s in range(1 << ny)],
                        {x: tgt.context.universe[y] for x, y in zip(src.context.universe, u)},
                    )
                    for u in us
                ], [sum(1 << (j * len(us)) for j in range(6) if w >> j & 1) for w in range(64)]
            maps, spread = point_maps[nx, ny]
            per_param = []
            for row in rows:
                if (ny, row) not in columns:
                    columns[ny, row] = _pull_back_column(row, maps, spread)
                col = columns[ny, row]
                per_param.append([reduce(and_, [col[v] for v in fam]) for fam in basis])
            size = len(maps)
            low = (1 << size) - 1
            fixpoint = 3 * size
            either = low | low << fixpoint
            if (ne, nk) not in param_tables:
                ps = list(itertools.product(range(nk), repeat=ne))
                param_tables[ne, nk] = ps, [
                    {e: tgt.context.parameters[k] for e, k in zip(src.context.parameters, p)} for p in ps
                ]
            param_maps, param_names = param_tables[ne, nk]
            checked += size * len(param_maps)
            # per kind, the lowest (rank of u, p) failing in this pair
            lowest: list[tuple | None] = [None, None]
            for p in param_maps:
                bits = reduce(and_, map(getitem, per_param, p))
                # flags 0-2 one-step alpha, semi, pre; 3-5 the same under the
                # fixpoint closure: alpha ^ (semi & pre) at bit 0 up and 3*size up
                fails_both = bits ^ ((bits >> size) & (bits >> (2 * size)))
                if not fails_both & either:
                    continue
                for kind, fails in enumerate((fails_both >> fixpoint & low, fails_both & low)):
                    if fails:
                        failures[kind] += fails.bit_count()
                        rank = (fails & -fails).bit_length() - 1
                        if lowest[kind] is None or rank < lowest[kind][0]:
                            lowest[kind] = (rank, p)
            for kind, at in enumerate(lowest):
                if firsts[kind] is None and at is not None:
                    firsts[kind] = _mapping_desc(src, tgt, maps[at[0]][0], at[1])

            # cross-check the sets at global index -1 (mod cross_check_every),
            # mapping q of this pair holding indices [start + q*T, start + (q+1)*T)
            width = len(tau)
            start, evals = evals, evals + size * len(param_maps) * width
            built = None
            for idx in range(start + (-start - 1) % cross_check_every, evals, cross_check_every):
                q, vi = divmod(idx - start, width)
                if q != built:
                    built = q
                    r, j = divmod(q, len(param_maps))
                    (_, pre, point_names), p = maps[r], param_maps[j]
                    mapping = SoftMapping(src, tgt, point_names, param_names[j])
                v = tau[vi]
                if inverse_image(mapping, v).masks != tuple([pre[v.masks[k]] for k in p]):
                    raise AssertionError("preimage table disagrees with inverse_image")
    return MappingScanResult(checked, failures[0], firsts[0], failures[1], firsts[1])
