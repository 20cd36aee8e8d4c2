"""Correctness checks for every benchmark operation.

Expected values come from the literal oracles `oracle_closure` and
`oracle_interior` (name-set scans that share no code with the bitmask
operators), with the fixpoint closure computed as iterated
`oracle_closure`.  Each checker returns True when a result is correct; a
False answer is counted as a failed operation.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from softaura import (
    CECH,
    KURATOWSKI,
    LAWS,
    OpennessProfile,
    SoftSet,
    iter_all_soft_sets,
    oracle_closure,
    oracle_interior,
    t1_via_singleton_scopes,
)

#: Pinned results of `decomposition_mapping_scan()` at its defaults.
SCAN_MAPPINGS = 35_290
SCAN_CECH_MISMATCHES = 656


class Oracle:
    """Memoised oracle operators for one space, keyed by slice masks."""

    def __init__(self, space):
        self.space = space
        self._cl: dict = {}
        self._int: dict = {}
        self._fix: dict = {}

    def closure(self, g: SoftSet) -> SoftSet:
        if g.masks not in self._cl:
            self._cl[g.masks] = oracle_closure(self.space, g)
        return self._cl[g.masks]

    def interior(self, g: SoftSet) -> SoftSet:
        if g.masks not in self._int:
            self._int[g.masks] = oracle_interior(self.space, g)
        return self._int[g.masks]

    def fixpoint(self, g: SoftSet) -> SoftSet:
        if g.masks not in self._fix:
            cur = g
            while (nxt := self.closure(cur)) != cur:
                cur = nxt
            self._fix[g.masks] = cur
        return self._fix[g.masks]

    def flags(self, g: SoftSet, kind: str) -> OpennessProfile:
        """The six openness flags, straight from their defining containments."""
        cl = self.closure if kind == CECH else self.fixpoint
        it = self.interior
        ig = it(g)
        cl_ig = cl(ig)
        i_cl_g = it(cl(g))
        return OpennessProfile(
            a_open=ig == g,
            alpha_open=g.is_subset_of(it(cl_ig)),
            semi_open=g.is_subset_of(cl_ig),
            pre_open=g.is_subset_of(i_cl_g),
            b_open=g.is_subset_of(cl_ig | i_cl_g),
            beta_open=g.is_subset_of(cl(i_cl_g)),
            closure_kind=kind,
        )

    def approx(self, g: SoftSet) -> dict:
        low, up = self.interior(g), self.closure(g)
        lower_total = sum(m.bit_count() for m in low.masks)
        upper_total = sum(m.bit_count() for m in up.masks)
        return {
            "lower": low,
            "upper": up,
            "boundary": SoftSet(g.context, tuple(u & ~l for u, l in zip(up.masks, low.masks))),
            "numerator": lower_total,
            "denominator": upper_total,
            "value": Fraction(lower_total, upper_total) if upper_total else Fraction(1),
        }

    def is_open(self, g: SoftSet) -> bool:
        return self.interior(g) == g

    def t0(self) -> bool:
        """Some parameter excludes one point of every pair from the other's scope."""
        ctx = self.space.context
        scope = {x: {e: set(self.space.scope.of(x).points(e)) for e in ctx.parameters} for x in ctx.universe}
        return all(
            any(y not in scope[x][e] or x not in scope[y][e] for e in ctx.parameters)
            for x, y in itertools.combinations(ctx.universe, 2)
        )


# -- library results -----------------------------------------------------------


def approx_report_ok(report, want: dict) -> bool:
    acc = report.accuracy
    return (
        report.lower == want["lower"]
        and report.upper == want["upper"]
        and report.boundary == want["boundary"]
        and acc.lower_total == want["numerator"]
        and acc.upper_total == want["denominator"]
        and acc.value == want["value"]
    )


def separation_ok(report, oracle: Oracle) -> bool:
    """T1 == T2 == singleton scopes, T0 by definition, T3 = T1 and regular, and
    a regularity witness (when one is given) is a closed set avoiding its point."""
    space = oracle.space
    if not (report.t1 == report.t2 == t1_via_singleton_scopes(space)):
        return False
    if report.t0 != oracle.t0() or report.t3 != (report.t1 and report.regular):
        return False
    if report.regular:
        return "regular" not in report.witnesses
    w = report.witnesses.get("regular")
    return w is not None and regularity_witness_ok(oracle, w.point, w.param, w.closed_set)


def regularity_witness_ok(oracle: Oracle, point: str, param: str, closed: SoftSet) -> bool:
    return oracle.is_open(closed.complement()) and point not in closed.points(param)


def continuity_pair_ok(kind: str, by_family: dict) -> bool:
    """One closure kind: the aura and kuratowski target families give one profile,
    and under the fixpoint closure alpha == (semi and pre)."""
    aura, kur = by_family["aura"], by_family["kuratowski"]
    if aura != kur or aura.closure_kind != kind:
        return False
    if kind == KURATOWSKI:
        return aura.alpha_continuous == (aura.semi_continuous and aura.pre_continuous)
    return True


def suite_ok(result, spaces: int) -> bool:
    return (
        result.total_failures == 0
        and result.spaces_checked == spaces
        and set(result.laws) == set(LAWS)
        and all(r.checked > 0 for r in result.laws.values())
    )


def scan_ok(scan) -> bool:
    return (
        scan.mappings_checked == SCAN_MAPPINGS
        and scan.kuratowski_failures == 0
        and scan.cech_mismatches == SCAN_CECH_MISMATCHES
    )


# -- oracle continuity for tiny mappings ---------------------------------------


def oracle_continuity(mapping, kind: str, family: str) -> dict:
    """Brute-force continuity flags: every target soft set, opened by the oracles.

    Exponential in |Y|*|K|; meant for fixture-sized mappings only.
    """
    src, tgt = Oracle(mapping.source), Oracle(mapping.target)
    sctx = mapping.source.context
    flags = dict(continuous=True, alpha=True, semi=True, pre=True, beta=True)
    for v in iter_all_soft_sets(mapping.target.context):
        if family == "aura" and not tgt.is_open(v):
            continue
        if family == "kuratowski" and tgt.fixpoint(v.complement()) != v.complement():
            continue
        if family == "ambient" and not mapping.target.topology.contains(v):
            continue
        pre_image = SoftSet.from_slices(
            sctx,
            {
                e: [x for x in sctx.universe if mapping.point_map[x] in v.points(mapping.param_map[e])]
                for e in sctx.parameters
            },
        )
        p = src.flags(pre_image, kind)
        flags["continuous"] &= p.a_open
        flags["alpha"] &= p.alpha_open
        flags["semi"] &= p.semi_open
        flags["pre"] &= p.pre_open
        flags["beta"] &= p.beta_open
    return flags


# -- CLI JSON --------------------------------------------------------------------


def slices_json(s: SoftSet) -> dict:
    return {e: list(pts) for e, pts in s.as_dict().items()}


def cli_expectation(sub: str, decoded=None, target=None, kind=None, mapping=None, family=None) -> dict:
    """What the parent knows ahead of a request; `cli_ok` compares the reply with it."""
    if sub == "validate":
        space = decoded.space
        topo = space.topology
        return {
            "valid": True,
            "universe": list(space.context.universe),
            "parameters": list(space.context.parameters),
            "topology": {"kind": topo.kind, "members": len(topo) if topo.is_extensional else None},
            "namedSets": sorted(decoded.named_sets),
        }
    if sub == "approx":
        want = Oracle(decoded.space).approx(target)
        return {
            "lower": slices_json(want["lower"]),
            "upper": slices_json(want["upper"]),
            "boundary": slices_json(want["boundary"]),
            "numerator": want["numerator"],
            "denominator": want["denominator"],
        }
    if sub == "classify":
        p = Oracle(decoded.space).flags(target, kind)
        return {
            "closureKind": kind,
            "open": p.a_open,
            "alpha": p.alpha_open,
            "semi": p.semi_open,
            "pre": p.pre_open,
            "b": p.b_open,
            "beta": p.beta_open,
        }
    if sub == "axioms":
        return {"oracle": Oracle(decoded.space)}
    if sub == "continuity":
        want = {"closureKind": kind, "targetFamily": family}
        want.update(oracle_continuity(mapping, kind, family))
        return want
    if sub == "suite":
        return {}
    raise ValueError(f"unknown subcommand {sub!r}")


def cli_ok(sub: str, payload: dict, want: dict) -> bool:
    if sub in ("validate", "classify", "continuity"):
        if sub == "continuity" and want["closureKind"] == KURATOWSKI:
            if payload["alpha"] != (payload["semi"] and payload["pre"]):
                return False
        return payload == want
    if sub == "approx":
        acc = payload["accuracy"]
        return (
            payload["lower"] == want["lower"]
            and payload["upper"] == want["upper"]
            and payload["boundary"] == want["boundary"]
            and acc["numerator"] == want["numerator"]
            and acc["denominator"] == want["denominator"]
        )
    if sub == "axioms":
        oracle = want["oracle"]
        space = oracle.space
        t1, t2, reg = payload["t1"]["holds"], payload["t2"]["holds"], payload["regular"]["holds"]
        if not (t1 == t2 == t1_via_singleton_scopes(space)):
            return False
        if payload["t0"]["holds"] != oracle.t0() or payload["t3"]["holds"] != (t1 and reg):
            return False
        w = payload["regular"]["witness"]
        if reg:
            return w is None
        closed = SoftSet.from_slices(space.context, w["closedSet"])
        return regularity_witness_ok(oracle, w["point"], w["parameter"], closed)
    if sub == "suite":
        laws = payload["laws"]
        return set(laws) == set(LAWS) and all(
            r["failures"] == 0 and r["checked"] > 0 for r in laws.values()
        )
    raise ValueError(f"unknown subcommand {sub!r}")
