"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines; without -s the
criteria still run as ordinary assertions.  Criteria 4, 5, 6 and 8 share one
exhaustive law-suite run over every space with at most three points and two
parameters (4096 scope functions and 64 soft sets at the largest shape);
criterion 10 pins that run's bytes and repeats cheaper sampled runs.

All expected values are exact.  No tolerances are applied anywhere: soft sets
are integer bitmasks and accuracy values are rational, so equality is the
only correct comparison.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time

import pytest

from softaura import (
    STRICTNESS_EDGES,
    Context,
    SoftAuraSpace,
    SoftSet,
    SpaceFamilySpec,
    aura_closure,
    aura_interior,
    decomposition_mapping_scan,
    discrete_topology,
    iter_family_spaces,
    kuratowski_closure,
    make_soft_set,
    make_space,
    oracle_closure,
    oracle_interior,
    pawlak_equivalence_check,
    replay_witness,
    run_law_suite,
    validate_scope,
)
from softaura.cli import main

from conftest import fixture_path, named_context

RANDOM_SEED = 20260815

#: sha256 of the exhaustive 3x2 report bytes (9,990 bytes), measured on Python 3.11.
EXHAUSTIVE_REPORT_SHA256 = "1c0d926fade601caa43f09d725724028f4ae39a4b9e94fa52ee43c02c724cd91"

EXPECTED_APPROX_TABLE = (
    "          e1      e2  e3      e4\n"
    "target    s3, s5  s2  s1, s4  s4, s5\n"
    "lower     s3      -   -       s4\n"
    "upper     s3, s5  s2  s1, s4  s3, s4, s5\n"
    "boundary  s5      s2  s1, s4  s3, s5\n"
    "accuracy: 2/8 = 0.25\n"
    "per-parameter (lower/upper): e1 1/2, e2 0/1, e3 0/2, e4 1/3\n"
)

# Laws pinned by criterion 4: closure/interior axioms, duality, the openness
# hierarchy under both closure kinds, union closure of the generalized
# classes, both T1 characterizations, and the seven rough-approximation
# clauses.
CRITERION_4_LAWS = (
    "closure-grounding",
    "closure-enlargement",
    "closure-monotonicity",
    "closure-additivity",
    "interior-absolute",
    "interior-contraction",
    "interior-monotonicity",
    "interior-meet",
    "duality",
    "hierarchy-cech",
    "hierarchy-kuratowski",
    "union-closure-semi",
    "union-closure-pre",
    "union-closure-beta",
    "t1-iff-t2",
    "t1-iff-singleton-scopes",
    "rough-delegation",
    "rough-sandwich",
    "rough-fixed-points",
    "rough-monotonicity",
    "rough-upper-join",
    "rough-lower-meet",
    "rough-duality",
    "rough-accuracy",
)

# First witness per hierarchy edge in canonical family order at shape (3, 2):
# (|X|, |E|, scope rank, set rank).
EXPECTED_STRICTNESS_RANKS = {
    "open=>alpha": (3, 1, 7, 5),
    "alpha=>semi": (3, 1, 3, 5),
    "alpha=>pre": (2, 1, 3, 1),
    "semi|pre=>b": (3, 2, 30, 45),
    "b=>beta": (3, 1, 11, 4),
}


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue(), time.perf_counter() - start


@pytest.fixture(scope="module")
def exhaustive_suite():
    start = time.perf_counter()
    result = run_law_suite(SpaceFamilySpec(3, 2))
    return result, time.perf_counter() - start


def _random_space(rng: random.Random, max_points: int, max_params: int):
    n = rng.randint(1, max_points)
    m = rng.randint(1, max_params)
    ctx = named_context(n, m)
    full = ctx.full_mask
    topo = discrete_topology(ctx)
    assignment = {
        x: SoftSet(ctx, tuple(rng.randrange(full + 1) | (1 << i) for _ in range(m)))
        for i, x in enumerate(ctx.universe)
    }
    space = SoftAuraSpace(ctx, topo, validate_scope(ctx, topo, assignment))
    g = SoftSet(ctx, tuple(rng.randrange(full + 1) for _ in range(m)))
    return space, g


def test_criterion_01_monitoring_approximations():
    rc, out, elapsed = _run_cli(
        ["approx", fixture_path("monitoring.json"), "--target", "G"]
    )
    ok = rc == 0 and out == EXPECTED_APPROX_TABLE and elapsed < 1.0
    _report(
        1,
        ok,
        f"monitoring fixture approximations byte-exact, accuracy 2/8 = 0.25, "
        f"{elapsed:.3f}s",
    )


def test_criterion_02_three_point_fixture_validates():
    rc, out, elapsed = _run_cli(["validate", fixture_path("three_point_space.json")])
    ok = rc == 0 and out.startswith("valid\n") and elapsed < 1.0
    _report(2, ok, f"three-point fixture validates (rc=0), {elapsed:.3f}s")


def test_criterion_03_two_point_separation():
    rc, out, elapsed = _run_cli(
        ["axioms", fixture_path("two_point_space.json"), "--format", "json"]
    )
    doc = json.loads(out) if rc == 0 else {}
    ok = (
        rc == 0
        and doc.get("t0", {}).get("holds") is True
        and doc.get("t1", {}).get("holds") is False
        and doc.get("t2", {}).get("holds") is False
        and doc.get("t1", {}).get("witness", {}).get("parameter") == "e2"
        and elapsed < 1.0
    )
    _report(
        3,
        ok,
        f"two-point fixture: T0 holds, T1/T2 fail with witness at e2, "
        f"{elapsed:.3f}s",
    )


def test_criterion_04_exhaustive_law_suite(exhaustive_suite):
    result, elapsed = exhaustive_suite
    rows = {name: result.laws[name] for name in CRITERION_4_LAWS}
    failures = sum(row.failures for row in rows.values())
    unchecked = [name for name, row in rows.items() if row.checked == 0]
    ok = (
        failures == 0
        and not unchecked
        and result.spaces_checked == 4182
        and result.sets_per_space_max == 64
        and result.laws["hierarchy-cech"].checked >= 4096 * 64
        and elapsed < 300.0
    )
    _report(
        4,
        ok,
        f"exhaustive family: {result.spaces_checked} spaces, "
        f"{result.laws['hierarchy-cech'].checked} per-set instances, "
        f"{failures} falsifications, {elapsed:.1f}s",
    )


def test_criterion_05_oracle_equivalence(exhaustive_suite):
    result, _ = exhaustive_suite
    row = result.laws["oracle-equivalence"]
    rng = random.Random(RANDOM_SEED)
    mismatches = 0
    draws = 10_000
    for _ in range(draws):
        space, g = _random_space(rng, max_points=8, max_params=4)
        if aura_closure(space, g) != oracle_closure(space, g):
            mismatches += 1
        if aura_interior(space, g) != oracle_interior(space, g):
            mismatches += 1
    ok = row.failures == 0 and row.checked > 0 and mismatches == 0
    _report(
        5,
        ok,
        f"closure/interior match the definitional oracle on {row.checked} "
        f"exhaustive and {draws} random instances "
        f"({row.failures + mismatches} mismatches)",
    )


def test_criterion_06_kuratowski_fixpoint(exhaustive_suite):
    result, _ = exhaustive_suite
    rows = ("kuratowski-fixpoint", "kuratowski-additivity", "tau-infinity-in-tau")
    failures = sum(result.laws[name].failures for name in rows)
    checked = min(result.laws[name].checked for name in rows)

    chain = make_space(
        ["1", "2", "3"],
        ["e"],
        {"1": {"e": ["1", "2"]}, "2": {"e": ["2", "3"]}, "3": {"e": ["3"]}},
    )
    g = make_soft_set(chain.context, {"e": ["3"]})
    fix = kuratowski_closure(chain, g)
    one = aura_closure(chain, g)
    strict_growth = (
        fix.iterations == {"e": 2}
        and one != fix.closure
        and one.is_subset_of(fix.closure)
        and kuratowski_closure(chain, fix.closure).closure == fix.closure
    )
    ok = failures == 0 and checked > 0 and strict_growth
    _report(
        6,
        ok,
        f"fixpoint closure idempotent within point-count iterations on "
        f"{checked} instances; chain example grows strictly for 2 steps",
    )


def test_criterion_07_mapping_decomposition_scan():
    start = time.perf_counter()
    scan = decomposition_mapping_scan()
    elapsed = time.perf_counter() - start
    ok = (
        scan.mappings_checked == 35290
        and scan.kuratowski_failures == 0
        and scan.kuratowski_first_failure is None
        and scan.cech_mismatches == 656
        and scan.cech_first_mismatch is not None
    )
    _report(
        7,
        ok,
        f"{scan.mappings_checked} mappings: fixpoint-kind decomposition holds "
        f"everywhere ({scan.kuratowski_failures} failures); one-step kind "
        f"reports {scan.cech_mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_08_strictness_witnesses(exhaustive_suite):
    result, _ = exhaustive_suite
    problems = []
    for edge in STRICTNESS_EDGES:
        witness = result.strictness.get(edge)
        if witness is None:
            problems.append(f"{edge}: no witness")
        elif witness.rank != EXPECTED_STRICTNESS_RANKS[edge]:
            problems.append(f"{edge}: rank {witness.rank}")
        elif not replay_witness(witness):
            problems.append(f"{edge}: replay failed")
    detail = (
        "all five hierarchy edges have replaying strictness witnesses at the "
        "pinned ranks"
    )
    if problems:
        detail = "; ".join(problems)
    _report(8, not problems, detail)


def test_criterion_09_partition_equivalence():
    rng = random.Random(RANDOM_SEED + 9)
    draws = 1_000
    agreed = 0
    for _ in range(draws):
        n = rng.randint(1, 6)
        m = rng.randint(1, 3)
        ctx = named_context(n, m)
        n_labels = rng.randint(1, n)
        labels = [rng.randrange(n_labels) for _ in range(n)]
        blocks = [
            [x for x, lab in zip(ctx.universe, labels) if lab == k]
            for k in range(n_labels)
        ]
        blocks = [b for b in blocks if b]
        target = [x for x in ctx.universe if rng.random() < 0.5]
        agreed += pawlak_equivalence_check(ctx, blocks, target)
    ok = agreed == draws
    _report(
        9,
        ok,
        f"block-scope approximations equal classical partition approximations "
        f"on {agreed}/{draws} random (partition, target) pairs",
    )


def test_criterion_10_deterministic_reports(exhaustive_suite):
    # the exhaustive bytes are compared with a digest recorded by an earlier
    # process; the in-process repeats run on cheaper families, one with
    # alpha-meet findings and one with shapes too big for eager tables
    first, _ = exhaustive_suite
    first_bytes = first.to_json_bytes()
    ok = hashlib.sha256(first_bytes).hexdigest() == EXHAUSTIVE_REPORT_SHA256
    with_meets = SpaceFamilySpec(3, 2, scope_mode="sampled", seed=6, sample_count=20)
    lazy = SpaceFamilySpec(4, 4, scope_mode="sampled", seed=11, sample_count=4)
    runs = {spec: run_law_suite(spec) for spec in (with_meets, lazy)}
    ok = (
        ok
        and all(run_law_suite(spec).to_json_bytes() == run.to_json_bytes() for spec, run in runs.items())
        and runs[with_meets].reports["alpha-meet-kuratowski"]["found"] > 0
        and any(n * m > 12 for (n, m, _), _ in iter_family_spaces(lazy))
    )
    _report(
        10,
        ok,
        f"exhaustive report matches its recorded digest ({len(first_bytes)} bytes); "
        f"repeated sampled runs serialise to byte-identical reports",
    )


def test_exhaustive_report_digest_pinned(exhaustive_suite):
    result, _ = exhaustive_suite
    data = result.to_json_bytes()
    assert hashlib.sha256(data).hexdigest() == EXHAUSTIVE_REPORT_SHA256, len(data)
