"""The four benchmark workloads: seeded inputs and checked operations.

Every workload is a closed loop with one client.  `build(workload, seed)`
makes the inputs through the public API (this is what `setup_s` times,
together with the import of `softaura`); `cli_ops`, `law_suite_ops`,
`space_query_ops` and `decider_ops` turn them into a fixed list of `Op`s,
each a call into one layer plus the check of its result.  Expected values
are computed once, ahead of the timed loop, by the oracles in `checks.py`.

Scope shapes with a fixed structure and seeded labels (chain, pairs,
singleton) keep the cost of a workload nearly the same from seed to seed,
so runs with different seeds can be compared.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from softaura import (
    CECH,
    KURATOWSKI,
    DecodedSpace,
    SoftMapping,
    SpaceFamilySpec,
    approximation_report,
    aura_closure,
    aura_interior,
    classify,
    continuity_profile,
    decomposition_mapping_scan,
    encode_space,
    identity_mapping,
    iter_family_spaces,
    kuratowski_closure,
    load_mapping,
    load_space,
    make_soft_set,
    make_space,
    resolve_target_set,
    run_law_suite,
    separation_report,
    verify_decomposition,
)

import checks

#: Kernel size sweep (space-queries) and decider size sweep (deciders).
QUERY_SIZES = (8, 16, 32, 64)
QUERY_PARAMS = 4
QUERY_SHAPES = ("chain", "sparse", "dense")
TARGETS_PER_SPACE = 4
SEPARATION_SIZES = (4, 5, 6, 7)
SEPARATION_PARAMS = 2
SEPARATION_SHAPES = ("singleton", "pairs", "dense")

#: law-suite: one cycle is SUITE_CHUNKS sampled suites of SUITE_CHUNK spaces
#: over the 3x2 bounds, then one mapping scan at its defaults.  Chunks of 20
#: spaces cost about the same, which keeps the latency percentiles steady,
#: and the scan, one call in 21, stays above the 90th percentile.
SUITE_CHUNKS = 20
SUITE_CHUNK = 20

FIXTURES = "tests/fixtures"
FIXTURE_MAPPING = "chain_endo_mapping.json"
#: Every fixture space, with the target set approx and classify use on it.
FIXTURE_TARGETS = (
    ("two_point_space.json", '{"e1": ["x1"], "e2": []}'),
    ("three_point_space.json", "F1"),
    ("monitoring.json", "G"),
    ("chain_space.json", "upper"),
    ("cyclic_space.json", "A"),
)
GENERATED_DOCS = 4


def rng_for(seed: int, *parts) -> random.Random:
    """A generator fixed by the run seed and a purpose; string seeding is stable across processes."""
    return random.Random("-".join(str(p) for p in (seed,) + parts))


@dataclass
class Op:
    """One checked call into a layer; `call` takes the cycle index."""

    layer: str
    label: str
    call: Callable[[int], object]
    check: Callable[[object], bool]


# -- spaces ----------------------------------------------------------------------


def scope_table(n: int, m: int, shape: str, rng: random.Random):
    """Universe, parameters, scope table and, per parameter, the chain order.

    chain: x -> {x, successor} along a random order, so the fixpoint
    closure of a point near the top takes about n steps; sparse: x plus two
    random points; dense: x plus three quarters of the points; singleton:
    {x}; pairs: the blocks of a random pairing (a partition, so every
    space is regular and separation scans everything).
    """
    universe = [f"x{i}" for i in range(n)]
    params = [f"e{j}" for j in range(m)]
    scope = {x: {} for x in universe}
    orders = {}
    for e in params:
        order = universe[:]
        rng.shuffle(order)
        orders[e] = order
        for i, x in enumerate(order):
            if shape == "chain":
                scope[x][e] = order[i:i + 2]
            elif shape == "pairs":
                scope[x][e] = order[i - i % 2:i - i % 2 + 2]
            elif shape == "singleton":
                scope[x][e] = [x]
            elif shape == "sparse":
                scope[x][e] = [x] + rng.sample(universe, 2)
            elif shape == "dense":
                scope[x][e] = [x] + rng.sample(universe, 3 * n // 4)
            else:
                raise ValueError(f"unknown scope shape {shape!r}")
    return universe, params, scope, orders


def target_slices(universe, params, shape, orders, t: int, rng: random.Random) -> dict:
    """Target t: on a chain one point near the top, else a random quarter of the points."""
    n = len(universe)
    if shape == "chain":
        return {e: [orders[e][n - 1 - t]] for e in params}
    return {e: rng.sample(universe, max(1, n // 4)) for e in params}


@dataclass
class PoolSpace:
    n: int
    shape: str
    table: tuple  # (universe, params, scope) as given to make_space
    space: object
    targets: list  # (slices, SoftSet)


def _pool_space(n, m, shape, rng, targets: int) -> PoolSpace:
    universe, params, scope, orders = scope_table(n, m, shape, rng)
    space = make_space(universe, params, scope)
    made = []
    for t in range(targets):
        slices = target_slices(universe, params, shape, orders, t, rng)
        made.append((slices, make_soft_set(space.context, slices)))
    return PoolSpace(n, shape, (universe, params, scope), space, made)


# -- inputs (timed by setup_s together with the import) --------------------------


def build(workload: str, seed: int):
    if workload == "cli":
        return build_cli(seed)
    if workload == "law-suite":
        return build_law_suite(seed)
    if workload == "space-queries":
        return build_space_queries(seed)
    if workload == "deciders":
        return build_deciders(seed)
    raise ValueError(f"unknown workload {workload!r}")


def build_cli(seed: int) -> list[tuple[str, dict]]:
    """Generated space documents: 8-16 points, 2-4 parameters, one named target T."""
    rng = rng_for(seed, "cli")
    docs = []
    for i in range(GENERATED_DOCS):
        n, m = rng.randint(8, 16), rng.randint(2, 4)
        universe, params, scope, orders = scope_table(n, m, "sparse", rng)
        space = make_space(universe, params, scope)
        target = make_soft_set(space.context, target_slices(universe, params, "sparse", orders, 0, rng))
        doc = encode_space(DecodedSpace(space, {"T": target}, {x: None for x in universe}))
        docs.append((f"generated_{i}.json", doc))
    return docs


def suite_spec(seed: int, cycle: int, chunk: int) -> SpaceFamilySpec:
    return SpaceFamilySpec(
        3,
        2,
        scope_mode="sampled",
        seed=rng_for(seed, "suite", cycle, chunk).getrandbits(63),
        sample_count=SUITE_CHUNK,
    )


def build_law_suite(seed: int) -> list:
    """The first cycle's sampled families, materialised space by space."""
    return [list(iter_family_spaces(suite_spec(seed, 0, j))) for j in range(SUITE_CHUNKS)]


def build_space_queries(seed: int) -> list[PoolSpace]:
    rng = rng_for(seed, "space-queries")
    return [
        _pool_space(n, QUERY_PARAMS, shape, rng, TARGETS_PER_SPACE)
        for n in QUERY_SIZES
        for shape in QUERY_SHAPES
    ]


@dataclass
class DeciderInputs:
    separation: list  # PoolSpace per (n, shape)
    mappings: list  # (label, SoftMapping)


def build_deciders(seed: int) -> DeciderInputs:
    """Separation spaces at n = 4..7, and mappings between 4-point, 3-parameter spaces."""
    rng = rng_for(seed, "deciders")
    separation = [
        _pool_space(n, SEPARATION_PARAMS, shape, rng, 0)
        for n in SEPARATION_SIZES
        for shape in SEPARATION_SHAPES
    ]
    source = _pool_space(4, 3, "pairs", rng, 0).space
    target = _pool_space(4, 3, "chain", rng, 0).space
    src_ctx, tgt_ctx = source.context, target.context

    def mapping(point_of, param_of) -> SoftMapping:
        return SoftMapping(
            source,
            target,
            {x: point_of(x) for x in src_ctx.universe},
            {e: param_of(e) for e in src_ctx.parameters},
        )

    y, k = rng.choice(tgt_ctx.universe), rng.choice(tgt_ctx.parameters)
    mappings = [
        ("identity", identity_mapping(source)),
        ("constant", mapping(lambda x: y, lambda e: k)),
    ]
    for i in range(2):
        mappings.append(
            (
                f"random{i}",
                mapping(lambda x: rng.choice(tgt_ctx.universe), lambda e: rng.choice(tgt_ctx.parameters)),
            )
        )
    return DeciderInputs(separation, mappings)


# -- operations --------------------------------------------------------------------


def _same_as(reference, valid: bool) -> Callable[[object], bool]:
    return lambda result: valid and result == reference


def space_query_ops(pool: list[PoolSpace]) -> list[Op]:
    ops = []
    for ps in pool:
        oracle = checks.Oracle(ps.space)
        space = ps.space
        for t, (_, g) in enumerate(ps.targets):
            label = f"n{ps.n}.{ps.shape}.t{t}"
            cl, it, fix = oracle.closure(g), oracle.interior(g), oracle.fixpoint(g)
            flags_c, flags_k = oracle.flags(g, CECH), oracle.flags(g, KURATOWSKI)
            want = oracle.approx(g)
            ops += [
                Op("operators.aura_closure", label, lambda c, s=space, g=g: aura_closure(s, g), _same_as(cl, True)),
                Op("operators.aura_interior", label, lambda c, s=space, g=g: aura_interior(s, g), _same_as(it, True)),
                Op(
                    "operators.kuratowski_closure",
                    label,
                    lambda c, s=space, g=g: kuratowski_closure(s, g),
                    lambda r, fix=fix: r.closure == fix,
                ),
                Op("genopen.classify", label + ".cech", lambda c, s=space, g=g: classify(s, g, CECH), _same_as(flags_c, True)),
                Op(
                    "genopen.classify",
                    label + ".kuratowski",
                    lambda c, s=space, g=g: classify(s, g, KURATOWSKI),
                    _same_as(flags_k, True),
                ),
                Op(
                    "rough.approximation_report",
                    label,
                    lambda c, s=space, g=g: approximation_report(s, g),
                    lambda r, want=want: checks.approx_report_ok(r, want),
                ),
            ]
    return ops


def decider_ops(inputs: DeciderInputs) -> list[Op]:
    """Each decider is validated once against the oracle checks; later calls must repeat it."""
    ops = []
    for ps in inputs.separation:
        space = ps.space
        reference = separation_report(space)
        valid = checks.separation_ok(reference, checks.Oracle(space))
        ops.append(
            Op(
                "separation.separation_report",
                f"n{ps.n}.{ps.shape}",
                lambda c, s=space: separation_report(s),
                _same_as(reference, valid),
            )
        )
    for label, m in inputs.mappings:
        for kind in (CECH, KURATOWSKI):
            by_family = {f: continuity_profile(m, kind=kind, target_family=f) for f in ("aura", "kuratowski")}
            valid = checks.continuity_pair_ok(kind, by_family)
            for family, reference in by_family.items():
                ops.append(
                    Op(
                        "mapping.continuity_profile",
                        f"{label}.{kind}.{family}",
                        lambda c, m=m, kind=kind, family=family: continuity_profile(
                            m, kind=kind, target_family=family
                        ),
                        _same_as(reference, valid),
                    )
                )
    for label, m in inputs.mappings:
        ops.append(
            Op(
                "mapping.verify_decomposition",
                label,
                lambda c, m=m: verify_decomposition(m, kind=KURATOWSKI),
                _same_as((True, None), True),
            )
        )
    return ops


def law_suite_ops(seed: int) -> list[Op]:
    ops = [
        Op(
            "harness.run_law_suite",
            f"chunk{j}",
            lambda c, j=j: run_law_suite(suite_spec(seed, c, j)),
            lambda r: checks.suite_ok(r, SUITE_CHUNK),
        )
        for j in range(SUITE_CHUNKS)
    ]
    ops.append(Op("harness.decomposition_mapping_scan", "scan", lambda c: decomposition_mapping_scan(), checks.scan_ok))
    return ops


# -- cli -------------------------------------------------------------------------


class ChildRunner:
    """Runs `python -m softaura ...` children one at a time and keeps their peak RSS."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_path = workdir / "child.stderr"
        self.peak_rss_kb = 0

    def run(self, argv: list[str]) -> tuple[int, bytes]:
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=err
            )
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out


def cli_requests(root: Path, workdir: Path, docs: list[tuple[str, dict]]) -> list[tuple[str, list[str], dict]]:
    """(subcommand, argv, expectation) for every request of one rotation."""
    fixtures = root / FIXTURES
    requests = []

    def space_requests(path: Path, target_text: str, subs):
        decoded = load_space(path)
        target = resolve_target_set(decoded, target_text)
        for sub in subs:
            argv = ["-m", "softaura", sub, str(path), "--format", "json"]
            if sub == "approx":
                requests.append((sub, argv + ["--target", target_text], checks.cli_expectation(sub, decoded, target)))
            elif sub == "classify":
                for kind in (CECH, KURATOWSKI):
                    requests.append(
                        (
                            sub,
                            argv + ["--set", target_text, "--closure", kind],
                            checks.cli_expectation(sub, decoded, target, kind=kind),
                        )
                    )
            else:
                requests.append((sub, argv, checks.cli_expectation(sub, decoded)))

    for name, target_text in FIXTURE_TARGETS:
        space_requests(fixtures / name, target_text, ("validate", "approx", "classify", "axioms"))
    for name, doc in docs:
        path = workdir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        space_requests(path, "T", ("validate", "approx", "classify"))

    mapping_path = fixtures / FIXTURE_MAPPING
    mapping, _, _ = load_mapping(mapping_path)
    for kind in (CECH, KURATOWSKI):
        for family in ("aura", "kuratowski", "ambient"):
            argv = [
                "-m", "softaura", "continuity", str(mapping_path),
                "--closure", kind, "--target-family", family, "--format", "json",
            ]
            requests.append(("continuity", argv, checks.cli_expectation("continuity", kind=kind, mapping=mapping, family=family)))
    requests.append(
        ("suite", ["-m", "softaura", "suite", "--max-universe", "2", "--max-params", "2"], checks.cli_expectation("suite"))
    )
    return requests


def cli_ops(runner: ChildRunner, requests, seed: int) -> list[Op]:
    def check(sub, want):
        def ok(result) -> bool:
            rc, out = result
            return rc == 0 and checks.cli_ok(sub, json.loads(out), want)

        return ok

    ops = [
        Op(f"cli.{sub}", " ".join(Path(a).name for a in argv[2:]), lambda c, argv=argv: runner.run(argv), check(sub, want))
        for sub, argv, want in requests
    ]
    rng_for(seed, "cli-order").shuffle(ops)
    return ops
