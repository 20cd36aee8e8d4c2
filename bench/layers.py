"""Per-layer probe for the traced run.

A fixed, seeded amount of work per layer, timed from outside by spans
around calls into the public functions of each `softaura` module.  Times
are medians over repeats, divided by the calls in one repeat.  Work counts
come from the results of the same calls, so for one seed they repeat
exactly.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import statistics
import subprocess
import sys
import time

from softaura import (
    CECH,
    KURATOWSKI,
    SpaceFamilySpec,
    approximation_report,
    aura_closure,
    aura_interior,
    classify,
    continuity_profile,
    decomposition_mapping_scan,
    enumerate_aura_topology,
    iter_all_soft_sets,
    iter_family_spaces,
    kuratowski_closure,
    load_mapping,
    load_space,
    make_soft_set,
    make_space,
    oracle_closure,
    oracle_interior,
    per_parameter_alexandrov,
    resolve_target_set,
    run_law_suite,
    separation_report,
    verify_decomposition,
)
from softaura import cli

import checks
from workloads import (
    FIXTURE_MAPPING,
    FIXTURE_TARGETS,
    FIXTURES,
    QUERY_SIZES,
    SEPARATION_SIZES,
    build_deciders,
    build_space_queries,
    rng_for,
)

SUBCOMMANDS = ("validate", "approx", "classify", "axioms", "continuity", "suite")

#: Laws the suite engine gates one by one; each is timed alone minus the tables.
SOLO_LAWS = (
    "closure-grounding",
    "interior-absolute",
    "rough-fixed-points",
    "t1-iff-t2",
    "t1-iff-singleton-scopes",
    "t1-implies-t0",
    "t1-singleton-closure",
    "closure-enlargement",
    "interior-contraction",
    "duality",
    "rough-duality",
    "kuratowski-fixpoint",
    "tau-infinity-in-tau",
    "hierarchy-cech",
    "hierarchy-kuratowski",
    "classify-consistency",
    "decomposition-set-kuratowski",
    "rough-delegation",
    "rough-sandwich",
    "rough-accuracy",
    "oracle-equivalence",
)
#: The nine pair laws share one loop; they are timed together.
PAIR_LAWS = (
    "closure-monotonicity",
    "closure-additivity",
    "interior-monotonicity",
    "interior-meet",
    "kuratowski-additivity",
    "aura-open-family",
    "union-closure-semi",
    "union-closure-pre",
    "union-closure-beta",
)
HARNESS_SPACES = 40


def _metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the probe reports: name -> (unit, better)."""
    units = {
        "cli.interp_ms": ("ms", "lower"),
        "cli.import_ms": ("ms", "lower"),
        **{f"cli.main_ms.{sub}": ("ms", "lower") for sub in SUBCOMMANDS},
        "cli.render_ms": ("ms", "lower"),
        "documents.decode_ms": ("ms", "lower"),
        **{f"space.build_ms.n{n}": ("ms", "lower") for n in QUERY_SIZES},
        "softset.make_us": ("us", "lower"),
    }
    for op in ("closure", "interior", "kuratowski"):
        units.update({f"operators.{op}_us.n{n}": ("us", "lower") for n in QUERY_SIZES})
    units.update({f"operators.alexandrov_ms.n{n}": ("ms", "lower") for n in SEPARATION_SIZES})
    for kind in (CECH, KURATOWSKI):
        units.update({f"genopen.classify_us.{kind}.n{n}": ("us", "lower") for n in QUERY_SIZES})
    units.update({f"rough.approx_us.n{n}": ("us", "lower") for n in QUERY_SIZES})
    units.update({f"separation.report_ms.n{n}": ("ms", "lower") for n in SEPARATION_SIZES})
    units.update(
        {
            "mapping.continuity_ms.aura": ("ms", "lower"),
            "mapping.continuity_ms.kuratowski": ("ms", "lower"),
            "mapping.decomposition_ms": ("ms", "lower"),
            "harness.enumerate_ms": ("ms", "lower"),
            "harness.tables_s": ("s", "lower"),
            **{f"harness.law.{law}_s": ("s", "lower") for law in SOLO_LAWS},
            "harness.pair_loop_s": ("s", "lower"),
            "harness.oracle_us": ("us", "lower"),
            "harness.scan_s": ("s", "lower"),
            # exact work counts
            "operators.kuratowski_iters.sum": ("count", "lower"),
            "operators.kuratowski_iters.max": ("count", "lower"),
            "operators.open_slices": ("count", "lower"),
            "mapping.family_members": ("count", "lower"),
            "harness.spaces_checked": ("count", "higher"),
            "harness.checked_sum": ("count", "higher"),
            "harness.mappings_checked": ("count", "higher"),
            # tracing cost, measured on the workload loop
            "trace.overhead_ratio": ("ratio", "lower"),
            "trace.spans": ("count", "lower"),
        }
    )
    return units


METRICS = _metric_units()


class Probe:
    def __init__(self, root, tracer, seed: int, repeats: int = 5):
        self.root = root
        self.tracer = tracer
        self.seed = seed
        self.repeats = repeats
        self.values: dict[str, float] = {}
        self.checked = 0
        self.failed = 0

    def timed(self, name: str, fn, calls: int = 1, repeats: int | None = None, **attrs) -> float:
        """Median seconds per call of `fn`, which makes `calls` calls into a layer."""
        samples = []
        gc.collect()
        for _ in range(repeats or self.repeats):
            with self.tracer.span(name, calls=calls, **attrs):
                start = time.perf_counter()
                fn()
                samples.append((time.perf_counter() - start) / calls)
        return statistics.median(samples)

    def expect(self, ok: bool) -> None:
        self.checked += 1
        self.failed += not ok

    def run(self) -> dict[str, float]:
        with self.tracer.span("probe"):
            for group in (self.cli_layers, self.kernels, self.deciders, self.harness):
                with self.tracer.span(f"probe.{group.__name__}"):
                    group()
        missing = set(METRICS) - set(self.values) - {"trace.overhead_ratio", "trace.spans"}
        if missing:
            raise RuntimeError(f"probe left metrics unset: {sorted(missing)}")
        return self.values

    # -- cli and documents ----------------------------------------------------------

    def cli_layers(self) -> None:
        v = self.values
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        v["cli.interp_ms"] = 1e3 * self.timed(
            "cli.interp", lambda: subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        )
        imports = []
        code = "import time; t = time.perf_counter(); import softaura.cli; print(time.perf_counter() - t)"
        for _ in range(self.repeats):
            with self.tracer.span("cli.import"):
                out = subprocess.run(
                    [sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True
                ).stdout
            imports.append(float(out))
        v["cli.import_ms"] = 1e3 * statistics.median(imports)

        fx = self.root / FIXTURES
        mapping_path = str(fx / FIXTURE_MAPPING)
        spaces = {name: str(fx / name) for name in ("three_point_space.json", "monitoring.json", "two_point_space.json")}
        decoded = {name: load_space(path) for name, path in spaces.items()}
        monitoring = decoded["monitoring.json"]
        mapping = load_mapping(mapping_path)[0]
        # subcommand -> (argv, decode, compute), each timed on its own
        cases = {
            "validate": (
                ["validate", spaces["three_point_space.json"]],
                lambda: load_space(spaces["three_point_space.json"]),
                lambda: None,
            ),
            "approx": (
                ["approx", spaces["monitoring.json"], "--target", "G"],
                lambda: load_space(spaces["monitoring.json"]),
                lambda: approximation_report(monitoring.space, resolve_target_set(monitoring, "G")),
            ),
            "classify": (
                ["classify", spaces["monitoring.json"], "--set", "G", "--closure", KURATOWSKI],
                lambda: load_space(spaces["monitoring.json"]),
                lambda: classify(monitoring.space, resolve_target_set(monitoring, "G"), KURATOWSKI),
            ),
            "axioms": (
                ["axioms", spaces["two_point_space.json"]],
                lambda: load_space(spaces["two_point_space.json"]),
                lambda: separation_report(decoded["two_point_space.json"].space),
            ),
            "continuity": (
                ["continuity", mapping_path, "--closure", KURATOWSKI, "--target-family", "kuratowski"],
                lambda: load_mapping(mapping_path),
                lambda: continuity_profile(mapping, kind=KURATOWSKI, target_family="kuratowski"),
            ),
            "suite": (
                ["suite", "--max-universe", "2", "--max-params", "2"],
                lambda: None,
                lambda: run_law_suite(SpaceFamilySpec(2, 2)),
            ),
        }
        render_ms = 0.0
        for sub, (argv, decode, compute) in cases.items():
            if sub != "suite":
                argv = argv + ["--format", "json"]

            def main(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    self.expect(cli.main(argv) == 0)

            main_ms = 1e3 * self.timed("cli.main", main, subcommand=sub)
            decode_ms = 1e3 * self.timed("documents.decode", decode, subcommand=sub)
            compute_ms = 1e3 * self.timed("cli.compute", compute, subcommand=sub)
            v[f"cli.main_ms.{sub}"] = main_ms
            render_ms += main_ms - decode_ms - compute_ms
        v["cli.render_ms"] = render_ms

        paths = [fx / name for name, _ in FIXTURE_TARGETS]

        def decode_all():
            for p in paths:
                load_space(p)
            load_mapping(mapping_path)

        v["documents.decode_ms"] = 1e3 * self.timed("documents.decode", decode_all, calls=len(paths) + 1)

    # -- kernels: size sweep n = 8..64 ---------------------------------------------

    def kernels(self) -> None:
        v = self.values
        pool = build_space_queries(self.seed)
        iters = []
        for n in QUERY_SIZES:
            at_n = [ps for ps in pool if ps.n == n]
            pairs = [(ps.space, g) for ps in at_n for _, g in ps.targets]
            calls = len(pairs)

            def each(fn):
                return lambda: [fn(s, g) for s, g in pairs]

            v[f"space.build_ms.n{n}"] = 1e3 * self.timed(
                "space.make_space", lambda: [make_space(*ps.table) for ps in at_n], calls=len(at_n), n=n
            )
            v[f"operators.closure_us.n{n}"] = 1e6 * self.timed(
                "operators.aura_closure", each(aura_closure), calls, n=n
            )
            v[f"operators.interior_us.n{n}"] = 1e6 * self.timed(
                "operators.aura_interior", each(aura_interior), calls, n=n
            )
            v[f"operators.kuratowski_us.n{n}"] = 1e6 * self.timed(
                "operators.kuratowski_closure", each(kuratowski_closure), calls, n=n
            )
            for kind in (CECH, KURATOWSKI):
                v[f"genopen.classify_us.{kind}.n{n}"] = 1e6 * self.timed(
                    "genopen.classify", each(lambda s, g: classify(s, g, kind)), calls, n=n, kind=kind
                )
            v[f"rough.approx_us.n{n}"] = 1e6 * self.timed(
                "rough.approximation_report", each(approximation_report), calls, n=n
            )
            for s, g in pairs:
                iters.extend(kuratowski_closure(s, g).iterations.values())
        slices = [(ps.space.context, sl) for ps in pool for sl, _ in ps.targets]
        v["softset.make_us"] = 1e6 * self.timed(
            "softset.make_soft_set", lambda: [make_soft_set(c, sl) for c, sl in slices], calls=len(slices)
        )
        v["operators.kuratowski_iters.sum"] = sum(iters)
        v["operators.kuratowski_iters.max"] = max(iters)

    # -- deciders: separation n = 4..7, continuity, decomposition -------------------

    def deciders(self) -> None:
        v = self.values
        inputs = build_deciders(self.seed)
        open_slices = 0
        for n in SEPARATION_SIZES:
            spaces = [ps.space for ps in inputs.separation if ps.n == n]
            params = [(s, e) for s in spaces for e in s.context.parameters]
            v[f"operators.alexandrov_ms.n{n}"] = 1e3 * self.timed(
                "operators.per_parameter_alexandrov",
                lambda: [per_parameter_alexandrov(s, e) for s, e in params],
                len(params),
                repeats=3,
                n=n,
            )
            open_slices += sum(len(per_parameter_alexandrov(s, e)) for s, e in params)
            v[f"separation.report_ms.n{n}"] = 1e3 * self.timed(
                "separation.separation_report",
                lambda: [separation_report(s) for s in spaces],
                len(spaces),
                repeats=3,
                n=n,
            )
        v["operators.open_slices"] = open_slices

        mappings = [m for _, m in inputs.mappings]
        for family in ("aura", "kuratowski"):
            v[f"mapping.continuity_ms.{family}"] = 1e3 * self.timed(
                "mapping.continuity_profile",
                lambda: [
                    continuity_profile(m, kind=kind, target_family=family)
                    for m in mappings
                    for kind in (CECH, KURATOWSKI)
                ],
                2 * len(mappings),
                repeats=3,
                family=family,
            )
        v["mapping.decomposition_ms"] = 1e3 * self.timed(
            "mapping.verify_decomposition",
            lambda: [self.expect(verify_decomposition(m) == (True, None)) for m in mappings],
            len(mappings),
            repeats=3,
        )
        v["mapping.family_members"] = sum(len(enumerate_aura_topology(m.target)) for m in mappings)

    # -- harness: sampled 3x2 suite ---------------------------------------------------

    def harness(self) -> None:
        v = self.values
        spec = SpaceFamilySpec(
            3,
            2,
            scope_mode="sampled",
            seed=rng_for(self.seed, "probe-suite").getrandbits(63),
            sample_count=HARNESS_SPACES,
        )
        v["harness.enumerate_ms"] = 1e3 * self.timed("harness.iter_family_spaces", lambda: list(iter_family_spaces(spec)))

        # Interleaved repeats: each law's time is the median of its run minus
        # the tables-only run of the same round.
        selections = {"tables": [], **{law: [law] for law in SOLO_LAWS}, "pairs": list(PAIR_LAWS)}
        rounds = {name: [] for name in selections}
        for _ in range(self.repeats):
            for name, laws in selections.items():
                rounds[name].append(self.timed("harness.run_law_suite", lambda: run_law_suite(spec, laws=laws), repeats=1, laws=name))
        tables = rounds.pop("tables")
        v["harness.tables_s"] = statistics.median(tables)
        pairs = rounds.pop("pairs")
        v["harness.pair_loop_s"] = statistics.median(p - t for p, t in zip(pairs, tables))
        for law, times in rounds.items():
            v[f"harness.law.{law}_s"] = statistics.median(x - t for x, t in zip(times, tables))

        with self.tracer.span("harness.run_law_suite", laws="all"):
            result = run_law_suite(spec)
        self.expect(checks.suite_ok(result, HARNESS_SPACES))
        v["harness.spaces_checked"] = result.spaces_checked
        v["harness.checked_sum"] = sum(r.checked for r in result.laws.values())

        family = [s for _, s in iter_family_spaces(spec)][:5]
        sets = [(s, g) for s in family for g in iter_all_soft_sets(s.context)]
        v["harness.oracle_us"] = 1e6 * self.timed(
            "harness.oracle",
            lambda: [(oracle_closure(s, g), oracle_interior(s, g)) for s, g in sets],
            2 * len(sets),
            repeats=3,
        )

        start = time.perf_counter()
        with self.tracer.span("harness.decomposition_mapping_scan"):
            scan = decomposition_mapping_scan()
        v["harness.scan_s"] = time.perf_counter() - start
        self.expect(checks.scan_ok(scan))
        v["harness.mappings_checked"] = scan.mappings_checked
