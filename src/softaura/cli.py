"""Command line interface.

Subcommands take a space or mapping document (see documents.py) and print
either a human table or canonical JSON (insertion-ordered keys, two-space
indent, trailing newline).  Exit codes: 0 success, 2 domain error (failed
laws, unknown names), 3 parse, schema or output-file error, or a cap below 1,
4 enumeration cap exceeded.  The cap defaults to the SOFTAURA_CAP
environment variable when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .documents import load_mapping, load_space, resolve_target_set
from .errors import CapExceeded, DocumentError, SoftAuraError
from .operators import CECH, KURATOWSKI, TARGET_AMBIENT, TARGET_AURA, TARGET_KURATOWSKI
from .space import DEFAULT_CAP, DISCRETE

# Each subcommand imports the modules it computes with, so a request loads
# only those; only `suite` loads the law harness.


def _default_cap() -> int:
    raw = os.environ.get("SOFTAURA_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise DocumentError(f"SOFTAURA_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise DocumentError("SOFTAURA_CAP must be positive")
    return cap


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _render_table(columns: list[str], rows: list[list[str]]) -> str:
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(columns)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def _cell(points) -> str:
    return ", ".join(points) if points else "-"


def _slices_json(s) -> dict:
    return {e: list(pts) for e, pts in s.as_dict().items()}


def _cmd_validate(args) -> int:
    decoded = load_space(args.space)
    space = decoded.space
    topo = space.topology
    members = len(topo) if topo.is_extensional else None
    if args.format == "json":
        _print_json(
            {
                "valid": True,
                "universe": list(space.context.universe),
                "parameters": list(space.context.parameters),
                "topology": {"kind": topo.kind, "members": members},
                "namedSets": sorted(decoded.named_sets),
            }
        )
        return 0
    print("valid")
    print(f"universe: {' '.join(space.context.universe)}")
    print(f"parameters: {' '.join(space.context.parameters)}")
    suffix = f" ({members} members)" if members is not None else ""
    print(f"topology: {topo.kind}{suffix}")
    return 0


def _cmd_approx(args) -> int:
    from .rough import approximation_report

    decoded = load_space(args.space)
    target = resolve_target_set(decoded, args.target)
    report = approximation_report(decoded.space, target)
    if args.format == "json":
        acc = report.accuracy
        _print_json(
            {
                "target": _slices_json(report.target),
                "lower": _slices_json(report.lower),
                "upper": _slices_json(report.upper),
                "boundary": _slices_json(report.boundary),
                "accuracy": {
                    "display": acc.display(),
                    "numerator": acc.lower_total,
                    "denominator": acc.upper_total,
                    "value": float(acc.value),
                    "conventionApplied": acc.convention_applied,
                },
                "perParameter": [
                    {"parameter": e, "lower": lo, "upper": up}
                    for e, lo, up in report.per_parameter
                ],
            }
        )
        return 0
    params = list(decoded.space.context.parameters)
    rows = [
        [label] + [_cell(s.points(e)) for e in params]
        for label, s in (
            ("target", report.target),
            ("lower", report.lower),
            ("upper", report.upper),
            ("boundary", report.boundary),
        )
    ]
    print(_render_table([""] + params, rows))
    print(f"accuracy: {report.accuracy.display()}")
    per = ", ".join(f"{e} {lo}/{up}" for e, lo, up in report.per_parameter)
    print(f"per-parameter (lower/upper): {per}")
    return 0


def _cmd_classify(args) -> int:
    from .genopen import classify

    decoded = load_space(args.space)
    target = resolve_target_set(decoded, args.set)
    profile = classify(decoded.space, target, args.closure)
    flags = [
        ("open", profile.a_open),
        ("alpha", profile.alpha_open),
        ("semi", profile.semi_open),
        ("pre", profile.pre_open),
        ("b", profile.b_open),
        ("beta", profile.beta_open),
    ]
    if args.format == "json":
        payload = {"closureKind": profile.closure_kind}
        payload.update({name: value for name, value in flags})
        _print_json(payload)
        return 0
    print(f"closure kind: {profile.closure_kind}")
    for name, value in flags:
        print(f"{name + ':':6} {'yes' if value else 'no'}")
    return 0


def _axiom_witness_json(w) -> dict | None:
    if w is None:
        return None
    if hasattr(w, "closed_set"):
        return {
            "point": w.point,
            "parameter": w.param,
            "closedSet": _slices_json(w.closed_set),
        }
    out = {"x": w.x, "y": w.y}
    if w.param is not None:
        out["parameter"] = w.param
    return out


def _axiom_witness_text(name: str, w) -> str:
    if name == "t0":
        return f"no parameter distinguishes {w.x} and {w.y}"
    if name == "t1":
        return f"{w.y} lies in the scope of {w.x} at {w.param}"
    if name == "t2":
        return f"scopes of {w.x} and {w.y} overlap at {w.param}"
    return f"{w.point} at {w.param} cannot be separated from a closed set"


def _cmd_axioms(args) -> int:
    from .separation import separation_report

    decoded = load_space(args.space)
    report = separation_report(decoded.space)
    axioms = [
        ("t0", report.t0),
        ("t1", report.t1),
        ("t2", report.t2),
        ("regular", report.regular),
        ("t3", report.t3),
    ]
    if args.format == "json":
        payload = {}
        for name, holds in axioms:
            entry: dict = {"holds": holds}
            if name != "t3":
                entry["witness"] = _axiom_witness_json(report.witnesses.get(name))
            payload[name] = entry
        _print_json(payload)
        return 0
    for name, holds in axioms:
        label = name.upper() if name.startswith("t") else name
        line = f"{label}: {'yes' if holds else 'no'}"
        w = report.witnesses.get(name)
        if not holds and w is not None:
            line += f" ({_axiom_witness_text(name, w)})"
        print(line)
    return 0


def _cmd_continuity(args) -> int:
    from .mapping import continuity_profile

    mapping, _, _ = load_mapping(args.mapping)
    profile = continuity_profile(
        mapping, kind=args.closure, cap=args.cap, target_family=args.target_family
    )
    flags = [
        ("continuous", profile.continuous),
        ("alpha", profile.alpha_continuous),
        ("semi", profile.semi_continuous),
        ("pre", profile.pre_continuous),
        ("beta", profile.beta_continuous),
    ]
    if args.format == "json":
        payload = {
            "closureKind": profile.closure_kind,
            "targetFamily": args.target_family,
        }
        payload.update({name: value for name, value in flags})
        _print_json(payload)
        return 0
    print(f"closure kind: {profile.closure_kind}")
    print(f"target family: {args.target_family}")
    for name, value in flags:
        print(f"{name + ':':12} {'yes' if value else 'no'}")
    return 0


def _check_writable(path: str) -> None:
    """Raise the error that writing the report to `path` would raise, before the suite runs.

    A new file is created and removed again; an existing one is opened for
    append, so it keeps its bytes until the report replaces them.
    """
    try:
        try:
            open(path, "xb").close()
        except FileExistsError:
            open(path, "ab").close()
        else:
            os.remove(path)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc


def _cmd_suite(args) -> int:
    from .harness import SpaceFamilySpec, require_known_laws, run_law_suite

    if args.seed is not None or args.count is not None:
        if args.seed is None or args.count is None:
            raise DocumentError("--seed and --count must be given together")
        spec = SpaceFamilySpec(
            args.max_universe,
            args.max_params,
            topology_kind=args.topology,
            scope_mode="sampled",
            seed=args.seed,
            sample_count=args.count,
        )
    else:
        spec = SpaceFamilySpec(args.max_universe, args.max_params, topology_kind=args.topology)
    laws = args.laws.split(",") if args.laws else None
    if laws is not None:
        require_known_laws(laws)
    if args.out:
        _check_writable(args.out)
    result = run_law_suite(spec, laws=laws)
    data = result.to_json_bytes()
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise DocumentError(f"cannot write {args.out}: {exc}") from exc
        print(
            f"checked {result.spaces_checked} spaces, "
            f"{result.total_failures} law failures; report written to {args.out}"
        )
    else:
        sys.stdout.write(data.decode("utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softaura",
        description="Scope-function topology toolkit: approximation, openness, continuity, separation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a space document")
    p.add_argument("space")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("approx", help="lower/upper approximation report for a target set")
    p.add_argument("space")
    p.add_argument("--target", required=True, help="set name or inline JSON slices")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("classify", help="generalized openness flags for a set")
    p.add_argument("space")
    p.add_argument("--set", required=True, help="set name or inline JSON slices")
    p.add_argument("--closure", choices=[CECH, KURATOWSKI], default=CECH)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("axioms", help="separation axiom report with witnesses")
    p.add_argument("space")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("continuity", help="continuity profile of a mapping document")
    p.add_argument("mapping")
    p.add_argument("--closure", choices=[CECH, KURATOWSKI], default=CECH)
    p.add_argument(
        "--target-family",
        choices=[TARGET_AURA, TARGET_KURATOWSKI, TARGET_AMBIENT],
        default=TARGET_AURA,
    )
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=_cmd_continuity)

    p = sub.add_parser("suite", help="run the law suite and emit its JSON report")
    p.add_argument("--max-universe", type=int, default=3)
    p.add_argument("--max-params", type=int, default=2)
    p.add_argument("--topology", choices=[DISCRETE, "generated"], default=DISCRETE)
    p.add_argument("--seed", type=int, default=None, help="sampled mode seed")
    p.add_argument("--count", type=int, default=None, help="sampled mode space count")
    p.add_argument("--laws", default=None, help="comma-separated law subset")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "cap"):
            if args.cap is None:
                args.cap = _default_cap()
            elif args.cap < 1:
                raise DocumentError("--cap must be positive")
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SoftAuraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
