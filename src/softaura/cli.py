"""Command line interface.

Subcommands take a space or mapping document (see documents.py) and print
either a human table or canonical JSON (insertion-ordered keys, two-space
indent, trailing newline).  Exit codes: 0 success, 2 domain error (failed
laws, unknown names), 3 parse, schema or output error (an unwritable output
file or a closed stdout), or a cap below 1, 4 enumeration cap exceeded (the
message names the family).  The cap is continuity's --cap when given, else
the SOFTAURA_CAP environment variable when set; it also bounds the topology
generation of every document a subcommand reads.

Every document subcommand runs one pipeline in `main`: resolve the cap,
decode the document, call the subcommand's handler, which computes and
returns its JSON payload and its text lines, and print one of them as
--format asks.  Handlers neither print nor read the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .documents import _slices_doc, load_mapping, load_space, resolve_target_set
from .errors import CapExceeded, DocumentError, SoftAuraError
from .operators import CECH, KURATOWSKI, TARGET_AMBIENT, TARGET_AURA, TARGET_KURATOWSKI
from .space import DEFAULT_CAP, DISCRETE

# Each subcommand imports the modules it computes with, so a request loads
# only those; only `suite` loads the law harness.


def _resolve_cap(flag: int | None) -> int:
    """The --cap flag when given, else SOFTAURA_CAP when set, else DEFAULT_CAP."""
    if flag is not None:
        if flag < 1:
            raise DocumentError("--cap must be positive")
        return flag
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


def _render_table(columns: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in [columns] + rows
    ]


def _cell(points) -> str:
    return ", ".join(points) if points else "-"


def _flag_report(head: list[tuple[str, str, str]], flags: list[tuple[str, bool]], width: int):
    """A yes/no report: `head` holds (JSON key, text label, value) triples, names pad to `width`."""
    payload = {key: value for key, _, value in head}
    payload.update(flags)
    lines = [f"{label}: {value}" for _, label, value in head]
    lines += [f"{(name + ':').ljust(width)} {'yes' if value else 'no'}" for name, value in flags]
    return payload, lines


def _validate(decoded, args):
    space = decoded.space
    topo = space.topology
    members = len(topo) if topo.is_extensional else None
    payload = {
        "valid": True,
        "universe": list(space.context.universe),
        "parameters": list(space.context.parameters),
        "topology": {"kind": topo.kind, "members": members},
        "namedSets": sorted(decoded.named_sets),
    }
    suffix = f" ({members} members)" if members is not None else ""
    lines = [
        "valid",
        f"universe: {' '.join(space.context.universe)}",
        f"parameters: {' '.join(space.context.parameters)}",
        f"topology: {topo.kind}{suffix}",
    ]
    return payload, lines


def _approx(decoded, args):
    from .rough import approximation_report

    report = approximation_report(decoded.space, resolve_target_set(decoded, args.target))
    acc = report.accuracy
    sets = {"target": report.target, "lower": report.lower, "upper": report.upper, "boundary": report.boundary}
    payload = {name: _slices_doc(s) for name, s in sets.items()}
    payload["accuracy"] = {
        "display": acc.display(),
        "numerator": acc.lower_total,
        "denominator": acc.upper_total,
        "value": float(acc),
        "conventionApplied": acc.convention_applied,
    }
    payload["perParameter"] = [
        {"parameter": e, "lower": lo, "upper": up} for e, lo, up in report.per_parameter
    ]
    params = list(decoded.space.context.parameters)
    rows = [[name] + [_cell(s.points(e)) for e in params] for name, s in sets.items()]
    per = ", ".join(f"{e} {lo}/{up}" for e, lo, up in report.per_parameter)
    lines = _render_table([""] + params, rows)
    lines += [f"accuracy: {acc.display()}", f"per-parameter (lower/upper): {per}"]
    return payload, lines


def _classify(decoded, args):
    from .genopen import classify

    profile = classify(decoded.space, resolve_target_set(decoded, args.set), args.closure)
    flags = [
        ("open", profile.a_open),
        ("alpha", profile.alpha_open),
        ("semi", profile.semi_open),
        ("pre", profile.pre_open),
        ("b", profile.b_open),
        ("beta", profile.beta_open),
    ]
    return _flag_report([("closureKind", "closure kind", profile.closure_kind)], flags, 6)


def _axiom_witness(name: str, w) -> tuple[dict | None, str]:
    """An axiom's witness as JSON and as the table line's suffix; (None, "") for no witness."""
    if w is None:
        return None, ""
    if name == "regular":
        found = {"point": w.point, "parameter": w.param, "closedSet": _slices_doc(w.closed_set)}
        return found, f" ({w.point} at {w.param} cannot be separated from a closed set)"
    found = {"x": w.x, "y": w.y}
    if w.param is not None:
        found["parameter"] = w.param
    if name == "t0":
        return found, f" (no parameter distinguishes {w.x} and {w.y})"
    if name == "t1":
        return found, f" ({w.y} lies in the scope of {w.x} at {w.param})"
    return found, f" (scopes of {w.x} and {w.y} overlap at {w.param})"


def _axioms(decoded, args):
    from .separation import separation_report

    report = separation_report(decoded.space)
    payload, lines = {}, []
    for name in ("t0", "t1", "t2", "regular", "t3"):
        holds = getattr(report, name)
        # only a failed axiom has a witness, and T3 never has one of its own
        found, suffix = _axiom_witness(name, report.witnesses.get(name))
        payload[name] = {"holds": holds} if name == "t3" else {"holds": holds, "witness": found}
        label = name.upper() if name.startswith("t") else name
        lines.append(f"{label}: {'yes' if holds else 'no'}{suffix}")
    return payload, lines


def _continuity(decoded, args):
    from .mapping import continuity_profile

    mapping, _, _ = decoded
    profile = continuity_profile(mapping, kind=args.closure, cap=args.cap, target_family=args.target_family)
    flags = [
        ("continuous", profile.continuous),
        ("alpha", profile.alpha_continuous),
        ("semi", profile.semi_continuous),
        ("pre", profile.pre_continuous),
        ("beta", profile.beta_continuous),
    ]
    head = [
        ("closureKind", "closure kind", profile.closure_kind),
        ("targetFamily", "target family", args.target_family),
    ]
    return _flag_report(head, flags, 12)


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


def _cmd_suite(args) -> None:
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
    laws = args.laws.split(",") if args.laws is not None else None
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


# The document subcommands: name -> (help, document metavar, decoder, handler).
# A handler takes the decoded document and the parsed arguments and returns
# its JSON payload and its text lines.
DOCUMENT_COMMANDS = {
    "validate": ("validate a space document", "space", load_space, _validate),
    "approx": ("lower/upper approximation report for a target set", "space", load_space, _approx),
    "classify": ("generalized openness flags for a set", "space", load_space, _classify),
    "axioms": ("separation axiom report with witnesses", "space", load_space, _axioms),
    "continuity": ("continuity profile of a mapping document", "mapping", load_mapping, _continuity),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softaura",
        description="Scope-function topology toolkit: approximation, openness, continuity, separation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    docs = {}
    for name, (help_text, metavar, load, handler) in DOCUMENT_COMMANDS.items():
        docs[name] = sub.add_parser(name, help=help_text)
        docs[name].add_argument("document", metavar=metavar)
        docs[name].set_defaults(load=load, handler=handler)

    docs["approx"].add_argument("--target", required=True, help="set name or inline JSON slices")
    docs["classify"].add_argument("--set", required=True, help="set name or inline JSON slices")
    for name in ("classify", "continuity"):
        docs[name].add_argument("--closure", choices=[CECH, KURATOWSKI], default=CECH)
    docs["continuity"].add_argument(
        "--target-family",
        choices=[TARGET_AURA, TARGET_KURATOWSKI, TARGET_AMBIENT],
        default=TARGET_AURA,
    )
    docs["continuity"].add_argument("--cap", type=int, default=None)
    for p in docs.values():
        p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("suite", help="run the law suite and emit its JSON report")
    p.add_argument("--max-universe", type=int, default=3)
    p.add_argument("--max-params", type=int, default=2)
    p.add_argument("--topology", choices=[DISCRETE, "generated"], default=DISCRETE)
    p.add_argument("--seed", type=int, default=None, help="sampled mode seed")
    p.add_argument("--count", type=int, default=None, help="sampled mode space count")
    p.add_argument("--laws", default=None, help="comma-separated law subset")
    p.add_argument("--out", default=None, help="write the report to a file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "suite":
            _cmd_suite(args)
        else:
            # only continuity has --cap; the resolved cap is what its handler reads
            args.cap = _resolve_cap(getattr(args, "cap", None))
            payload, lines = args.handler(args.load(args.document, args.cap), args)
            if args.format == "json":
                print(json.dumps(payload, indent=2, ensure_ascii=False))
            else:
                print("\n".join(lines))
        sys.stdout.flush()
        return 0
    except BrokenPipeError as exc:
        # Interpreter shutdown flushes stdout again; point it at devnull so
        # that flush neither fails nor reports an ignored exception.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 3
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SoftAuraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
