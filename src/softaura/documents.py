"""JSON document format for spaces, mappings, and named soft sets.

A space document looks like:

    {
      "universe": ["s1", "s2"],
      "parameters": ["e1"],
      "topology": {"kind": "discrete"},
      "namedSets": {"G": {"e1": ["s1"]}},
      "scope": {"s1": {"e1": ["s1"]}, "s2": "G"}
    }

Topology kinds: "discrete", "indiscrete", "explicit" (with "sets"),
"generated" (with "subbasis").  The names "null" and "absolute" are reserved
for the empty and full soft sets; they cannot be declared but can be
referenced.  Explicit topologies list only their proper members; null and
absolute are implied.

Scope entries are either inline slice tables or a name referencing
namedSets, a topology member, a subbasis set of a generated topology, or a
reserved set.  A subbasis name that no member carries (generation names a
member by the first name its set has) still resolves to its own set.

Structural problems (wrong types, missing or unknown keys, bad names,
reserved-name declarations) raise DocumentError.  Mathematically invalid
content (failed topology or scope laws, unknown point or parameter names
inside slice tables) raises the corresponding domain error instead.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from .errors import DocumentError, _Frozen
from .softset import Context, SoftSet
from .space import (
    ABSOLUTE_NAME,
    DEFAULT_CAP,
    DISCRETE,
    EXPLICIT,
    GENERATED,
    INDISCRETE,
    NULL_NAME,
    SoftAuraSpace,
    SoftTopology,
    discrete_topology,
    generate_topology,
    indiscrete_topology,
    validate_topology,
)

RESERVED_NAMES = (NULL_NAME, ABSOLUTE_NAME)

_TOP_KEYS = {"universe", "parameters", "topology", "namedSets", "scope"}
_REQUIRED_KEYS = ("universe", "parameters", "topology", "scope")


def _require_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise DocumentError(f"{where} must be an object")
    return value


def _require_name_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not value:
        raise DocumentError(f"{where} must be a non-empty array")
    for item in value:
        if not isinstance(item, str) or not item:
            raise DocumentError(f"{where} entries must be non-empty strings")
    if len(set(value)) != len(value):
        raise DocumentError(f"{where} entries must be distinct")
    return value


def _require_slices(value, where: str) -> dict:
    value = _require_dict(value, where)
    for param, points in value.items():
        if not isinstance(param, str):
            raise DocumentError(f"{where} keys must be strings")
        if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
            raise DocumentError(f"{where}[{param!r}] must be an array of point names")
    return value


def _decode_named_sets(context: Context, section, where: str) -> dict[str, SoftSet]:
    section = _require_dict(section, where)
    out: dict[str, SoftSet] = {}
    for name, slices in section.items():
        if not isinstance(name, str) or not name:
            raise DocumentError(f"{where} names must be non-empty strings")
        if name in RESERVED_NAMES:
            raise DocumentError(f"{where} cannot declare reserved name {name!r}")
        out[name] = SoftSet.from_slices(context, _require_slices(slices, f"{where}[{name!r}]"))
    return out


def _lookup_set(
    named_sets: Mapping[str, SoftSet], topology: SoftTopology, name: str
) -> SoftSet | None:
    """namedSets, then topology members, then subbasis sets, then the reserved sets; None if unknown."""
    if name in named_sets:
        return named_sets[name]
    member = topology.member_named(name)
    if member is not None:
        return member
    for declared, s in topology.subbasis or ():
        if declared == name:
            return s
    if name == NULL_NAME:
        return SoftSet.null(topology.context)
    if name == ABSOLUTE_NAME:
        return SoftSet.absolute(topology.context)
    return None


class DecodedSpace(_Frozen):
    """A document-backed space plus its name environment."""

    __slots__ = ("space", "named_sets", "scope_refs")

    def resolve(self, name: str) -> SoftSet:
        """Look up a set name: namedSets, then topology members, then subbasis sets, then reserved."""
        found = _lookup_set(self.named_sets, self.space.topology, name)
        if found is None:
            raise ValueError(f"unknown set name {name!r}")
        return found


def _decode_topology(context: Context, section, cap: int) -> SoftTopology:
    section = _require_dict(section, "topology")
    kind = section.get("kind")
    if kind in (DISCRETE, INDISCRETE):
        extra = set(section) - {"kind"}
        if extra:
            raise DocumentError(f"{kind} topology takes no extra keys, got {sorted(extra)}")
        return discrete_topology(context) if kind == DISCRETE else indiscrete_topology(context)
    if kind == EXPLICIT:
        if set(section) != {"kind", "sets"}:
            raise DocumentError('explicit topology needs exactly "kind" and "sets"')
        declared = _decode_named_sets(context, section["sets"], "topology.sets")
        members = [
            (NULL_NAME, SoftSet.null(context)),
            (ABSOLUTE_NAME, SoftSet.absolute(context)),
        ] + list(declared.items())
        return validate_topology(context, members)
    if kind == GENERATED:
        if set(section) != {"kind", "subbasis"}:
            raise DocumentError('generated topology needs exactly "kind" and "subbasis"')
        subbasis = _decode_named_sets(context, section["subbasis"], "topology.subbasis")
        return generate_topology(context, subbasis, cap)
    raise DocumentError(f"unknown topology kind {kind!r}")


def decode_space(doc, cap: int = DEFAULT_CAP) -> DecodedSpace:
    """Build a validated space from a parsed document; `cap` bounds topology generation."""
    doc = _require_dict(doc, "document")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise DocumentError(f"missing required keys: {missing}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise DocumentError(f"unknown keys: {sorted(unknown)}")

    universe = _require_name_list(doc["universe"], "universe")
    parameters = _require_name_list(doc["parameters"], "parameters")
    try:
        context = Context(tuple(universe), tuple(parameters))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc

    topology = _decode_topology(context, doc["topology"], cap)
    named_sets = (
        _decode_named_sets(context, doc["namedSets"], "namedSets")
        if "namedSets" in doc
        else {}
    )
    topology_names = {name for name, _ in topology} if topology.is_extensional else set()
    topology_names.update(name for name, _ in topology.subbasis or ())
    clash = set(named_sets) & topology_names
    if clash:
        raise DocumentError(f"namedSets reuse topology member or subbasis names: {sorted(clash)}")

    scope_doc = _require_dict(doc["scope"], "scope")
    if set(scope_doc) != set(universe):
        missing_pts = sorted(set(universe) - set(scope_doc))
        extra_pts = sorted(set(scope_doc) - set(universe))
        raise DocumentError(
            f"scope must cover the universe exactly (missing {missing_pts}, extra {extra_pts})"
        )

    assignment: dict[str, SoftSet] = {}
    scope_refs: dict[str, str | None] = {}
    for x in universe:
        entry = scope_doc[x]
        if isinstance(entry, str):
            found = _lookup_set(named_sets, topology, entry)
            if found is None:
                raise DocumentError(f"scope references unknown set name {entry!r}")
            assignment[x] = found
            scope_refs[x] = entry
        else:
            assignment[x] = SoftSet.from_slices(
                context, _require_slices(entry, f"scope[{x!r}]")
            )
            scope_refs[x] = None

    space = SoftAuraSpace.from_assignment(context, topology, assignment)
    return DecodedSpace(space, named_sets, scope_refs)


def _slices_doc(s: SoftSet) -> dict:
    return {e: list(pts) for e, pts in s.as_dict().items()}


def encode_space(decoded: DecodedSpace) -> dict:
    """Canonical document for a decoded space; decode(encode(d)) rebuilds d."""
    space = decoded.space
    ctx = space.context
    topo = space.topology
    if topo.kind in (DISCRETE, INDISCRETE):
        tdoc: dict = {"kind": topo.kind}
    elif topo.kind == GENERATED:
        tdoc = {
            "kind": GENERATED,
            "subbasis": {
                name: _slices_doc(s) for name, s in (topo.subbasis or ())
            },
        }
    else:
        tdoc = {
            "kind": EXPLICIT,
            "sets": {
                name: _slices_doc(s)
                for name, s in topo
                if name not in RESERVED_NAMES
            },
        }
    doc: dict = {
        "universe": list(ctx.universe),
        "parameters": list(ctx.parameters),
        "topology": tdoc,
    }
    if decoded.named_sets:
        doc["namedSets"] = {
            name: _slices_doc(s) for name, s in decoded.named_sets.items()
        }
    doc["scope"] = {
        x: (decoded.scope_refs.get(x) or _slices_doc(s))
        for x, s in space.scope.items()
    }
    return doc


def _read_json(path: str | Path):
    """Parse a JSON document file; a file or text it cannot read as JSON is a DocumentError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON in {path}: {exc}") from exc


def load_space(path: str | Path, cap: int = DEFAULT_CAP) -> DecodedSpace:
    """Read and decode a space document file; `cap` as for decode_space."""
    return decode_space(_read_json(path), cap)


def decode_mapping(doc, base_dir: str | Path | None = None, cap: int = DEFAULT_CAP):
    """Build a mapping from a document with embedded or referenced endpoint spaces.

    Endpoints are either full space documents or {"ref": "file.json"} with the
    path resolved against base_dir; `cap` bounds each endpoint's topology
    generation.  Returns (mapping, source, target) with the decoded
    endpoints so callers keep their name environments.
    """
    from .mapping import SoftMapping

    doc = _require_dict(doc, "mapping document")
    required = {"source", "target", "pointMap", "paramMap"}
    missing = sorted(required - set(doc))
    if missing:
        raise DocumentError(f"missing required keys: {missing}")
    unknown = sorted(set(doc) - required)
    if unknown:
        raise DocumentError(f"unknown keys: {unknown}")

    def endpoint(section, where: str) -> DecodedSpace:
        section = _require_dict(section, where)
        if set(section) == {"ref"}:
            ref = section["ref"]
            if not isinstance(ref, str):
                raise DocumentError(f"{where}.ref must be a string")
            path = Path(base_dir or ".") / ref
            return load_space(path, cap)
        return decode_space(section, cap)

    source = endpoint(doc["source"], "source")
    target = endpoint(doc["target"], "target")
    point_map = _require_dict(doc["pointMap"], "pointMap")
    param_map = _require_dict(doc["paramMap"], "paramMap")
    for where, table in (("pointMap", point_map), ("paramMap", param_map)):
        for k, v in table.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise DocumentError(f"{where} entries must map strings to strings")
    mapping = SoftMapping(source.space, target.space, dict(point_map), dict(param_map))
    return mapping, source, target


def load_mapping(path: str | Path, cap: int = DEFAULT_CAP):
    """Read and decode a mapping document file; refs resolve against its directory, `cap` as for decode_mapping."""
    return decode_mapping(_read_json(path), base_dir=Path(path).parent, cap=cap)


def resolve_target_set(decoded: DecodedSpace, text: str) -> SoftSet:
    """Resolve a CLI set argument: inline JSON slices or a declared name."""
    if text.lstrip().startswith("{"):
        try:
            slices = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DocumentError(f"invalid inline set JSON: {exc}") from exc
        return SoftSet.from_slices(
            decoded.space.context, _require_slices(slices, "inline set")
        )
    return decoded.resolve(text)
