"""On-disk formats: complex documents, facet lists, and word literals.

A complex is stored as one JSON document: name, vertex list, basepoint,
and one record per generator of positive dimension with its face table;
a face is a generator and a degeneracy word, applied innermost-first and
written in canonical form (strictly increasing), one s_j at a time.
Word literals are semicolon-separated letters ``gen``, ``gen^op``,
``s<j>.gen`` (degeneracies outermost-first, matching the printed form),
with ``e`` for the unit.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .simplicial import (
    GeneratorId,
    SimplexTerm,
    SimplicialPresentation,
    _degenerate,
    _nondegenerate,
    boundary_simplex,
    from_facets,
    sphere_quotient,
    wedge_of_circles,
)
from .words import LoopWord, canonical, unit


class FormatError(ValueError):
    pass


# -- complex documents ------------------------------------------------------


def complex_to_dict(zx: SimplicialPresentation) -> dict:
    doc = {
        "name": zx.name,
        "vertices": [g.name for g in zx.generators_of_dim(0)],
        "basepoint": zx.basepoint,
        "generators": [
            {
                "name": g.name,
                "dim": g.dim,
                "faces": [
                    {"degeneracies": list(t.degens), "generator": t.generator.name}
                    for t in zx.faces[g.name]
                ],
            }
            for d in range(1, zx.max_dim + 1)
            for g in zx.generators_of_dim(d)
        ],
    }
    if zx.op_pairs:
        doc["op_pairs"] = {a: b for a, b in sorted(zx.op_pairs.items()) if a < b}
    return doc


def complex_from_dict(doc: dict) -> SimplicialPresentation:
    if not isinstance(doc, dict):
        raise FormatError("complex document must be a JSON object")
    try:
        gens = [GeneratorId(v, 0) for v in doc["vertices"]]
        faces: dict[str, tuple[SimplexTerm, ...]] = {}
        records = doc.get("generators", [])
        by_name = {}
        for rec in records:
            gens.append(GeneratorId(rec["name"], int(rec["dim"])))
            by_name[rec["name"]] = rec
        dims = {g.name: g.dim for g in gens}
        for rec in records:
            entries = []
            for f in rec["faces"]:
                gname = f["generator"]
                if gname not in dims:
                    raise FormatError(f"face of {rec['name']!r} uses unknown generator {gname!r}")
                t = _nondegenerate(GeneratorId(gname, dims[gname]))
                try:
                    for j in f.get("degeneracies", ()):  # innermost first
                        t = _degenerate(t, int(j))
                except ValueError as exc:
                    raise FormatError(f"face {len(entries)} of {rec['name']!r} on {gname!r}: {exc}") from None
                entries.append(t)
            faces[rec["name"]] = tuple(entries)
        pairs = {}
        for a, b in doc.get("op_pairs", {}).items():
            pairs[a] = b
            pairs[b] = a
        return SimplicialPresentation(
            doc.get("name", "complex"), gens, faces, doc["basepoint"], pairs or None
        )
    except KeyError as exc:
        raise FormatError(f"missing field {exc} in complex document") from exc
    except (TypeError, AttributeError) as exc:
        raise FormatError(f"field of the wrong type in complex document: {exc}") from exc


def save_complex(zx: SimplicialPresentation, path: str | Path) -> None:
    Path(path).write_text(json.dumps(complex_to_dict(zx), indent=2) + "\n")


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def load_complex(path: str | Path) -> SimplicialPresentation:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return complex_from_dict(doc)


def load_facets(path: str | Path) -> SimplicialPresentation:
    """Facet list: one facet per line, vertices separated by whitespace;
    blank lines and #-comments ignored."""
    facets = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        facets.append(body.split())
    if not facets:
        raise FormatError(f"{path}: no facets found")
    return from_facets(facets, name=Path(path).stem)


# -- builtins ---------------------------------------------------------------


def resolve_complex(spec: str) -> SimplicialPresentation:
    """Builtin complexes ``sphere:n``, ``wedge:r``, ``boundary-simplex:n``,
    ``facets:<file>``, or a path to a complex document."""
    kind, _, arg = spec.partition(":")
    if kind == "sphere":
        return sphere_quotient(_int_arg(spec, arg))
    if kind == "wedge":
        return wedge_of_circles(_int_arg(spec, arg))
    if kind == "boundary-simplex":
        return boundary_simplex(_int_arg(spec, arg))
    if kind == "facets":
        return load_facets(arg)
    if Path(spec).exists():
        return load_complex(spec)
    raise FormatError(
        f"unknown complex {spec!r}: expected sphere:n, wedge:r, "
        f"boundary-simplex:n, facets:<file>, or a file path"
    )


def resolve_model(spec: str) -> SimplicialPresentation:
    """The edge-inverted complex a model is built on; one that breaks the
    simplicial identities is refused, as every model on it would be wrong."""
    zx = resolve_complex(spec)
    zx = zx if zx.op_pairs else zx.z_extension()
    report = zx.validate()
    if report:
        raise FormatError(
            f"{zx.name} is not a simplicial set ({len(report)} violation(s), "
            f"first: {report[0]}); see 'loopspace validate'"
        )
    return zx


def _int_arg(spec: str, arg: str) -> int:
    if not re.fullmatch(r"\d+", arg or ""):
        raise FormatError(f"{spec!r}: expected an integer parameter")
    return int(arg)


# -- word literals ----------------------------------------------------------

_LETTER = re.compile(r"^(?P<degens>(s\d+\.)*)(?P<gen>.+)$")


def parse_term(zx: SimplicialPresentation, token: str) -> SimplexTerm:
    token = token.strip()
    m = _LETTER.match(token)
    if not m:
        raise FormatError(f"cannot parse letter {token!r}")
    name = m.group("gen")
    if name not in zx.generators:
        raise FormatError(f"unknown generator {name!r} in letter {token!r}")
    t = zx.term(name)
    # the literal lists degeneracies outermost-first; apply innermost-first
    js = [int(s[1:]) for s in m.group("degens").rstrip(".").split(".") if s]
    for j in reversed(js):
        if j > t.dim:
            raise FormatError(f"degeneracy s{j} out of range in {token!r}")
        t = zx.degenerate(t, j)
    return t


def parse_word(zx: SimplicialPresentation, text: str) -> LoopWord:
    """Parse a word literal into canonical form."""
    text = text.strip()
    if text in ("", "e"):
        return unit(zx.basepoint)
    return canonical(zx, tuple(parse_term(zx, tok) for tok in text.split(";")))
