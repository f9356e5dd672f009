"""On-disk formats: complex documents, facet lists, and word literals.

A complex is stored as one JSON document: name, vertex list, basepoint,
and one record per generator of positive dimension with its face table;
a face is a generator and a degeneracy word, applied innermost-first and
written in canonical form (strictly increasing), one s_j at a time.
Word literals are semicolon-separated letters ``gen``, ``gen^op``,
``s<j>.gen`` (degeneracies outermost-first, matching the printed form),
with ``e`` for the unit.  So both readers refuse a generator name that a
literal or a printed word would read as something else: ``e`` in
dimension >= 1, an empty name or one with surrounding whitespace, a name
containing ``;``, and one that starts with ``s<j>.``.  A facet list's
simplices are enumerated, bounded and named by ``from_facets`` alone.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Iterable

from .simplicial import (
    GeneratorId,
    SimplexTerm,
    SimplicialError,
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


_KINDS = {list: "a list", int: "an integer", str: "a string", dict: "an object"}


def clip(text: str) -> str:
    """Text a refusal echoes, cut to at most 80 characters: the input it
    comes from may be as long as a document or a command line."""
    return text if len(text) <= 80 else text[:77] + "..."


def _clip_path(path: str | Path) -> str:
    """A path a refusal echoes, cut to its last 80 characters or so, which
    keep the file name."""
    text = str(path)
    return text if len(text) <= 80 else "..." + text[-77:]


def _typed(value, kind: type, what: str):
    """The value of a document field, if it has the JSON type the field
    takes; the message shows at most the first 80 characters of a value
    of another type."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FormatError(f"{what} has the wrong type: expected {_KINDS[kind]}, "
                          f"got {clip(repr(value))}")
    return value


_DEGENERACY_PREFIX = re.compile(r"s\d+\.")


def _check_names(gens: Iterable[GeneratorId]) -> None:
    """Refuse the first generator whose name a word literal or a printed
    word cannot tell from another word (see the module docstring)."""
    for g in gens:
        shown = clip(repr(g.name))
        if not g.name or g.name != g.name.strip():
            raise FormatError(f"generator name {shown} is empty or has surrounding whitespace")
        if ";" in g.name:
            raise FormatError(f"generator name {shown} contains ';', which separates the "
                              f"letters of a word")
        if _DEGENERACY_PREFIX.match(g.name):
            raise FormatError(f"generator name {shown} starts with a degeneracy prefix s<j>.")
        if g.name == "e" and g.dim >= 1:
            raise FormatError(f"generator name 'e' of dimension {g.dim} is reserved for the "
                              f"unit word")


def complex_from_dict(doc: dict) -> SimplicialPresentation:
    if not isinstance(doc, dict):
        raise FormatError("complex document must be a JSON object")
    try:
        gens = [GeneratorId(_typed(v, str, "a vertex name"), 0)
                for v in _typed(doc["vertices"], list, "'vertices'")]
        faces: dict[str, tuple[SimplexTerm, ...]] = {}
        records = _typed(doc.get("generators", []), list, "'generators'")
        for k, rec in enumerate(records):
            _typed(rec, dict, f"generator record {k}")
            name = _typed(rec["name"], str, "a generator name")
            gens.append(GeneratorId(name, _typed(rec["dim"], int, f"'dim' of {name!r}")))
        _check_names(gens)
        dims = {g.name: g.dim for g in gens}
        for rec in records:
            name, dim, entries = rec["name"], rec["dim"], []
            listed = _typed(rec["faces"], list, f"'faces' of {name!r}")
            # a face is checked before it is built, which takes memory linear
            # in its dimension; a negative dimension is refused with the
            # generators, and a vertex has no faces
            if dim > 0 and len(listed) != dim + 1:
                raise FormatError(f"face table of {name!r} must have {dim + 1} entries")
            for f in listed if dim >= 0 else ():
                f = _typed(f, dict, f"face {len(entries)} of {name!r}")
                gname = _typed(f["generator"], str, f"a face generator of {name!r}")
                if gname not in dims:
                    raise FormatError(f"face of {name!r} uses unknown generator {gname!r}")
                where = f"face {len(entries)} of {name!r} on {gname!r}"
                degens = _typed(f.get("degeneracies", []), list, f"'degeneracies' of {where}")
                d = dims[gname]
                for j in degens:  # applied innermost first
                    if not 0 <= _typed(j, int, f"{where}: a degeneracy") <= d:
                        raise FormatError(f"{where}: degeneracy index {j} out of range "
                                          f"for dimension {d}")
                    d += 1
                if d != dim - 1:
                    raise FormatError(f"face of {name!r} has dimension {d}, expected {dim - 1}")
                t = _nondegenerate(GeneratorId(gname, dims[gname]))
                for j in degens:
                    t = _degenerate(t, j)
                entries.append(t)
            faces[name] = tuple(entries)
        pairs = {}
        for a, b in _typed(doc.get("op_pairs", {}), dict, "'op_pairs'").items():
            for g in (a, _typed(b, str, f"the op pair of {a!r}")):
                if g not in dims:
                    raise FormatError(f"op pair {a!r}: {b!r} names unknown generator {g!r}")
            for x, y in ((a, b), (b, a)):
                if pairs.setdefault(x, y) != y:
                    raise FormatError(f"op pair {a!r}: {b!r} pairs {x!r} again, after {pairs[x]!r}")
        return SimplicialPresentation(
            _typed(doc.get("name", "complex"), str, "'name'"), gens, faces,
            _typed(doc["basepoint"], str, "'basepoint'"), pairs or None,
        )
    except KeyError as exc:
        raise FormatError(f"missing field {exc} in complex document") from exc


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {_clip_path(path)}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {_clip_path(path)}: not UTF-8 text ({exc.reason} "
                          f"at byte {exc.start})") from exc


def load_complex(path: str | Path) -> SimplicialPresentation:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{_clip_path(path)}: line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except RecursionError as exc:  # the decoder recurses once per level of nesting
        raise FormatError(f"{_clip_path(path)}: nested too deeply to read") from exc
    return complex_from_dict(doc)


def load_facets(path: str | Path) -> SimplicialPresentation:
    """Facet list: one facet per line, vertices separated by whitespace;
    blank lines and #-comments ignored.  ``from_facets`` enumerates, bounds
    and names the simplices; its refusals are given with the file's path,
    and the names it gives are checked as a document's are."""
    facets = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        facets.append(body.split())
        if len(facets[-1]) > _FACET_BOUND:
            raise FormatError(f"{_clip_path(path)}: line {lineno}: a facet may have at most "
                              f"{_FACET_BOUND} vertices, not {len(facets[-1])}")
    if not facets:
        raise FormatError(f"{_clip_path(path)}: no facets found")
    try:
        zx = from_facets(facets, name=Path(path).stem)
    except SimplicialError as exc:
        raise FormatError(f"{_clip_path(path)}: {exc}") from exc
    _check_names(zx.generators.values())
    return zx


# -- builtins ---------------------------------------------------------------

# The largest parameter of each builtin and the most vertices a facet may
# have: building and checking a complex takes time that grows faster than
# its spec (about n^3 for sphere:n, 2^n for a facet of n vertices).  At its
# bound, each is built and checked in at most about 5 s on a 2-vCPU host.
# ``from_facets`` bounds the distinct simplices of a whole facet list.
_BUILTINS = {"sphere": (sphere_quotient, 500), "wedge": (wedge_of_circles, 50_000),
             "boundary-simplex": (boundary_simplex, 13)}
_FACET_BOUND = 14


def resolve_complex(spec: str) -> SimplicialPresentation:
    """Builtin complexes ``sphere:n``, ``wedge:r``, ``boundary-simplex:n``,
    ``facets:<file>``, or a path to a complex document."""
    kind, _, arg = spec.partition(":")
    if kind in _BUILTINS:
        build, bound = _BUILTINS[kind]
        return build(_int_arg(spec, arg, bound))
    if kind == "facets":
        return load_facets(arg)
    if os.path.exists(spec):  # False on a name too long to be a file, unlike Path.exists
        return load_complex(spec)
    raise FormatError(
        f"unknown complex {clip(repr(spec))}: expected sphere:n, wedge:r, "
        f"boundary-simplex:n, facets:<file>, or a file path"
    )


def resolve_model(spec: str) -> SimplicialPresentation:
    """The edge-inverted complex a model is built on.  One that breaks the
    simplicial identities is refused, as every model on it would be wrong,
    and so is one whose edge-path tree ``home`` misses a vertex, as the
    paper's models are of a path-connected space."""
    zx = resolve_complex(spec)
    zx = zx if zx.op_pairs else zx.z_extension()
    report = zx.validate()
    if report:
        raise FormatError(
            f"{zx.name} is not a simplicial set ({len(report)} violation(s), "
            f"first: {report[0]}); see 'loopspace validate'"
        )
    for v in zx.generators_of_dim(0):
        if v.name != zx.basepoint and v.name not in zx.home:
            raise FormatError(f"{zx.name} is not path connected: no edge path joins vertex "
                              f"{v.name!r} to the basepoint {zx.basepoint!r}")
    return zx


def _int_arg(spec: str, arg: str, bound: int) -> int:
    if not re.fullmatch(r"\d+", arg or ""):
        raise FormatError(f"{clip(repr(spec))}: expected an integer parameter")
    # int() refuses more than 4 300 digits; a longer string is above the bound
    if len(arg.lstrip("0")) > len(str(bound)) or int(arg) > bound:
        raise FormatError(f"{clip(repr(spec))}: the parameter must be at most {bound}")
    return int(arg)


# -- word literals ----------------------------------------------------------

_LETTER = re.compile(r"^(?P<degens>(s\d+\.)*)(?P<gen>.+)$")


def parse_term(zx: SimplicialPresentation, token: str) -> SimplexTerm:
    token = token.strip()
    m = _LETTER.match(token)
    if not m:
        raise FormatError(f"cannot parse letter {clip(repr(token))}")
    name = m.group("gen")
    if name not in zx.generators:
        raise FormatError(f"unknown generator {clip(repr(name))} in letter {clip(repr(token))}")
    t = zx.term(name)
    # the literal lists degeneracies outermost-first; apply innermost-first
    js = [s[1:].lstrip("0") or "0" for s in m.group("degens").rstrip(".").split(".") if s]
    for j in reversed(js):
        # int() refuses more than 4 300 digits, so the digits are counted first
        if len(j) > len(str(t.dim)) or int(j) > t.dim:
            raise FormatError(f"degeneracy {clip('s' + j)} out of range in {clip(repr(token))}")
        t = zx.degenerate(t, int(j))
    return t


def parse_word(zx: SimplicialPresentation, text: str) -> LoopWord:
    """Parse a word literal into canonical form."""
    text = text.strip()
    if text in ("", "e"):
        return unit(zx.basepoint)
    return canonical(zx, tuple(parse_term(zx, tok) for tok in text.split(";")))
