"""Reference implementations of the word, cube-cell and path-cell normal
forms, kept beside the tests that compare the library against them.

``orbit_minimum`` finds the canonical class of a raw word by explicit
search over all relation moves, and ``reduce_word`` applies the two
outright reductions (inverse-pair cancellation and unit absorption).  The
``*_reference`` functions are the three separate normal-form routines the
library had before they were merged into one bead normal form: each
strips, pools and cancels in its own loop, so an agreement check against
them pins the merged engine.  Cube cells are the necklaces and path cells
of a standard simplex; ``dup_canonical_reference`` reads one as the vertex
labels of its beads, a repeated label a duplicated vertex.
"""

from __future__ import annotations

from simplex_oracles import term_from_word

from loopspace.paths import PathCell, PathError
from loopspace.simplicial import SimplexTerm, SimplicialPresentation
from loopspace.words import LoopWord, WordError, unit, word_degeneracy


def check_composable(
    zx: SimplicialPresentation, letters: tuple[SimplexTerm, ...]
) -> tuple[str, str]:
    """Endpoints of a composable raw word; raises on a mismatch."""
    if not letters:
        raise WordError("empty raw word has no endpoints; use unit(at)")
    prev_max = None
    start = None
    for t in letters:
        if t.dim < 1:
            raise WordError(f"letter {t} must have dimension >= 1")
        lo, hi = zx.endpoints(t)
        if prev_max is not None and lo != prev_max:
            raise WordError(f"word not composable at {t}: {prev_max} != {lo}")
        if start is None:
            start = lo
        prev_max = hi
    return start, prev_max


def _cancellable(zx: SimplicialPresentation, a: SimplexTerm, b: SimplexTerm) -> bool:
    return (
        a.dim == 1
        and b.dim == 1
        and zx.has_op_partner(a)
        and zx.op_pairs[a.generator.name] == b.generator.name
    )


def _is_vertex_collapse(t: SimplexTerm) -> bool:
    # a bead mapped entirely to a vertex
    return t.generator.dim == 0


def _is_unit_letter(t: SimplexTerm) -> bool:
    # s_0 of a vertex: the only letter that absorbs outright
    return t.dim == 1 and t.generator.dim == 0


# -- relation orbits -----------------------------------------------------------


def reduce_word(
    zx: SimplicialPresentation,
    letters: tuple[SimplexTerm, ...],
    start: str | None = None,
) -> LoopWord:
    """Cancel adjacent inverse edge pairs and absorb unit letters (s_0 of a
    vertex).  Higher vertex-collapse letters are not dropped here; the shift
    normal form dissolves them without changing the degree."""
    if not letters:
        if start is None:
            raise WordError("reducing the empty word needs a start vertex")
        return unit(start)
    s, e = check_composable(zx, letters)
    if start is not None and start != s:
        raise WordError(f"declared start {start} does not match word start {s}")
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i, t in enumerate(out):
            if _is_unit_letter(t) and len(out) >= 2:
                del out[i]
                changed = True
                break
        if changed:
            continue
        for i in range(len(out) - 1):
            if _cancellable(zx, out[i], out[i + 1]):
                del out[i : i + 2]
                changed = True
                break
    if not out or (len(out) == 1 and _is_unit_letter(out[0])):
        return unit(s)
    return LoopWord(tuple(out), s, e)


def _strip_inner_s0(t: SimplexTerm) -> SimplexTerm:
    """Remove the innermost s_0 of a canonical degeneracy word."""
    if not t.degens or t.degens[0] != 0:
        raise WordError(f"{t} has no inner s_0")
    return term_from_word(t.generator, tuple(d - 1 for d in t.degens[1:]))


def _orbit_moves(
    zx: SimplicialPresentation, cur: tuple[SimplexTerm, ...], start: str
) -> list[tuple[SimplexTerm, ...]]:
    """All words one relation move away: junction shifts in both directions,
    cancellation of an adjacent inverse edge pair, absorption of a unit
    letter, and insertion of a unit letter.  An inserted unit is only useful
    as a landing pad for degeneracies migrating off a neighbouring letter,
    so insertion next to a vertex-collapse letter is skipped; this keeps
    every orbit finite."""
    out = []
    for i in range(len(cur) + 1):
        if i > 0 and _is_vertex_collapse(cur[i - 1]):
            continue
        if i < len(cur) and _is_vertex_collapse(cur[i]):
            continue
        v = start if i == 0 else zx.endpoints(cur[i - 1])[1]
        pad = zx.degenerate(zx.term(v), 0)
        out.append(cur[:i] + (pad,) + cur[i:])
    for i in range(len(cur) - 1):
        if _cancellable(zx, cur[i], cur[i + 1]):
            out.append(cur[:i] + cur[i + 2 :])
    if len(cur) >= 2:
        for i, t in enumerate(cur):
            if _is_unit_letter(t):
                out.append(cur[:i] + cur[i + 1 :])
    for i in range(len(cur) - 1):
        t, u = cur[i], cur[i + 1]
        if t.degens and t.degens[-1] == t.dim - 1 and t.dim >= 2:
            out.append(
                cur[:i]
                + (term_from_word(t.generator, t.degens[:-1]), zx.degenerate(u, 0))
                + cur[i + 2 :]
            )
        if u.degens and u.degens[0] == 0 and u.dim >= 2:
            out.append(
                cur[:i]
                + (zx.degenerate(t, t.dim), _strip_inner_s0(u))
                + cur[i + 2 :]
            )
    return out


def orbit_minimum(
    zx: SimplicialPresentation,
    letters: tuple[SimplexTerm, ...],
    start: str | None = None,
) -> LoopWord:
    """The minimal element of the relation orbit of a raw word, by explicit
    search.  Exponential in the worst case; used as an oracle for the
    linear-time ``canonical``."""
    if not letters:
        if start is None:
            raise WordError("the empty word needs a start vertex")
        return unit(start)
    s, e = check_composable(zx, letters)
    seen: set[tuple[SimplexTerm, ...]] = set()
    stack = [letters]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(n for n in _orbit_moves(zx, cur, s) if n not in seen)
    best = min(seen, key=lambda c: (len(c), c))
    if not best or (len(best) == 1 and _is_unit_letter(best[0])):
        return unit(s)
    return LoopWord(best, s, e)


# -- the three normal forms as separate routines --------------------------------


def _vertex_multiplicities(t: SimplexTerm) -> list[int]:
    vs = list(range(t.generator.dim + 1))
    for j in t.degens:  # innermost first
        vs.insert(j + 1, vs[j])
    mult = [0] * (t.generator.dim + 1)
    for v in vs:
        mult[v] += 1
    return mult


def _degens_from_multiplicities(mult: list[int]) -> tuple[int, ...]:
    degens = []
    pos = 0
    for m in mult:
        for c in range(m):
            if c > 0:
                degens.append(pos - 1)
            pos += 1
    return tuple(degens)


def canonical_reference(
    zx: SimplicialPresentation,
    letters: tuple[SimplexTerm, ...],
    start: str | None = None,
) -> LoopWord:
    """Canonical form of a raw word: cores after every cancellation, with
    the free duplicates of each junction on the right-hand letter."""
    if not letters:
        if start is None:
            raise WordError("the empty word needs a start vertex")
        return unit(start)
    s, e = check_composable(zx, letters)
    if start is not None and start != s:
        raise WordError(f"declared start {start} does not match word start {s}")
    dups: list[int] = [0]
    cores: list[SimplexTerm] = []
    middles: list[list[int]] = []
    for t in letters:
        mult = _vertex_multiplicities(t)
        if t.generator.dim == 0:
            dups[-1] += t.dim - 1
        else:
            dups[-1] += mult[0] - 1
            cores.append(term_from_word(t.generator, ()))
            middles.append([m - 1 for m in mult[1:-1]])
            dups.append(mult[-1] - 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(cores) - 1):
            if dups[i + 1] == 0 and _cancellable(zx, cores[i], cores[i + 1]):
                merged = dups[i] + dups[i + 2]
                del cores[i : i + 2]
                del middles[i : i + 2]
                dups[i : i + 3] = [merged]
                changed = True
                break
    if not cores:
        total = dups[0]
        if total == 0:
            return unit(s)
        letter = term_from_word(zx.generators[s], tuple(range(total + 1)))
        return LoopWord((letter,), s, s)
    out = []
    for i, c in enumerate(cores):
        mult = [dups[i] + 1] + [m + 1 for m in middles[i]] + [1]
        if i == len(cores) - 1:
            mult[-1] += dups[i + 1]
        out.append(term_from_word(c.generator, _degens_from_multiplicities(mult)))
    return LoopWord(tuple(out), s, e)


def path_canonical_reference(
    zx: SimplicialPresentation, base: SimplexTerm, tail: LoopWord
) -> PathCell:
    """Strip trailing top degeneracies of the base into the tail."""
    lo, hi = zx.endpoints(base)
    if tail.start != hi:
        raise PathError(f"tail starts at {tail.start}, base ends at {hi}")
    while base.degens and base.degens[-1] == base.dim - 1:
        base = term_from_word(base.generator, base.degens[:-1])
        tail = word_degeneracy(zx, tail, 1)
    tail = canonical_reference(zx, tail.letters, tail.start)
    return PathCell(base, tail)


def _run_length(b: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    strict: list[int] = []
    mult: list[int] = []
    for v in b:
        if strict and strict[-1] == v:
            mult[-1] += 1
        else:
            strict.append(v)
            mult.append(1)
    return tuple(strict), mult


Blocks = tuple[tuple[int, ...], ...]


def dup_canonical_reference(augmented: bool, blocks: Blocks) -> Blocks:
    """Canonical form of a cube cell given by the weakly increasing vertex
    labels of its beads; an augmented cell's first block is its base."""
    base = None  # (core, counts without the trailing extras)
    if augmented:
        core, mult = _run_length(blocks[0])
        if len(core) == 1:
            base = (core, [1])
            start_pool = len(blocks[0]) - 1
        else:
            base = (core, mult[:-1] + [1])
            start_pool = mult[-1] - 1
        blocks = blocks[1:]
        dups = [start_pool]
    else:
        dups = [0]
    cores: list[tuple[int, ...]] = []
    middles: list[list[int]] = []
    for b in blocks:
        core, mult = _run_length(b)
        if len(core) == 1:
            # constant bead: dissolves, one duplicate absorbed with it
            dups[-1] += max(len(b) - 2, 0)
        else:
            dups[-1] += mult[0] - 1
            cores.append(core)
            middles.append([m - 1 for m in mult[1:-1]])
            dups.append(mult[-1] - 1)
    out: list[tuple[int, ...]] = []
    if base is not None:
        bc, counts = base
        out.append(tuple(v for v, m in zip(bc, counts) for _ in range(m)))
    for i, core in enumerate(cores):
        counts = [dups[i] + 1] + [m + 1 for m in middles[i]] + [1]
        if i == len(cores) - 1:
            counts[-1] += dups[i + 1]
        out.append(tuple(v for v, m in zip(core, counts) for _ in range(m)))
    if not cores:
        free = dups[0]
        if base is None:
            if free:
                raise ValueError("cell dissolved entirely with duplicates left")
        elif free:
            v = base[0][-1]
            out.append((v,) * (free + 2))
    if not out:
        raise ValueError("cell dissolved entirely; no block left")
    return tuple(out)
