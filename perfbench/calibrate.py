"""Host-speed calibration kernel.

The host this benchmark was written on changes speed by up to a third
over tens of seconds (contention from other machines on shared hardware:
CPU time moves with wall time and steal time stays near zero).  Each
sample therefore times a fixed kernel right after set-up and after every
workload step, and scales the step's time by ``REF_S / kernel time``.  The
kernel uses no loopspace code, so a change to the library leaves it
alone: frozen dataclass construction, degeneracy-word rewriting,
recursive faces and set hashing, the shape of the simplex, word and path
layers' hot loops.

``REF_S`` is the kernel's median time on the reference host (2 vCPUs,
Python 3.11.7); it only fixes the unit of the scaled times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class _Cell:
    degens: tuple[int, ...]
    name: str


def _push(word: tuple[int, ...], j: int) -> tuple[int, ...]:
    out = list(word)
    pos = len(out)
    while pos > 0 and out[pos - 1] >= j:
        out[pos - 1] += 1
        pos -= 1
    out.insert(pos, j)
    return tuple(out)


def _face(c: _Cell, i: int) -> _Cell:
    if not c.degens:
        return _Cell((), "y" if c.name == "x" else "x")
    j = c.degens[-1]
    inner = _Cell(c.degens[:-1], c.name)
    if i in (j, j + 1):
        return inner
    if i < j:
        return _Cell(_push(_face(inner, i).degens, j - 1), c.name)
    return _Cell(_push(_face(inner, i - 1).degens, j), c.name)


def kernel() -> float:
    """Seconds for one pass of the kernel."""
    start = time.perf_counter()
    seen: set[_Cell] = set()
    for k in range(6000):
        c = _Cell((), "x")
        for j in (k % 3, k % 2, 0):
            c = _Cell(_push(c.degens, j), c.name)
        seen.add(_face(c, (len(c.degens) + 2) // 2))
        seen.add(c)
    return time.perf_counter() - start


REF_S = 0.045
