"""Byte-for-byte CLI transcript: a fixed list of commands (text and --json,
degenerate-word boundaries, suites, homology, errors) against a recorded
golden file.

The golden file was recorded before letters stored vertex multiplicities
in place of degeneracy words, and the two ``--coeff ... --json`` boundaries
while chains still reduced modulo p at every addition (they pin the
reduction the CLI now applies once).  The ``cells --cube 0``, ``--cube 0
--aug`` and ``--cube 3 --aug --json`` listings were recorded with the
block-label cube cells that the necklaces of a standard simplex replaced,
and the ``--coeff q --json`` boundary was regenerated once, when Q
coefficients became JSON numbers.  Regenerate the file only for an
intended output change, with ``PYTHONPATH=src python3
tests/test_cli_golden.py > tests/golden/cli_transcript.txt``.
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

from loopspace.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_transcript.txt"

COMMANDS = [
    "validate --builtin sphere:2",
    "validate {data}/wedge2-inverted.json --json",
    "validate --builtin facets:{data}/tetrahedron.facets",
    "cells --builtin boundary-simplex:2 --degree 1 --max-len 3",
    "cells --builtin sphere:3 --degree 4 --json",
    "cells --cube 2 --aug",
    "cells --cube 0",
    "cells --cube 0 --aug",
    "cells --cube 3 --aug --json",
    "boundary --builtin sphere:2 --word sigma",
    "boundary --builtin sphere:3 --word 'sigma;s1.sigma' --json",
    "boundary --builtin boundary-simplex:3 --word '012;02^op' --variant norm",
    "boundary --builtin boundary-simplex:3 --word 's2.s1.012;02^op'",
    "boundary --builtin boundary-simplex:4 --word 's1.0123;03^op' --json",
    "boundary --builtin boundary-simplex:4 --word 's2.0123;03^op' --coeff p:3",
    "boundary --builtin boundary-simplex:4 --word 's1.s1.0123;03^op' --coeff q",
    "boundary --builtin boundary-simplex:4 --word 's1.s1.0123;03^op' --coeff q --json",
    "boundary --builtin boundary-simplex:4 --word 's1.s1.0123;03^op' --coeff p:2 --json",
    "boundary --builtin boundary-simplex:4 --word 's2.s1.0123;03^op' --variant norm",
    "boundary --builtin boundary-simplex:4 --word '0123;s1.s0.03^op'",
    "boundary --builtin wedge:2 --word 's1.s0.a1;a1^op;a2'",
    "cells {data}/triangle.json --degree 0 --max-len 3",
    "check --builtin sphere:2 --suite cubical --samples 8 --cube-n 2",
    "check --builtin sphere:3 --suite dsq --samples 20 --json",
    "check --builtin sphere:3 --suite theorem2 --degree 3 --max-len 3",
    "check --builtin wedge:2 --suite covering --max-len 3",
    "check --builtin boundary-simplex:3 --suite leibniz --samples 10 --seed 3",
    "homology --builtin sphere:2 --degree 4 --variant de",
    "homology --builtin sphere:3 --degree 6 --json",
    "homology --builtin boundary-simplex:3 --degree 2 --max-weight 4 --variant de --coeff p:2",
    "homology --builtin wedge:2 --degree 1 --max-weight 4 --coeff q",
    "homology {data}/sphere2.json --degree 3 --variant de --json",
    "group --builtin wedge:2 --element 'a1;a2;a1;a2' --power-detect --invert",
    "group --builtin wedge:2 --compose 'a1;a2' 'a2^op;a1' --json",
    "group --builtin wedge:2 --count-length 3",
    "cover --builtin wedge:2 --max-len 2",
    "cover --builtin boundary-simplex:2 --max-len 2 --out adj",
    "cover --builtin wedge:2 --max-len 0 --json",
    "boundary --builtin sphere:2 --word 's5.sigma'",
    "boundary --builtin sphere:2 --word bogus",
    "homology --builtin wedge:2 --degree 1",
    "cells --builtin sphere:2 --max-len -1",
]


def transcript() -> str:
    """Each command with its exit status, stdout and stderr, in order."""
    data = str(ROOT / "data")
    parts = []
    for cmd in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(cmd.format(data=data)))
        body = f"$ loopspace {cmd}\n[exit {code}]\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        parts.append(body.replace(data, "{data}"))
    return "".join(parts)


def test_transcript_matches_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(transcript())
