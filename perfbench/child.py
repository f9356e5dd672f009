"""One cold benchmark sample, run in a fresh interpreter by ``run.py``.

Usage (from the repository root):
    python3 perfbench/child.py --workload NAME --seed N --mode timed|traced|gate
        --spawned-at MONOTONIC_SECONDS [--trace-out PATH]

``timed`` and ``traced`` set the workload up (imports, complex
construction, ``z_extension``, input generation), run its steps one by
one, check the output and print one JSON line: set-up time measured from
``--spawned-at`` (the parent's monotonic clock just before it started this
interpreter), the time of the steps, peak RSS, the work done and the gate
results.  Times are reported raw and scaled to the reference host speed
(see ``calibrate.py``).  ``traced`` installs the tracer between set-up and
the steps.  ``gate`` runs the workload's slower correctness checks once,
outside any timing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from functools import partial
from typing import Callable, NamedTuple

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import calibrate  # noqa: E402  (benchmark-local, beside this file)
import planted  # noqa: E402

SPHERE_CASES = (("sphere:2", 7), ("sphere:3", 8))
SUITE_FIXTURES = ("sphere:2", "sphere:3", "boundary-simplex:2", "boundary-simplex:3", "wedge:2")
# The random suites run at fixed seeds so that their check totals are a
# recorded gate and the work done does not change with --seed (it swings by
# about 10% between suite seeds).
SUITE_SEEDS = {"cubical": 1, "dsq": 2, "leibniz": 3}
SUITE_CHECKS = 47081
CUBE_CHECKS = 22410
THEOREM2_WORDS = 576
COVER_RANK, COVER_LENGTH = 3, 5
COVER_VERTICES = 1 + 2 * COVER_RANK * sum((2 * COVER_RANK - 1) ** k for k in range(COVER_LENGTH))
SNF_SHAPES = ((64, 128), (128, 256), (256, 512))
SNF_EXTRA = 6  # planted factors above 1 per matrix


def _modules():
    # every workload imports the whole library in set-up, as the CLI does
    from loopspace import fileformat, homology, paths, suites

    return fileformat, homology, paths, suites


# -- homology-de -------------------------------------------------------------


def setup_homology_de(seed):
    fileformat, homology, _, _ = _modules()
    cases = [(fileformat.resolve_complex(s).z_extension(), n) for s, n in SPHERE_CASES]
    return homology, cases


def steps_homology_de(state):
    homology, cases = state
    return [partial(homology.homology, zx, n, "de") for zx, n in cases]


def expected_sphere_group(spec: str, degree: int):
    # H_*(Omega S^n) = Z[x], |x| = n - 1 (Bott-Samelson)
    step = int(spec.split(":")[1]) - 1
    return (1, ()) if degree % step == 0 else (0, ())


def group_gates(spec: str, table):
    return [
        (f"{spec} H_{g.degree}", (g.free_rank, g.torsion) == expected_sphere_group(spec, g.degree))
        for g in table.groups
    ]


def gate_homology_de(state, tables):
    return [g for (spec, _), table in zip(SPHERE_CASES, tables) for g in group_gates(spec, table)], None


def deep_gate_homology_de(seed):
    """Run each ``homology`` case with ``boundary_matrix`` watched, then
    check d.d = 0 on every consecutive pair of the matrices that case
    assembled, that they agree on the shared basis, and that every rank is
    non-negative.  The work count is the size of every basis the case
    assembles (degrees 0 to max_degree + 1), each counted once."""
    homology, cases = setup_homology_de(seed)
    original = homology.boundary_matrix
    gates, basis_words = [], 0
    for (spec, top), step in zip(SPHERE_CASES, steps_homology_de((homology, cases))):
        mats = []

        def watched(*args, **kwargs):
            out = original(*args, **kwargs)
            mats.append(out)
            return out

        homology.boundary_matrix = watched
        try:
            table = step()
        finally:
            homology.boundary_matrix = original
        gates += group_gates(spec, table)
        gates.append((f"{spec} matrices d_1..d_{top + 1}", len(mats) == top + 1))
        basis_words += mats[0][0].rows + sum(m.cols for m, _, _ in mats)
        for (lo, dom_lo, _), (hi, _, cod_hi) in zip(mats, mats[1:]):
            gates.append((f"{spec} shared basis", dom_lo == cod_hi))
            gates.append((f"{spec} d.d = 0", not _sparse_product(lo, hi)))
        for g in table.groups:
            gates.append((f"{spec} rank H_{g.degree} >= 0", g.free_rank >= 0))
    return gates, {"work": basis_words}


def _sparse_product(a, b) -> dict:
    """Nonzero entries of a.b for two SparseIntMatrix values."""
    by_row: dict[int, list[tuple[int, int]]] = {}
    for (i, j), v in b.entries.items():
        by_row.setdefault(i, []).append((j, v))
    out: dict[tuple[int, int], int] = {}
    for (i, k), v in a.entries.items():
        for j, w in by_row.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + v * w
    return {key: v for key, v in out.items() if v}


# -- check-suites ------------------------------------------------------------


def setup_check_suites(seed):
    fileformat, _, _, suites = _modules()
    fixtures = [fileformat.resolve_complex(s).z_extension() for s in SUITE_FIXTURES]
    bd4 = fileformat.resolve_complex("boundary-simplex:4").z_extension()
    return suites, fixtures, bd4


def steps_check_suites(state):
    suites, fixtures, bd4 = state
    steps = [partial(suites.cubical_suite, None, cube_n=5)]
    for zx in fixtures:
        steps.append(partial(suites.cubical_suite, zx, samples=40, seed=SUITE_SEEDS["cubical"], cube_n=1))
        steps.append(partial(suites.dsq_suite, zx, 300, seed=SUITE_SEEDS["dsq"]))
        steps.append(partial(suites.leibniz_suite, zx, 300, seed=SUITE_SEEDS["leibniz"]))
    steps.append(partial(suites.theorem2_suite, bd4, 4, 4))
    return steps


def gate_check_suites(state, reports):
    gates = [(f"{r['suite']} {r['complex']} ok", r["ok"]) for r in reports]
    total = sum(sum(r["checks"].values()) for r in reports)
    gates.append(("suite checks", total == SUITE_CHECKS))
    gates.append(("cube checks", sum(reports[0]["checks"].values()) == CUBE_CHECKS))
    gates.append(("theorem2 words", reports[-1]["words_checked"] == THEOREM2_WORDS))
    return gates, {"work": total}


# -- cover-wedge -------------------------------------------------------------


def setup_cover_wedge(seed):
    fileformat, _, paths, _ = _modules()
    return paths, fileformat.resolve_complex(f"wedge:{COVER_RANK}").z_extension()


def steps_cover_wedge(state):
    paths, zx = state
    graph = []

    def build():
        graph.append(paths.cover_graph(zx, COVER_LENGTH))
        return graph[0]

    return [build, lambda: paths.covering_report(zx, graph[0])]


def gate_cover_wedge(state, result):
    graph, rep = result
    gates = [
        ("vertices", rep["vertices"] == COVER_VERTICES),
        ("edges", rep["edges"] == COVER_VERTICES - 1),
        ("tree", rep["tree"] is True),
        ("connected", rep["connected"] is True),
        ("covering", rep["ok"] is True),
    ]
    return gates, {"work": graph.vertex_count + graph.edge_count}


# -- snf-planted -------------------------------------------------------------


def setup_snf_planted(seed):
    _, homology, _, _ = _modules()
    rng = random.Random(seed)
    cases = []
    for rows, cols in SNF_SHAPES:
        factors = planted.planted_factors(rows * 3 // 4, SNF_EXTRA)
        dense = planted.planted_matrix(rows, cols, factors, rows + cols, rng)
        m = homology.SparseIntMatrix(rows, cols)
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                if v:
                    m.entries[(i, j)] = v
        cases.append((m, factors))
    return homology, cases


def steps_snf_planted(state):
    homology, cases = state
    return [partial(homology.smith_normal_form, m) for m, _ in cases]


def gate_snf_planted(state, results):
    _, cases = state
    gates = [
        (f"{m.rows}x{m.cols} factors", got == factors)
        for (m, factors), got in zip(cases, results)
    ]
    return gates, {"work": sum(m.rows * m.cols for m, _ in cases)}


def deep_gate_snf_planted(seed):
    """Self-test of the generator, and a check of the library's Smith normal
    form, against the minors-gcd oracle on small planted matrices."""
    _, homology, _, _ = _modules()
    gates = []
    for k, (m, factors) in enumerate(planted.small_cases(seed)):
        oracle = planted.minors_gcd_factors(m)
        shape = f"{len(m)}x{len(m[0])} #{k}"
        gates.append((f"generator {shape}", factors == oracle))
        gates.append((f"library snf {shape}", homology.smith_normal_form(m) == oracle))
    return gates, None


class Workload(NamedTuple):
    setup: Callable  # seed -> state
    steps: Callable  # state -> zero-argument callables, timed one by one
    gate: Callable  # (state, step results) -> (gates, info)
    deep_gate: Callable | None  # seed -> (gates, info), once per run


WORKLOADS = {
    "homology-de": Workload(setup_homology_de, steps_homology_de, gate_homology_de, deep_gate_homology_de),
    "check-suites": Workload(setup_check_suites, steps_check_suites, gate_check_suites, None),
    "cover-wedge": Workload(setup_cover_wedge, steps_cover_wedge, gate_cover_wedge, None),
    "snf-planted": Workload(setup_snf_planted, steps_snf_planted, gate_snf_planted, deep_gate_snf_planted),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "traced", "gate"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    kernel, ref = calibrate.kernel, calibrate.REF_S

    if args.mode == "gate":
        gates, info = wl.deep_gate(args.seed)
        print(json.dumps({"gates": [[n, ok] for n, ok in gates], "info": info}))
        return 0

    state = wl.setup(args.seed)
    setup_raw = time.monotonic() - args.spawned_at
    cal = [kernel()]
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    wall_raw = wall = 0.0
    for step in wl.steps(state):  # built after install, so they call the wrappers
        start = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - start
        cal.append(kernel())
        wall_raw += took
        wall += took * ref / ((cal[-2] + cal[-1]) / 2)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    gates, info = wl.gate(state, results)
    out = {
        "setup_s": setup_raw * ref / cal[0],
        "setup_raw_s": setup_raw,
        "wall_s": wall,
        "wall_raw_s": wall_raw,
        "peak_rss_mb": peak_kb / 1024,
        "gates": [[n, ok] for n, ok in gates],
        "info": info,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
