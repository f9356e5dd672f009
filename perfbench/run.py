#!/usr/bin/env python3
"""loopspace benchmark: one workload, cold samples, exact gates.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: homology-de, check-suites, cover-wedge, snf-planted (see
perfbench/README.md for why each exists and which layer it stresses), or
``all`` to run the four in turn, with each metric name prefixed by its
workload.

Every sample is a fresh interpreter (``perfbench/child.py``) started by
this process, one at a time, so nothing cached in one sample reaches the
next: every ``loopspace`` command starts cold too.  With ``--trace 0`` the
benchmark runs the workload's slower correctness gate once, then untraced
samples until ``--seconds`` have passed (at least ``MIN_SAMPLES``), and
reports the end-to-end metrics as medians.  With ``--trace 1`` it runs an
untraced sample and two traced ones (then alternates until ``--seconds``
have passed), checks that the traced counts repeat exactly, and reports
the per-layer metrics.  Metric names and units come from BENCHMARK.json.
Every reported time is scaled to the reference host speed by the
calibration in ``calibrate.py``; the raw medians are printed beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

CHILD = os.path.join("perfbench", "child.py")
TRACE_DIR = os.path.join(".bench_build", "perfbench")
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150
WORKLOADS = ("homology-de", "check-suites", "cover-wedge", "snf-planted")
DEEP_GATES = ("homology-de", "snf-planted")


class BenchError(RuntimeError):
    pass


def spawn(args, mode: str, extra=()) -> dict:
    """Run one child interpreter to completion and return its JSON line."""
    cmd = [
        sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, *extra,
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Gates:
    """Tally of gate results across samples; feeds attempted/failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, results) -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed.append(name)

    def require(self, name: str, ok: bool) -> None:
        self.add([(name, ok)])


def describe(name: str, values: list[float], unit: str) -> str:
    med = statistics.median(values)
    return (
        f"{name:<12} median {med:.6g} {unit}  n={len(values)}  "
        f"min {min(values):.6g}  max {max(values):.6g}"
    )


def end_to_end(args, spec: dict, gates: Gates) -> dict:
    work_known = None
    if args.workload in DEEP_GATES:
        deep = spawn(args, "gate")
        gates.add(deep["gates"])
        if deep["info"]:
            work_known = deep["info"]["work"]
    samples = []
    started = time.monotonic()
    while len(samples) < MIN_SAMPLES or time.monotonic() - started < args.seconds:
        s = spawn(args, "timed")
        gates.add(s["gates"])
        samples.append(s)
    infos = [s["info"] for s in samples if s["info"] is not None]
    gates.require("work count repeats in every sample", all(i == infos[0] for i in infos))
    if infos:
        work_known = infos[0]["work"]
    if work_known is None:
        raise BenchError("workload reported no work count")
    series = {
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "work_per_s": [work_known / s["wall_s"] for s in samples],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(units) != set(series):
        raise BenchError(f"BENCHMARK.json end_to_end {sorted(units)} != {sorted(series)}")
    for name, values in series.items():
        print(describe(name, values, units[name]))
    print(describe("wall_raw_s", [s["wall_raw_s"] for s in samples], "s"))
    print(describe("setup_raw_s", [s["setup_raw_s"] for s in samples], "s"))
    print(f"work per sample: {work_known}")
    return {n: {"value": statistics.median(v), "unit": units[n]} for n, v in series.items()}


def _layer_value(name: str, summary: dict):
    """Resolve a per-layer metric name against one traced sample."""
    funcs, counters = summary["functions"], summary["counters"]
    if name in counters:
        return counters[name]
    if name == "homology.degree_basis.canonical_per_word":
        words = counters["homology.degree_basis.basis_words_out"]
        calls = counters["homology.degree_basis.canonical_calls"]
        return calls / words if words else 0.0
    if name == "words.canonical.repeat_share":
        calls = funcs.get("words.canonical", {}).get("calls", 0)
        return 1 - counters["words.canonical.distinct_inputs"] / calls if calls else 0.0
    head, _, quantity = name.rpartition(".")
    if head.startswith("layer.") and quantity == "self_s":
        return summary["module_self_s"][head[len("layer."):]]
    if quantity in ("calls", "self_s") and head in summary["traced"]:
        return funcs.get(head, {}).get(quantity, 0)
    raise BenchError(f"unknown per-layer metric {name}")


def counts_of(summary: dict) -> dict:
    """Every exact count in a traced sample: calls per function and the
    derived counters."""
    out = {f"{n}.calls": f["calls"] for n, f in summary["functions"].items()}
    out.update(summary["counters"])
    return out


def per_layer(args, spec: dict, gates: Gates) -> dict:
    os.makedirs(TRACE_DIR, exist_ok=True)
    plain, traced = [], []
    started = time.monotonic()
    order = ["timed", "traced", "traced"]
    while order or time.monotonic() - started < args.seconds:
        mode = order.pop(0) if order else ("traced" if len(plain) > len(traced) else "timed")
        extra = ()
        if mode == "traced":
            # one file per workload and traced sample, overwritten by the next run
            out = os.path.join(TRACE_DIR, f"{args.workload}-{len(traced)}.json")
            extra = ("--trace-out", out)
        s = spawn(args, mode, extra)
        gates.add(s["gates"])
        (traced if mode == "traced" else plain).append(s)
    first = counts_of(traced[0]["trace"])
    for k, s in enumerate(traced[1:], start=1):
        same = counts_of(s["trace"]) == first
        gates.require(f"traced counts of sample {k} repeat sample 0", same)
    overhead = statistics.median(s["wall_s"] for s in traced) - statistics.median(
        s["wall_s"] for s in plain
    )
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            value = overhead
        elif name.endswith("self_s"):  # scaled like wall_s
            value = statistics.median(
                _layer_value(name, s["trace"]) * s["wall_s"] / s["wall_raw_s"] for s in traced
            )
        else:
            value = _layer_value(name, traced[0]["trace"])
        metrics[name] = {"value": value, "unit": m["unit"]}
    total = statistics.median(s["wall_s"] for s in traced)
    split = traced[0]["trace"]["module_self_s"]
    print(f"traced wall {total:.4g} s, untraced {total - overhead:.4g} s, samples "
          f"{len(traced)} traced / {len(plain)} untraced")
    print("self time by module (share of traced wall): " + ", ".join(
        f"{k} {v / traced[0]['wall_raw_s']:.1%}" for k, v in sorted(split.items(), key=lambda kv: -kv[1]) if v
    ))
    top = sorted(traced[0]["trace"]["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:6]
    print("largest self time (share of traced wall): " + ", ".join(
        f"{n} {f['self_s'] / traced[0]['wall_raw_s']:.1%}" for n, f in top
    ))
    print(f"trace files: {TRACE_DIR}")
    return metrics


def run_workload(args, spec: dict) -> tuple[Gates, dict]:
    gates = Gates()
    metrics = (per_layer if args.trace else end_to_end)(args, spec, gates)
    fail_frac = len(gates.failed) / gates.attempted
    print(f"fail_frac    {fail_frac:.6g} ({len(gates.failed)} of {gates.attempted} gates failed)")
    for name in gates.failed[:10]:
        print(f"  FAILED {name}")
    return gates, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "loopspace", "__init__.py")):
        print("perfbench: run from the repository root; src/loopspace is missing", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        try:
            gates, found = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), spec)
        except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += gates.attempted
        failed += len(gates.failed)
        # with --workload all, each metric name is prefixed by its workload
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
