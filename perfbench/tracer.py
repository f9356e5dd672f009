"""Outside-in tracer for the loopspace layers.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper, in the defining module and in every loopspace
module that imported the name (``canonical`` is imported by name into
``homology``, ``paths``, ``suites``, ``cobar`` and ``fileformat``), and
wraps the public methods of ``SimplicialPresentation`` on the class, so
the recursive ``face`` calls are counted too.  Nothing in the program is
edited; ``uninstall`` puts the originals back.  References held inside
containers (``suites.SUITES``) are not rebound, so the benchmark calls
every function through its module attribute.

Each wrapped call opens a span with a link to the enclosing span.  Self
time is a span's duration minus the time covered by its child calls.  The
simplex operators in ``AGGREGATED`` run over a million times per workload,
so for them the tracer keeps running counts and self time in place and
records no span; their time is still subtracted from the enclosing span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from array import array

MODULES = ("simplicial", "words", "chains", "homology", "cubes", "paths", "cobar", "suites")
TRACED_CLASSES = (("simplicial", "SimplicialPresentation"),)
AGGREGATED = frozenset(
    {"simplicial.face", "simplicial.degenerate", "simplicial.push_degeneracy"}
)
# counts derived from arguments and results at the layer boundary (see
# Tracer._post_hooks)
COUNTERS = (
    "words.enumerate_words.words_out",
    "homology.degree_basis.basis_words_out",
    "homology.degree_basis.canonical_calls",
    "words.canonical.distinct_inputs",
    "homology.boundary_matrix.nnz",
    "homology.boundary_matrix.cells",
    "homology.smith_normal_form.rank_sum",
    "homology.smith_normal_form.max_factor",
    "chains.boundary_word.terms_out",
    "cobar.compare_theorem2.words_checked",
    "suites.checks",
    "suites.checks_failed",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.active: list[int] = []  # open calls per function (canonical inside degree_basis)
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.canonical_inputs: set = set()  # what an input-keyed memo would store
        # frames: [time covered by children, id of the enclosing span]
        self.stack: list[list] = [[0.0, -1]]
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._restore: list[tuple[object, str, object]] = []

    # -- derived counts, taken from arguments and results -------------------

    def _bump(self, key: str, amount) -> None:
        self.counters[key] += amount

    def _post_hooks(self) -> dict:
        def canonical(args, kwargs, result):
            if self.active[self.index["homology.degree_basis"]]:
                self._bump("homology.degree_basis.canonical_calls", 1)
            zx, letters, *rest = args
            key = (id(zx), letters, *rest, *sorted(kwargs.items()))
            if key not in self.canonical_inputs:
                self.canonical_inputs.add(key)
                self._bump("words.canonical.distinct_inputs", 1)

        def boundary_matrix(args, kwargs, result):
            m = result[0]
            self._bump("homology.boundary_matrix.nnz", len(m.entries))
            self._bump("homology.boundary_matrix.cells", m.rows * m.cols)

        def smith(args, kwargs, result):
            self._bump("homology.smith_normal_form.rank_sum", len(result))
            key = "homology.smith_normal_form.max_factor"
            self.counters[key] = max(self.counters[key], *result, 0)

        def suite(args, kwargs, report):
            self._bump("suites.checks", sum(report["checks"].values()))
            self._bump("suites.checks_failed", sum(report["failed"].values()))

        def length(key):
            return lambda args, kwargs, result: self._bump(key, len(result))

        def theorem2(args, kwargs, result):
            self._bump("cobar.compare_theorem2.words_checked", result["checked"])

        return {
            "words.canonical": canonical,
            "words.enumerate_words": length("words.enumerate_words.words_out"),
            "homology.degree_basis": length("homology.degree_basis.basis_words_out"),
            "homology.boundary_matrix": boundary_matrix,
            "homology.smith_normal_form": smith,
            "chains.boundary_word": length("chains.boundary_word.terms_out"),
            "cobar.compare_theorem2": theorem2,
            "suites.cubical_suite": suite,
            "suites.dsq_suite": suite,
            "suites.leibniz_suite": suite,
            "suites.theorem2_suite": suite,
            "suites.covering_suite": suite,
        }

    # -- wrappers -----------------------------------------------------------

    def _register(self, qual: str) -> int:
        idx = len(self.names)
        self.names.append(qual)
        self.index[qual] = idx
        self.calls.append(0)
        self.self_s.append(0.0)
        self.active.append(0)
        return idx

    def _aggregated(self, idx: int, fn):
        stack, calls, self_s, clock = self.stack, self.calls, self.self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[0] += dur
                self_s[idx] += dur - frame[0]
                calls[idx] += 1

        return wrapper

    def _spanned(self, idx: int, fn, post):
        stack, calls, self_s, active = self.stack, self.calls, self.self_s, self.active
        parents, names, starts, ends = (
            self.span_parent, self.span_name, self.span_start, self.span_end,
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(starts)
            frame = [0.0, sid]
            stack.append(frame)
            parents.append(parent[1])
            names.append(idx)
            ends.append(0.0)
            active[idx] += 1
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[idx] -= 1
                dur = end - start
                ends[sid] = end
                parent[0] += dur
                self_s[idx] += dur - frame[0]
                calls[idx] += 1
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _wrapper(self, qual: str, fn, hooks):
        idx = self._register(qual)
        if qual in AGGREGATED:
            return self._aggregated(idx, fn)
        return self._spanned(idx, fn, hooks.get(qual))

    def install(self) -> None:
        hooks = self._post_hooks()
        mods = {m: importlib.import_module(f"loopspace.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}  # id(original) -> wrapper
        for m, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrapped[id(obj)] = self._wrapper(f"{m}.{name}", obj, hooks)
        # rebind in every loaded loopspace module that holds the function
        for modname, mod in list(sys.modules.items()):
            if modname != "loopspace" and not modname.startswith("loopspace."):
                continue
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, w)
        for m, cls_name in TRACED_CLASSES:
            cls = getattr(mods[m], cls_name)
            for name, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not name.startswith("_"):
                    self._restore.append((cls, name, obj))
                    setattr(cls, name, self._wrapper(f"{m}.{name}", obj, hooks))
        missing = set(hooks) - set(self.index)
        if missing:
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self time, derived counts, and self time
        summed by module."""
        functions = {
            n: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, n in enumerate(self.names)
            if self.calls[i]
        }
        modules: dict[str, float] = {}
        for i, n in enumerate(self.names):
            m = n.split(".", 1)[0]
            modules[m] = modules.get(m, 0.0) + self.self_s[i]
        return {
            "functions": functions,
            "counters": dict(self.counters),
            "module_self_s": modules,
            "traced": self.names,
            "spans": len(self.span_start),
        }

    def write(self, path: str) -> None:
        """Write the summary to ``path`` and every span to ``path`` with
        ``.spans`` appended: four native arrays of equal length (name
        index, parent span or -1, start, end) written one after another,
        streamed so the trace costs no extra memory."""
        doc = self.summary()
        doc["span_file"] = {
            "path": os.path.basename(path) + ".spans",
            "arrays": [["name", "q"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "length": len(self.span_start),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with open(path + ".spans", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
