"""Run CLI jobs inside one interpreter, optionally with per-layer tracing.

Usage: python3 inproc.py REQUEST.json RESULT.json

The request names the package source directory, the mode and the jobs (CLI argument
lists).  Modes:

- ``plain``: call ``quiverdet.cli.main`` for each job, untraced;
- ``trace``: the same with the public functions of each module wrapped;
- ``memory``: enumerate the facets of one preset under tracemalloc.

The result holds each job's exit code, stdout and wall time, and in trace
mode the count and self time of every span name plus derived counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import tracemalloc

LAYERS = ("quiver", "chains", "cvm", "moves", "complex", "series", "verify", "cli")

# Per-cell helpers, called millions of times: a wrapper would cost more than
# their bodies, so their time stays in the calling span.
UNTRACED = {"cell_key", "cmp_T", "n_cells", "max_diagonal_chain", "padded_nw", "padded_se",
            "is_u_compatible", "can_extend", "corner_stats", "cmp_T_sets"}

# Constructors traced as spans, by layer.
CONSTRUCTORS = {"quiver": ("Instance",), "chains": ("CellSet", "BlockStats")}


class Tracer:
    """Counts and self times per span name; self time is a span minus its child spans."""

    def __init__(self):
        self.count: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {"dfs_nodes": 0, "moves_generated": 0,
                                         "facets": 0, "boundary_gens": 0, "shelling_pairs": 0}
        self._child = [0.0]  # child time of the enclosing span, innermost last

    def wrap(self, name, fn, post=None):
        count, self_s, child = self.count, self.self_s, self._child
        count.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                self_s[name] += dt - inner
                count[name] += 1
            if post is not None:
                post(result)
            return result

        return span

    def install(self):
        modules = {layer: importlib.import_module(f"quiverdet.{layer}") for layer in LAYERS}
        package = [m for n, m in sys.modules.items() if n.startswith("quiverdet")]
        posts = {
            "moves.chutable_moves": lambda r: self._add("moves_generated", len(r)),
            "moves.enumerate_facets": lambda r: self._add("facets", len(r)),
            "complex.boundary_generator_masks": lambda r: self._add("boundary_gens", len(r)),
            "complex.verify_shelling": lambda r: self._add(
                "shelling_pairs", len(r.restriction_counts) * (len(r.restriction_counts) - 1) // 2),
        }
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNTRACED or isinstance(obj, type)
                        or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, obj, posts.get(name))
                for other in package:
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            setattr(other, key, wrapped)
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                cls.__init__ = self.wrap(f"{layer}.{cls_name}", cls.__init__)
        search = getattr(modules["complex"], "_FaceSearch", None)
        if search is not None:
            run = search.run

            def counted_run(search_self, visit, *args, **kwargs):
                def counted(*vargs):
                    self.counters["dfs_nodes"] += 1
                    return visit(*vargs)
                return run(search_self, counted, *args, **kwargs)

            search.run = counted_run

    def _add(self, key, n):
        self.counters[key] += n


def run_jobs(jobs):
    cli = importlib.import_module("quiverdet.cli")
    out = []
    for argv in jobs:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - t0
        out.append({"argv": argv, "code": code, "wall_s": wall, "stdout": buf.getvalue()})
    return out


def bytes_per_facet(preset: str) -> dict:
    from quiverdet.cli import parse_preset
    from quiverdet.moves import enumerate_facets

    instance = parse_preset(preset)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    facets = enumerate_facets(instance)
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return {"preset": preset, "facets": len(facets), "retained_bytes": retained,
            "bytes_per_facet": retained / len(facets)}


def main(request_path: str, result_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])
    result: dict = {"mode": req["mode"]}
    if req["mode"] == "memory":
        result["memory"] = bytes_per_facet(req["preset"])
    else:
        tracer = None
        if req["mode"] == "trace":
            tracer = Tracer()
            tracer.install()
        result["jobs"] = run_jobs(req["jobs"])
        if tracer is not None:
            result["spans"] = {n: [tracer.count[n], tracer.self_s[n]] for n in tracer.count}
            result["counters"] = tracer.counters
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
