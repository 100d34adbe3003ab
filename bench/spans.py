"""Layer tracer: wraps commlab entry points from outside the package.

Each wrapped call is a span (name, start, end, parent span, process).  A
span's self time is its duration minus the durations of its direct child
spans.  Spans stay in memory; ``layer_metrics`` folds them into the
per-layer metrics the benchmark reports.

Rules the wrapping keeps:

- every module binding of a wrapped function is replaced, because names
  such as ``enumerate_terms`` are imported into several modules;
- a recursive entry point (``SymbolicGrid.eval_ids``) records only its
  outermost call;
- an entry point the program no longer has is reported as absent, and its
  metrics read 0;
- nothing submitted to the process pool is wrapped.  A forked pool worker
  inherits the wrappers and traces itself; at exit it writes its spans and
  totals to the output directory, and ``merge_workers`` adds them in.  Pool
  workers that are not forked are not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name); the span name keys the metrics below.
ENTRY_POINTS = [
    ("commlab.cubes", "search_tc_witness", "search"),
    ("commlab.cubes", "_grid_term_has_witness", "kernel"),
    ("commlab.cubes", "_scan_term_naive", "replay"),
    ("commlab._grid", "SymbolicGrid.eval_codes", "eval_codes"),
    ("commlab._grid", "SymbolicGrid.eval_ids", "eval_ids"),
    ("commlab.verifier", "check_nfequal", "nfequal"),
    ("commlab.verifier", "check_corner_lemma", "corner_lemma"),
    ("commlab.verifier", "check_term_lemma", "term_lemma"),
    ("commlab.verifier", "verify_top_commutator", "top_commutator"),
    ("commlab.verifier", "search_np1_failure", "np1_no_failure"),
    ("commlab.verifier", "search_control", "control_search"),
    ("commlab.verifier", "run_chain_roundtrips", "simplicity_chains"),
    ("commlab.verifier", "_corner_violation", "corner_scan"),
    ("commlab.terms", "enumerate_terms", "enumerate"),
    ("commlab.elements", "bounded_subuniverse", "subuniverse"),
    ("commlab.elements", "eval_f", "eval_f"),
    ("commlab.finengine", "cube_subpower", "subpower"),
    ("commlab.finengine", "cg", "cg"),
    ("commlab.finengine", "_forced_pairs", "forced_pairs"),
    ("commlab.finengine", "higher_commutator", "commutator"),
    ("commlab.finengine", "is_simple", "simple"),
]

# Called far too often for a span each: counted only.
COUNT_ONLY = {"eval_f"}
# Recursive: only the outermost call is a span.
OUTERMOST = {"eval_ids"}

CHECKS = [
    "nfequal", "corner_lemma", "term_lemma", "top_commutator",
    "np1_no_failure", "control_search", "simplicity_chains",
]

# name -> unit, in the order the benchmark reports them
LAYER_METRICS = {
    "cubes.search_s": "s",
    "cubes.kernel_s": "s",
    "cubes.kernel_calls": "count",
    "cubes.kernel_hits": "count",
    "cubes.kernel_term_ratio": "ratio",
    "cubes.replay_s": "s",
    "cubes.replay_assignments": "count",
    "cubes.pool_util": "ratio",
    "grid.eval_codes_s": "s",
    "grid.eval_codes_calls": "count",
    "grid.eval_ids_s": "s",
    "grid.eval_ids_calls": "count",
    "grid.cells": "count",
    **{f"verifier.{c}_s": "s" for c in CHECKS},
    "verifier.corner_scan_s": "s",
    "terms.enumerate_s": "s",
    "terms.emitted": "count",
    "elements.subuniverse_s": "s",
    "elements.eval_f_calls": "count",
    "fin.subpower_s": "s",
    "fin.subpower_calls": "count",
    "fin.cubes": "count",
    "fin.cg_s": "s",
    "fin.cg_calls": "count",
    "fin.commutator_rounds": "count",
    "fin.simple_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) or None when the entry point is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


def _arg(params: list[str], args, kwargs, name: str):
    """The value a call passes for parameter ``name``, or None."""
    if name in kwargs:
        return kwargs[name]
    pos = params.index(name) if name in params else len(args)
    return args[pos] if pos < len(args) else None


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start, end, parent index, pid]
        self.total = defaultdict(float)  # inclusive seconds per span name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)  # work counters
        self._stack: list[list] = []  # [span index, child seconds, start]
        self._active = defaultdict(int)

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str, record: bool = True):
        start = time.perf_counter()
        idx = None
        if record:
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append([name, start, None, parent, self.pid])
        frame = [idx, 0.0, start]
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, name: str, frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        dur = end - frame[2]
        if frame[0] is not None:
            self.spans[frame[0]][2] = end
        if self._stack:
            self._stack[-1][1] += dur
        self.total[name] += dur
        self.self_time[name] += dur - frame[1]
        self.calls[name] += 1

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer = self
        hooks = getattr(self, f"_hook_{name}", None)
        params = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid or (name in OUTERMOST and tracer._active[name]):
                return fn(*args, **kwargs)
            ctx = hooks(params, args, kwargs) if hooks else None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if ctx is not None:
                ctx(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator_wrapper(self, name: str, fn):
        # Time spent inside next() is the layer's; consumer work between
        # items is not.
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if os.getpid() != tracer.pid:
                return gen

            def timed():
                while True:
                    frame = tracer._enter(name, record=False)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name, frame)
                    tracer.counts[f"{name}_items"] += 1
                    yield item

            return timed()

        return wrapper

    # Hooks run before the call and return a callback for the result.

    def _hook_search(self, params, args, kwargs):
        stats = _arg(params, args, kwargs, "stats")
        if stats is None and "stats" in params:
            stats = importlib.import_module("commlab.cubes").SearchStats()
            kwargs["stats"] = stats
        if stats is None:
            return None
        before = stats.terms_scanned

        def done(_):
            self.counts["terms_scanned"] += stats.terms_scanned - before

        return done

    def _hook_kernel(self, params, args, kwargs):
        def done(hit):
            self.counts["kernel_hits"] += bool(hit)

        return done

    def _hook_replay(self, params, args, kwargs):
        stats = _arg(params, args, kwargs, "stats")
        if stats is None:
            return None
        before = stats.assignments_scanned

        def done(_):
            self.counts["replay_assignments"] += stats.assignments_scanned - before

        return done

    def _grid_cells(self, params, args, kwargs):
        # Cells of the full grid, counted once per outermost grid evaluation.
        if self._active["eval_codes"] or self._active["eval_ids"]:
            return None
        grid, m = _arg(params, args, kwargs, "self"), _arg(params, args, kwargs, "m")
        if grid is not None and m is not None:
            self.counts["grid_cells"] += len(grid.domain) ** m
        return None

    _hook_eval_codes = _grid_cells
    _hook_eval_ids = _grid_cells

    def _hook_subpower(self, params, args, kwargs):
        def done(cubes):
            self.counts["fin_cubes"] += len(cubes)

        return done

    def _hook_forced_pairs(self, params, args, kwargs):
        if self._active["commutator"]:
            self.counts["commutator_rounds"] += 1
        return None

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "commlab"]
        for module_name, path, name in ENTRY_POINTS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, fn = found
            if name in COUNT_ONLY:
                wrapper = self._count_wrapper(name, fn)
            elif inspect.isgeneratorfunction(fn):
                wrapper = self._generator_wrapper(name, fn)
            else:
                wrapper = self._span_wrapper(name, fn)
            targets = [owner] if inspect.isclass(owner) else loaded
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is fn:
                        self._patches.append((target, key, value))
                        setattr(target, key, wrapper)
        multiprocessing.util.register_after_fork(self, Tracer._start_worker)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    # -- forked pool workers ------------------------------------------------

    def _worker_file(self, parent: int, pid: int) -> Path:
        return self.out_dir / f"worker-{parent}-{pid}.json"

    def _start_worker(self) -> None:
        # Runs in a process forked by multiprocessing, after its finalizer
        # registry was cleared, so the exit hook below survives.
        if not self._patches:
            return
        parent = self.pid
        self._reset()
        path = self._worker_file(parent, self.pid)
        multiprocessing.util.Finalize(self, self._write_worker, args=(path,), exitpriority=10)

    def _write_worker(self, path: Path) -> None:
        data = {key: getattr(self, key) for key in ("spans", "total", "self_time", "calls", "counts")}
        path.write_text(json.dumps(data))

    def merge_workers(self) -> int:
        """Add in what the forked workers wrote; returns how many did."""
        files = sorted(self.out_dir.glob(f"worker-{self.pid}-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            path.unlink()
            offset = len(self.spans)
            for name, start, end, parent, pid in data["spans"]:
                parent = None if parent is None else parent + offset
                self.spans.append([name, start, end, parent, pid])
            for key in ("total", "self_time", "calls", "counts"):
                mine = getattr(self, key)
                for name, value in data[key].items():
                    mine[name] += value
        return len(files)

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Every recorded span as JSON: name, start, end, parent index, pid."""
        keys = ("name", "start", "end", "parent", "pid")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation layer metrics over ``ops`` traced operations."""
        t, st, c, k = self.total, self.self_time, self.calls, self.counts
        terms_scanned = k["terms_scanned"]
        out = {
            "cubes.search_s": t["search"],
            "cubes.kernel_s": st["kernel"],
            "cubes.kernel_calls": c["kernel"],
            "cubes.kernel_hits": k["kernel_hits"],
            "cubes.replay_s": t["replay"],
            "cubes.replay_assignments": k["replay_assignments"],
            "grid.eval_codes_s": t["eval_codes"],
            "grid.eval_codes_calls": c["eval_codes"],
            "grid.eval_ids_s": t["eval_ids"],
            "grid.eval_ids_calls": c["eval_ids"],
            "grid.cells": k["grid_cells"],
            **{f"verifier.{name}_s": t[name] for name in CHECKS},
            "verifier.corner_scan_s": st["corner_scan"],
            "terms.enumerate_s": t["enumerate"],
            "terms.emitted": k["enumerate_items"],
            "elements.subuniverse_s": t["subuniverse"],
            "elements.eval_f_calls": c["eval_f"],
            "fin.subpower_s": t["subpower"],
            "fin.subpower_calls": c["subpower"],
            "fin.cubes": k["fin_cubes"],
            "fin.cg_s": t["cg"],
            "fin.cg_calls": c["cg"],
            "fin.commutator_rounds": k["commutator_rounds"],
            "fin.simple_s": t["simple"],
        }
        out = {key: value / ops for key, value in out.items()}
        out["cubes.kernel_term_ratio"] = c["kernel"] / terms_scanned if terms_scanned else 0.0
        return out
