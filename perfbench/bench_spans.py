"""Spans recorded around calls into corrdyn, and the per-layer metrics made from them.

The tracer lives in the benchmark, not in the program: `install` replaces
chosen corrdyn functions by thin wrappers that open a span (name, start, end,
parent, run id, counts) on entry and close it on return.  Spans are kept in
memory and written as JSONL when the traced run ends.  A function that a later
version of corrdyn no longer has is not wrapped; every metric that depends on
it is reported absent with the reason, and nothing else changes.

A span's self time is the wall time during which it is the innermost open
span.  When spans on several threads are innermost at once (the raster thread
pool), each gets an equal share of that interval, so the self times of one run
add up to the wall time of its root span.  Parent links, not summed
durations, decide what is nested: a chained `forward_batch` calls itself on
each factor, and its inner calls are children of the outer one.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        # span name, "<span>:counts" or "sphere.points" -> why it was not recorded
        self.absent: dict[str, str] = {}
        self.point_objects = itertools.count()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1]["id"]
        elif stack is not self._main_stack:
            # a pool thread: its work was submitted by the main thread's open span
            try:
                parent = self._main_stack[-1]["id"]
            except IndexError:
                parent = None
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": parent,
            "run": self.run_id,
            "thread": threading.get_ident(),
            "counts": {},
        }
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack().pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            meta = {
                "meta": True,
                "run": self.run_id,
                "absent": self.absent,
                "point_objects": next(self.point_objects),
            }
            fh.write(json.dumps(meta) + "\n")

    def uninstall(self) -> None:
        """Put back every attribute `install` replaced."""
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One corrdyn function to wrap.

    counts(args, kwargs, result, pre) returns counts for the span; pre(args,
    kwargs) runs before the call.  For a generator, counts(args, kwargs, item,
    state) runs on each item and the span times one `next`.
    """

    span: str
    module: str
    attr: str  # "func" or "Class.method"
    counts: Callable | None = None
    pre: Callable | None = None
    generator: bool = False


def peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM), in MB.

    Not ru_maxrss: for a process started by fork or vfork and exec, Linux
    carries the parent's RSS high-water mark over into the child's
    ru_maxrss (RUSAGE_SELF in the child and wait4 in the parent alike).
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("/proc/self/status has no VmHWM line")


def _points(args, kwargs, result, pre):
    return {"points": int(np.asarray(args[1]).size)}


def _nodes(args, kwargs, result, pre):
    return {"nodes": int(args[0].node_count)}


def _rss_delta(args, kwargs, result, pre):
    return {"rss_delta_mb": peak_rss_mb() - pre}


def _atoms(args, kwargs, result, pre):
    clouds = result.values() if isinstance(result, dict) else [result]
    return {"atoms": sum(len(c.atoms) for c in clouds)}


ENERGY_MAX_ATOMS = 4096  # energy_distance's default subsample size


def _energy_pairs(args, kwargs, result, pre):
    cap = kwargs.get("max_atoms", args[2] if len(args) > 2 else ENERGY_MAX_ATOMS)
    nx, ny = (min(len(c.atoms), cap) for c in args[:2])
    pairs = nx * ny + nx * nx + ny * ny
    # computed, not measured: each pair reads 3 float64 differences, writes 1 distance
    return {"pairs": pairs, "bytes": pairs * 4 * 8}


def _pixels(args, kwargs, result, pre):
    return {"pixels": int(result.width) * int(result.height)}


def _bytes_written(args, kwargs, result, pre):
    data = args[1]
    return {"bytes": len(data.encode("utf-8")) if isinstance(data, str) else len(data)}


def _pair_counts(args, kwargs, item, state):
    """Candidate and kept pairs of one level of `_propagate_pairs`.

    Candidates at level l are the d1 x d1 children of each pair kept at level
    l-1 plus the sibling pairs of each valid node at level l-1, as the
    function builds them (before the validity filter).
    """
    tree = args[0]
    ell, pi, _pj, truncated = item
    counts = {}
    if ell >= 1:
        d1 = tree.d1
        parents = int(tree.levels[ell - 1]["valid"].sum())
        counts["pairs_candidate"] = state.get("prev", 0) * d1 * d1 + parents * d1 * (d1 - 1) // 2
        if truncated:
            counts["truncated"] = 1
        else:
            counts["pairs_kept"] = int(pi.size)
    state["prev"] = 0 if pi is None else int(pi.size)
    return counts


TARGETS = (
    Target("config.build", "corrdyn.config", "build_correspondence"),
    Target("cli.write", "corrdyn.config", "write_text", _bytes_written),
    Target("cli.write", "corrdyn.config", "write_bytes", _bytes_written),
    Target("entropy.estimate", "corrdyn.entropy", "entropy_estimate", _rss_delta,
           pre=lambda args, kwargs: peak_rss_mb()),
    Target("entropy.tree", "corrdyn.entropy", "_LevelTree.__init__", _nodes),
    Target("entropy.grow", "corrdyn.entropy", "_LevelTree._grow"),
    Target("entropy.propagate", "corrdyn.entropy", "_propagate_pairs", _pair_counts,
           generator=True),
    Target("entropy.greedy", "corrdyn.entropy", "_greedy_count"),
    Target("correspondence.forward_batch", "corrdyn.correspondence",
           "Correspondence.forward_batch", _points),
    Target("correspondence.forward", "corrdyn.correspondence", "Correspondence.forward"),
    Target("graphpoly.fiber_batch", "corrdyn.graphpoly", "GraphPolynomial.fiber_batch", _points),
    Target("graphpoly.fiber", "corrdyn.graphpoly", "GraphPolynomial.fiber"),
    Target("roots.solve", "corrdyn.roots", "roots_with_clusters"),
    Target("sphere.net", "corrdyn.sphere", "fibonacci_sphere_points"),
    Target("measures.pullback", "corrdyn.measures", "pullback_dirac_tree_levels", _atoms),
    Target("measures.pullback", "corrdyn.measures", "pullback_dirac_mc", _atoms),
    Target("measures.merge", "corrdyn.measures", "_merge_atoms"),
    Target("measures.csv", "corrdyn.measures", "WeightedCloud.to_csv"),
    Target("measures.energy", "corrdyn.measures", "energy_distance", _energy_pairs),
    Target("raster.render", "corrdyn.raster", "render_survival_set", _pixels),
    Target("raster.mask", "corrdyn.raster", "_region_mask"),
)


def _count(rec: Recorder, t: Target, span: dict, *args) -> None:
    """Attach counts to span; a count that no longer fits corrdyn's code is marked absent."""
    try:
        span["counts"] = t.counts(*args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        rec.absent.setdefault(t.span + ":counts", f"counting {t.attr} failed: {exc!r}")


def _wrap_function(rec: Recorder, t: Target, orig):
    def wrapper(*args, **kwargs):
        pre = t.pre(args, kwargs) if t.pre else None
        span = rec.open(t.span)
        try:
            result = orig(*args, **kwargs)
            if t.counts:
                _count(rec, t, span, args, kwargs, result, pre)
            return result
        finally:
            rec.close(span)

    return wrapper


def _wrap_generator(rec: Recorder, t: Target, orig):
    def wrapper(*args, **kwargs):
        gen = orig(*args, **kwargs)
        state: dict = {}
        while True:
            span = rec.open(t.span)
            try:
                item = next(gen)
            except StopIteration:
                return
            else:
                if t.counts:
                    _count(rec, t, span, args, kwargs, item, state)
            finally:
                rec.close(span)
            yield item

    return wrapper


def install(rec: Recorder, targets=TARGETS) -> None:
    """Wrap every target that exists; record the others in rec.absent.

    A module-level function is also rebound in every corrdyn module that
    imported it by name, so calls through those names are traced too.
    """
    for t in targets:
        try:
            owner = importlib.import_module(t.module)
            *path, attr = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
        except (ImportError, AttributeError):
            rec.absent.setdefault(t.span, f"{t.module} has no {t.attr}")
            continue
        make = _wrap_generator if t.generator else _wrap_function
        wrapper = make(rec, t, orig)
        rec._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)
        if not path:
            for name, mod in list(sys.modules.items()):
                if mod is owner or not name.startswith("corrdyn"):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        rec._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
    _count_sphere_points(rec)


def _count_sphere_points(rec: Recorder) -> None:
    try:
        cls = importlib.import_module("corrdyn.sphere").SpherePoint
        orig = cls.__post_init__
    except (ImportError, AttributeError):
        rec.absent["sphere.points"] = "corrdyn.sphere.SpherePoint has no __post_init__"
        return
    counter = rec.point_objects

    def post_init(self):
        next(counter)
        orig(self)

    rec._undo.append((cls, "__post_init__", orig))
    cls.__post_init__ = post_init


def traced_call(rec: Recorder, name: str, fn, *args, **kwargs):
    """Run fn under a root span called name."""
    span = rec.open(name)
    try:
        return fn(*args, **kwargs)
    finally:
        rec.close(span)


# ---------------------------------------------------------------------------
# from spans to metrics
# ---------------------------------------------------------------------------

def read_jsonl(path: str) -> tuple[list[dict], dict]:
    spans, meta = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row.get("meta"):
                meta = row
            else:
                spans.append(row)
    return spans, meta


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span, by span id (see the module docstring)."""
    events = []
    for s in spans:
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    events.sort()
    parent = {s["id"]: s["parent"] for s in spans}
    out = {s["id"]: 0.0 for s in spans}
    open_children: dict[int, int] = {}
    active: set[int] = set()
    innermost: set[int] = set()
    prev = None
    for t, is_start, sid in events:
        if innermost and prev is not None and t > prev:
            share = (t - prev) / len(innermost)
            for k in innermost:
                out[k] += share
        prev = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            innermost.add(sid)
            if p in active:
                open_children[p] = open_children.get(p, 0) + 1
                innermost.discard(p)
        else:
            active.discard(sid)
            innermost.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    innermost.add(p)
    return out


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: which spans it reads and how.

    how: "self" (summed self time), "calls" / "sum:<count>" over the
    outermost spans of the name (a span whose parent chain holds no span of
    the same name), "all_calls" / "all_sum:<count>" over every span.
    """

    name: str
    unit: str
    spans: tuple
    how: str


LAYER_METRICS = (
    LayerMetric("entropy.self_s", "s", ("entropy.estimate",), "self"),
    LayerMetric("entropy.tree_s", "s", ("entropy.tree", "entropy.grow"), "self"),
    LayerMetric("entropy.propagate_s", "s", ("entropy.propagate",), "self"),
    LayerMetric("entropy.greedy_s", "s", ("entropy.greedy",), "self"),
    LayerMetric("entropy.tree_nodes", "count", ("entropy.tree",), "all_sum:nodes"),
    LayerMetric("entropy.pairs_candidate", "count", ("entropy.propagate",),
                "all_sum:pairs_candidate"),
    LayerMetric("entropy.pairs_kept", "count", ("entropy.propagate",), "all_sum:pairs_kept"),
    LayerMetric("entropy.truncated_depths", "count", ("entropy.propagate",), "all_sum:truncated"),
    LayerMetric("entropy.rss_delta_mb", "MB", ("entropy.estimate",), "all_sum:rss_delta_mb"),
    LayerMetric("correspondence.forward_batch_s", "s", ("correspondence.forward_batch",), "self"),
    LayerMetric("correspondence.forward_batch_calls", "count",
                ("correspondence.forward_batch",), "calls"),
    LayerMetric("correspondence.forward_batch_points", "count",
                ("correspondence.forward_batch",), "sum:points"),
    LayerMetric("correspondence.forward_s", "s", ("correspondence.forward",), "self"),
    LayerMetric("correspondence.forward_calls", "count", ("correspondence.forward",), "calls"),
    LayerMetric("graphpoly.fiber_batch_s", "s", ("graphpoly.fiber_batch",), "self"),
    LayerMetric("graphpoly.fiber_batch_calls", "count", ("graphpoly.fiber_batch",), "all_calls"),
    LayerMetric("graphpoly.fiber_batch_points", "count", ("graphpoly.fiber_batch",),
                "all_sum:points"),
    LayerMetric("graphpoly.fiber_s", "s", ("graphpoly.fiber",), "self"),
    LayerMetric("graphpoly.fiber_calls", "count", ("graphpoly.fiber",), "all_calls"),
    LayerMetric("roots.solve_s", "s", ("roots.solve",), "self"),
    LayerMetric("roots.solve_calls", "count", ("roots.solve",), "all_calls"),
    LayerMetric("sphere.net_s", "s", ("sphere.net",), "self"),
    LayerMetric("measures.pullback_s", "s", ("measures.pullback",), "self"),
    LayerMetric("measures.merge_s", "s", ("measures.merge",), "self"),
    LayerMetric("measures.atoms", "count", ("measures.pullback",), "sum:atoms"),
    LayerMetric("measures.csv_s", "s", ("measures.csv",), "self"),
    LayerMetric("measures.energy_s", "s", ("measures.energy",), "self"),
    LayerMetric("measures.energy_pairs", "count", ("measures.energy",), "all_sum:pairs"),
    LayerMetric("measures.energy_bytes", "B", ("measures.energy",), "all_sum:bytes"),
    LayerMetric("raster.self_s", "s", ("raster.render",), "self"),
    LayerMetric("raster.mask_s", "s", ("raster.mask",), "self"),
    LayerMetric("raster.pixels", "count", ("raster.render",), "all_sum:pixels"),
    LayerMetric("config.build_s", "s", ("config.build",), "self"),
    LayerMetric("cli.write_s", "s", ("cli.write",), "self"),
    LayerMetric("cli.bytes_written", "B", ("cli.write",), "sum:bytes"),
    LayerMetric("cli.self_s", "s", ("cli.main",), "self"),
)

# Metrics made from other metrics or from more than one span kind.
DERIVED_UNITS = {
    "entropy.pairs_kept_ratio": "ratio",
    "raster.branch_steps": "count",
    "sphere.point_objects": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _outermost(spans: list[dict], names: tuple, by_id: dict) -> list[dict]:
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = by_id.get(s["parent"])
        while p is not None and p["name"] not in names:
            p = by_id.get(p["parent"])
        if p is None:
            out.append(s)
    return out


def _has_ancestor(s: dict, name: str, by_id: dict) -> bool:
    p = by_id.get(s["parent"])
    while p is not None:
        if p["name"] == name:
            return True
        p = by_id.get(p["parent"])
    return False


def layer_metrics(spans: list[dict], meta: dict, untraced_wall_s: float):
    """(metrics, absent): metrics maps name -> (value, unit); absent maps name -> reason."""
    absent_spans = meta.get("absent", {})
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    metrics: dict[str, tuple[float, str]] = {}
    absent: dict[str, str] = {}
    for m in LAYER_METRICS:
        keys = m.spans if m.how == "self" else m.spans + tuple(n + ":counts" for n in m.spans)
        missing = [absent_spans[k] for k in keys if k in absent_spans]
        if missing:
            absent[m.name] = "; ".join(missing)
            continue
        chosen = [s for s in spans if s["name"] in m.spans]
        if m.how == "self":
            value = float(sum(selfs[s["id"]] for s in chosen))
        else:
            scope, _, key = m.how.partition(":")
            if not scope.startswith("all_"):
                chosen = _outermost(chosen, m.spans, by_id)
            if key:
                value = sum(s["counts"].get(key, 0) for s in chosen)
            else:
                value = len(chosen)
        metrics[m.name] = (value, m.unit)

    if "entropy.pairs_kept" in metrics:
        kept = metrics["entropy.pairs_kept"][0]
        cand = metrics["entropy.pairs_candidate"][0]
        metrics["entropy.pairs_kept_ratio"] = (kept / cand if cand else 0.0, "ratio")
    else:
        absent["entropy.pairs_kept_ratio"] = absent["entropy.pairs_kept"]

    for name in ("raster.render", "correspondence.forward_batch"):
        if name in absent_spans:
            absent["raster.branch_steps"] = absent_spans[name]
            break
    else:
        batches = _outermost(
            [s for s in spans if s["name"] == "correspondence.forward_batch"],
            ("correspondence.forward_batch",), by_id,
        )
        steps = sum(
            s["counts"].get("points", 0) for s in batches
            if _has_ancestor(s, "raster.render", by_id)
        )
        metrics["raster.branch_steps"] = (steps, "count")

    if "sphere.points" in absent_spans:
        absent["sphere.point_objects"] = absent_spans["sphere.points"]
    else:
        metrics["sphere.point_objects"] = (meta.get("point_objects", 0), "count")

    roots = [s for s in spans if s["parent"] is None]
    wall = sum(s["end"] - s["start"] for s in roots)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall_s, "s")
    return metrics, absent


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    return [(m.name, m.unit) for m in LAYER_METRICS] + list(DERIVED_UNITS.items())
