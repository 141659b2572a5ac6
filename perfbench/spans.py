"""In-memory spans around each layer's public function, and per-layer metrics.

``instrumented`` wraps the layer functions at the module attributes their callers
look up (``run_components`` is wrapped in both ``repro.core.sampling`` and
``repro.core.uf_finish``) and restores them on exit; nothing under ``src/``
changes. A span records its layer, parent, op id, start and end, and the Spark
jobs submitted while it was open. Counters are read from the objects the layer
returns (``SampleResult``, ``UFState``, the ``info`` dict) after the op, outside
the timed region.
"""
from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable


def _sample_counters(args, result) -> dict:
    g = args[1]
    return {
        "edges_processed": result.edges_processed,
        "coverage": result.coverage(),
        "intercomponent_frac": result.intercomponent_fraction(g),
    }


def _rounds(args, result) -> dict:
    return {"rounds": result[1]}


def _framework_counters(args, result) -> dict:
    info = result[1]
    return {"finish_edges": info["finish_edges"], "contracted_n": info.get("contracted_n", 0)}


def _uf_counters(args, result) -> dict:
    c = result[1].c.as_dict()
    return {
        "edges": c["unions"],
        "hooks": c["hooks"],
        "parent_reads": c["parent_reads"],
        "parent_writes": c["parent_writes"],
        "cas_attempts": c["cas_attempts"],
        "cas_failures": c["cas_failures"],
        "tpl": c["total_path_length"],
        "mpl": c["max_path_length"],
    }


# (module, attribute, layer, counters) — each attribute is where a caller looks the function up.
SITES = (
    ("repro.graphs.generators", "Graph.df", "graphs", None),
    ("repro.core.framework", "run_sampling", "sampling", _sample_counters),
    ("repro.core.sampling", "kout_sample", "sampling", None),
    ("repro.core.sampling", "bfs_sample", "sampling", None),
    ("repro.core.sampling", "bfs_tree", "dataflow", _rounds),
    ("repro.core.minbased", "shiloach_vishkin", "minbased", _rounds),
    ("repro.core.framework", "finish_with_sample", "framework", _framework_counters),
    ("repro.core.sampling", "run_components", "unionfind", _uf_counters),
    ("repro.core.uf_finish", "run_components", "unionfind", _uf_counters),
)


class Tracer:
    """Spans of one run, kept in memory until the run writes them out."""

    def __init__(self, spark_jobs: Callable[[], int]):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._deferred: list[tuple[dict, Callable, tuple, object]] = []
        self._jobs = spark_jobs
        self.op = -1

    def _begin(self, layer: str, name: str) -> dict:
        s = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "layer": layer,
            "name": name,
            "jobs": -self._jobs(),
            "counters": {},
            "start": perf_counter(),
        }
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _end(self, s: dict) -> None:
        s["end"] = perf_counter()
        s["jobs"] += self._jobs()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str, new_op: bool = False):
        if new_op:
            self.op += 1
        s = self._begin(layer, name)
        try:
            yield s
        finally:
            self._end(s)

    def wrap(self, layer: str, name: str, fn: Callable, counters: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._begin(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(s)
            if counters is not None:
                self._deferred.append((s, counters, args, result))
            return result

        return traced

    def resolve_counters(self) -> None:
        for s, counters, args, result in self._deferred:
            s["counters"].update(counters(args, result))
        self._deferred.clear()


@contextmanager
def instrumented(tracer: Tracer):
    saved = []
    try:
        for module, attr, layer, counters in SITES:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__[name]
            setattr(owner, name, tracer.wrap(layer, f"{module}.{attr}", orig, counters))
            saved.append((owner, name, orig))
        yield tracer
    finally:
        for owner, name, orig in reversed(saved):
            setattr(owner, name, orig)


def _self_time(span: dict, children: list[dict]) -> float:
    """Duration minus the part of it that the children's intervals cover."""
    covered, edge = 0.0, span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], edge), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            edge = hi
    return span["end"] - span["start"] - covered


_SUMMED = ("edges_processed", "rounds", "finish_edges", "contracted_n", "edges", "hooks",
           "parent_reads", "parent_writes", "cas_attempts", "cas_failures", "tpl", "updates", "finds")


def per_op_layers(spans: list[dict]) -> list[dict]:
    """Per op: its wall time, its own self time, and per layer the inclusive time of
    the outermost spans, the summed self time, Spark jobs, span count and counters."""
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    ops: dict[int, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        self_s = _self_time(s, children.get(s["id"], []))
        if s["layer"] == "op":
            ops[s["op"]] = {"op_s": dur, "op_self_s": self_s, "layers": {}}
            continue
        lay = ops[s["op"]]["layers"].setdefault(s["layer"], {"s": 0.0, "self_s": 0.0, "spark_jobs": 0, "spans": 0})
        lay["self_s"] += self_s
        lay["spans"] += 1
        parent = by_id.get(s["parent"])
        while parent is not None and parent["layer"] != s["layer"]:
            parent = by_id.get(parent["parent"])
        if parent is None:  # outermost span of its layer in this op
            lay["s"] += dur
            lay["spark_jobs"] += s["jobs"]
        for k, v in s["counters"].items():
            if k == "mpl":
                lay[k] = max(lay.get(k, 0), v)
            elif k in _SUMMED:
                lay[k] = lay.get(k, 0) + v
            else:  # ratios of the op's input: keep the outermost value
                lay.setdefault(k, v)
    return [ops[k] for k in sorted(ops)]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics, each the mean over the traced ops (0 for a layer the ops never enter)."""
    ops = per_op_layers(spans)
    if not ops:
        return {}

    def mean(layer: str, key: str) -> float:
        return sum(op["layers"].get(layer, {}).get(key, 0) for op in ops) / len(ops)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "graphs.df_s": mean("graphs", "s"),
        "graphs.df_calls": mean("graphs", "spans"),
        "sampling.s": mean("sampling", "s"),
        "sampling.self_s": mean("sampling", "self_s"),
        "sampling.spark_jobs": mean("sampling", "spark_jobs"),
        "sampling.edges_processed": mean("sampling", "edges_processed"),
        "sampling.coverage": mean("sampling", "coverage"),
        "sampling.intercomponent_frac": mean("sampling", "intercomponent_frac"),
    }
    for layer in ("dataflow", "minbased"):
        s, rounds, jobs = mean(layer, "s"), mean(layer, "rounds"), mean(layer, "spark_jobs")
        m |= {
            f"{layer}.s": s,
            f"{layer}.rounds": rounds,
            f"{layer}.spark_jobs": jobs,
            f"{layer}.jobs_per_round": ratio(jobs, rounds),
            f"{layer}.s_per_round": ratio(s, rounds),
        }
    m |= {
        "framework.self_s": mean("framework", "self_s"),
        "framework.finish_edges": mean("framework", "finish_edges"),
        "framework.contracted_n": mean("framework", "contracted_n"),
    }
    uf_s, uf_edges, hooks = mean("unionfind", "s"), mean("unionfind", "edges"), mean("unionfind", "hooks")
    m |= {
        "unionfind.s": uf_s,
        "unionfind.calls": mean("unionfind", "spans"),
        "unionfind.edges": uf_edges,
        "unionfind.edges_per_s": ratio(uf_edges, uf_s),
        "unionfind.hooks": hooks,
        "unionfind.hook_ratio": ratio(hooks, uf_edges),
        "unionfind.parent_reads": mean("unionfind", "parent_reads"),
        "unionfind.parent_writes": mean("unionfind", "parent_writes"),
        "unionfind.cas_fail_ratio": ratio(mean("unionfind", "cas_failures"), mean("unionfind", "cas_attempts")),
        "unionfind.tpl": mean("unionfind", "tpl"),
        "unionfind.mpl": max(op["layers"].get("unionfind", {}).get("mpl", 0) for op in ops),
    }
    m |= {
        "streaming.update_s": mean("streaming.update", "s"),
        "streaming.query_s": mean("streaming.query", "s"),
        "streaming.parent_reads_per_update": ratio(
            mean("streaming.update", "parent_reads"), mean("streaming.update", "updates")
        ),
        "streaming.tpl_per_find": ratio(mean("streaming.query", "tpl"), mean("streaming.query", "finds")),
    }
    op_s = sum(op["op_s"] for op in ops) / len(ops)
    m["trace.unattributed_frac"] = ratio(sum(op["op_self_s"] for op in ops) / len(ops), op_s)
    return m
