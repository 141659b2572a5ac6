"""Table harnesses: one function per paper table.

Each ``tableN(spark, scale)`` runs the experiment on the stand-in suite and
returns a pandas DataFrame with the measured rows; ``to_markdown`` writes it
under results/. Every timed cell of the eight tables comes from one runner,
``_cells``: a cold pass, then ``PASSES`` warm passes in rotating order, each
pass's output checked. Sampling cells are cached per (graph, scheme, scale)
so Tables 3, 6 and 7 share one sampling run, and Table 3's finishes share it
as the paper's framework does.
"""
from __future__ import annotations

import functools
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.bfscc import bfscc
from repro.baselines.multistep import multistep
from repro.baselines.primitives import gather_edges, map_edges
from repro.baselines.stinger_like import StingerLike
from repro.baselines.workeff import workeff_cc
from repro.core.framework import connectivity, finish_with_sample, run_sampling
from repro.core.streaming import StreamingConnectIt
from repro.graphs import suite
from repro.graphs.generators import edge_frame
from repro.graphs.ground_truth import canonicalize, cc_labels, same_partition
from repro.graphs.stats import graph_stats
from repro.unionfind import UFSpec

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

PASSES = 3  # warm passes per cell


class Cell(NamedTuple):
    """One system's passes in a table cell, as ``_cells`` ran them."""

    first_s: float  # the cold pass's seconds
    times: tuple[float, ...]  # the PASSES warm passes, in pass order
    out: object  # the first warm pass's output

    @property
    def spread(self) -> tuple[float, float, float]:
        """Median, min and max of the warm passes' seconds."""
        return float(np.median(self.times)), min(self.times), max(self.times)


def _cells(
    systems: dict[str, Callable[[], object]], check: Callable[[str, object], bool]
) -> dict[str, Cell]:
    """Time every system's passes and check every pass's output.

    Every system runs once first, in the given order: the cold pass, which
    pays for what a first call builds (on the first system, the JVM's
    warm-up too) and is left out of the warm cell. The ``PASSES`` warm passes
    then rotate the system order, so no system always runs first. A pass
    whose output fails ``check(system, output)`` raises ``AssertionError``.
    A cell keeps only the first warm pass's output: every other output is
    dropped once checked, before the next pass runs, so a table holds at
    most two outputs of a system at once.
    """
    names = list(systems)
    times: dict[str, list[float]] = {s: [] for s in names}
    kept: dict[str, object] = {}
    for p in range(1 + PASSES):
        k = max(p - 1, 0)  # pass 0 is the cold pass; warm pass p rotates by p - 1
        for s in names[k:] + names[:k]:
            t0 = time.perf_counter()
            out = systems[s]()
            times[s].append(time.perf_counter() - t0)
            if not check(s, out):
                raise AssertionError(f"{s}: pass {p} failed its check")
            if p == 1:
                kept[s] = out
            del out  # before the next pass builds its own
    return {s: Cell(t[0], tuple(t[1:]), kept[s]) for s, t in times.items()}


_SAMPLE_CACHE: dict[tuple, Cell] = {}


def cached_sample(spark: SparkSession, name: str, scheme: str, scale: str) -> Cell:
    """The ``run_sampling`` cell of one (graph, scheme, scale), shared by
    Tables 3, 6 and 7.

    The graph's edge table is built first, so no pass pays for it. Every
    pass's sample must refine the true components. Sampling is seeded, so
    every pass returns the same sample; the cell keeps the first warm
    pass's (``out``).
    """
    key = (name, scheme, scale)
    if key not in _SAMPLE_CACHE:
        g = suite.get(name, scale)
        g.df(spark)
        truth = _truth(g)
        _SAMPLE_CACHE[key] = _cells(
            {scheme: functools.partial(run_sampling, spark, g, scheme)},
            lambda _, sample: np.array_equal(truth[sample.labels], truth),
        )[scheme]
    return _SAMPLE_CACHE[key]


def _truth(g) -> np.ndarray:
    return canonicalize(cc_labels(g.n, g.src, g.dst))


def df_to_markdown(df: pd.DataFrame) -> str:
    """Minimal markdown table writer (tabulate is not installed offline)."""

    def fmt(x) -> str:
        if isinstance(x, float):
            return f"{x:.4g}"
        return "" if x is None or x is pd.NA else str(x)

    cols = list(df.columns)
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for _, row in df.iterrows():
        lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


def to_markdown(df: pd.DataFrame, name: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.md"
    path.write_text(df_to_markdown(df))
    return path


# ---------------------------------------------------------------- Table 1 --
# The other systems of Tables 1 and 3, each called as ``fn(spark, g)``. Three
# are ConnectIt configurations: the GAP suite's [12] Shiloach-Vishkin is the
# unsampled SV finish; its Afforest [104] is kout-afforest sampling (first k
# neighbours) with a UF-Rem-CAS finish that skips the most frequent
# component; PatwaryRM [84] is the unsampled UF-Rem-Lock with SpliceAtomic.
SYSTEMS = {
    "BFSCC": bfscc, "WorkeffCC": workeff_cc, "MultiStep": multistep,
    "GAP-SV": functools.partial(connectivity, sampling="none", finish="sv"),
    "GAP-Afforest": functools.partial(connectivity, sampling="kout", finish="uf-rem-cas",
                                      sampling_opts={"variant": "afforest"}),
    "PatwaryRM": functools.partial(connectivity, sampling="none", finish="uf-rem-lock",
                                   uf_spec=UFSpec("uf-rem-lock", splice="splice")),
}


def table1(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """Massive-graph race: ConnectIt fastest vs our implemented systems on the
    Hyperlink stand-ins (paper Table 1 compares against other publications'
    reported numbers; our comparators are the same systems rebuilt here).

    Each cell is warm (``_cells``, after the graph's edge table is built):
    the median pass with its min–max, and ``first_s``, the cold pass.
    ConnectIt runs with and without k-out sampling, and
    ``speedup_vs_connectit`` divides by the faster of the two on each graph,
    as the paper reports ConnectIt's fastest time."""
    rows = []
    for name in ("HL14", "HL12"):
        g = suite.get(name, scale)
        g.df(spark)
        truth = _truth(g)
        systems = {f"ConnectIt ({scheme} + UF-Rem-CAS)": functools.partial(connectivity, spark, g, scheme, "uf-rem-cas")
                   for scheme in ("kout", "none")}
        systems.update({s: functools.partial(fn, spark, g) for s, fn in SYSTEMS.items()})
        for s, cell in _cells(systems, lambda _, out: same_partition(out[0], truth)).items():
            dt, lo, hi = cell.spread
            rows.append({"graph": name, "system": s, "time_s": dt, "time_s_min": lo,
                         "time_s_max": hi, "first_s": cell.first_s, "n": g.n, "m": g.m})
    df = pd.DataFrame(rows)
    best = df[df.system.str.startswith("ConnectIt")].groupby("graph").time_s.min()
    df["speedup_vs_connectit"] = df.time_s / df.graph.map(best)
    return df


# ---------------------------------------------------------------- Table 2 --
def table2(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """Graph inputs (``graph_stats``) and each graph's load time: the median
    warm pass of ``edge_frame``, the one path from a graph's edge arrays to
    its Spark edge table, with its min–max (``_cells``). Every pass's table
    must hold every directed edge, counted outside the timed call."""
    graphs = {name: suite.get(name, scale) for name in suite.GRAPH_NAMES}
    cells = _cells({name: functools.partial(edge_frame, spark, g.src, g.dst) for name, g in graphs.items()},
                   lambda name, edges: edges.count() == graphs[name].m_directed)
    rows = []
    for name, g in graphs.items():
        dt, lo, hi = cells[name].spread
        rows.append(graph_stats(g) | {"load_time_s": dt, "load_time_s_min": lo, "load_time_s_max": hi})
    return pd.DataFrame(rows)


# ---------------------------------------------------------------- Table 3 --
UF_ALGOS = ("uf-early", "uf-hooks", "uf-async", "uf-rem-cas", "uf-rem-lock", "uf-jtb")
MIN_ALGOS = ("lt-prf", "sv", "labelprop")
SCHEMES = ("none", "kout", "bfs", "ldd")


def table3(
    spark: SparkSession, scale: str = "mini", graphs: tuple[str, ...] = tuple(suite.GRAPH_NAMES)
) -> pd.DataFrame:
    """Static running times: algorithm family × sampling scheme × graph, plus
    the other systems (``SYSTEMS``, rows ``sys:<name>``).

    Wall-clock plus the work metrics: edges processed in the finish phase and,
    for a union-find finish, its parent reads; the paper's ranking claims are
    checked against both. Every cell is warm (``_cells``): ``finish_time_s``
    is the median pass with its min–max, over the finishes of one (graph,
    scheme) or over the systems of one graph. A finish's ``time_s`` adds the
    median time of the sampling cell it shares with the other finishes
    (``cached_sample``), whose sample every finish starts from.
    """
    rows = []
    for name in graphs:
        g = suite.get(name, scale)
        truth = _truth(g)
        for scheme in SCHEMES:
            sampled = cached_sample(spark, name, scheme, scale)
            finishes = {a: functools.partial(finish_with_sample, spark, g, sampled.out, a)
                        for a in UF_ALGOS + MIN_ALGOS}
            for algo, cell in _cells(finishes, lambda _, out: same_partition(out[0], truth)).items():
                dt, lo, hi = cell.spread
                info = cell.out[1]
                rows.append(
                    {"graph": name, "sampling": scheme, "algorithm": algo, "time_s": sampled.spread[0] + dt,
                     "finish_time_s": dt, "finish_edges": info["finish_edges"], "rounds": info["rounds"],
                     "parent_reads": info.get("counters", {}).get("parent_reads"),
                     "finish_time_s_min": lo, "finish_time_s_max": hi}
                )
        systems = {f"sys:{s}": functools.partial(fn, spark, g) for s, fn in SYSTEMS.items()}
        for sysname, cell in _cells(systems, lambda _, out: same_partition(out[0], truth)).items():
            dt, lo, hi = cell.spread
            rows.append(
                {"graph": name, "sampling": "-", "algorithm": sysname, "time_s": dt,
                 "finish_time_s": dt, "finish_edges": g.m_directed, "rounds": cell.out[1].get("rounds"),
                 "parent_reads": None, "finish_time_s_min": lo, "finish_time_s_max": hi}
            )
    return pd.DataFrame(rows).astype({"parent_reads": "Int64"})


# ------------------------------------------------------------- Tables 4/5 --
STREAM_ALGOS = {
    "UF-Early": UFSpec("uf-early"),
    "UF-Hooks": UFSpec("uf-hooks"),
    "UF-Async": UFSpec("uf-async"),
    "UF-Rem-CAS": UFSpec(),
    "UF-Rem-Lock": UFSpec("uf-rem-lock"),
    "UF-JTB": UFSpec("uf-jtb"),
    "Liu-Tarjan": "lt-root",
    "SV": "sv",
}


def _fed(system, batches: list[np.ndarray]):
    """``system`` after it has processed every batch, in order."""
    for b in batches:
        system.process_batch(b)
    return system


def table4(
    spark: SparkSession, scale: str = "mini", graphs: tuple[str, ...] | None = None
) -> pd.DataFrame:
    """Maximum streaming throughput: the whole graph as one COO batch, with
    the parent reads per update as its deterministic work count. Each pass
    builds a fresh ``StreamingConnectIt`` and feeds it the batch; a cell is
    the median warm pass (``_cells``), with the min–max rates."""
    names = graphs or tuple(suite.GRAPH_NAMES) + ("RM", "BA")
    rows = []
    for name in names:
        g = suite.streaming_graph(name, scale) if name in ("RM", "BA") else suite.get(name, scale)
        edges = np.stack([g.src, g.dst], axis=1)
        truth = _truth(g)
        for algname, cell in _cells(
            {a: (lambda alg=alg: _fed(StreamingConnectIt(g.n, alg), [edges])) for a, alg in STREAM_ALGOS.items()},
            lambda _, s: same_partition(s.labels(), truth),
        ).items():
            dt, lo, hi = cell.spread
            reads = cell.out.state.c.as_dict()["parent_reads"]
            rows.append(
                {"graph": name, "algorithm": algname, "updates": len(edges),
                 "time_s": dt, "updates_per_s": len(edges) / dt,
                 "updates_per_s_min": len(edges) / hi, "updates_per_s_max": len(edges) / lo,
                 "reads_per_update": reads / len(edges)}
            )
    return pd.DataFrame(rows)


def table5(
    spark: SparkSession,
    scale: str = "mini",
    batch_sizes: tuple[int, ...] = (10, 100, 1_000, 10_000, 100_000, 1_000_000),
    total_edges: int | None = None,
) -> pd.DataFrame:
    """STINGER-analog vs ConnectIt UF-Rem-CAS{SplitAtomicOne}: batch inserts
    into an empty graph, per-batch latency and throughput. Each pass builds
    a fresh system and feeds it the stream batch by batch; a cell is the
    median warm pass (``_cells``) over the batches, with the min–max rates.
    Every pass's labels are checked against the components of the edges
    streamed."""
    n = {"test": 1 << 10, "mini": 1 << 14, "bench": 1 << 17}[scale]
    total = total_edges or {"test": 20_000, "mini": 200_000, "bench": 1_000_000}[scale]
    from repro.graphs.generators import rmat

    stream_g = rmat(n, total, a=0.5, b=0.1, c=0.1, seed=7, name="stream")
    edges = np.stack([stream_g.src, stream_g.dst], axis=1)[:total]
    rows = []
    for bs in batch_sizes:
        if bs > len(edges):
            continue
        nbatches = max(1, len(edges) // bs)
        streamed = edges[: nbatches * bs]
        batches = np.split(streamed, nbatches)
        s, d = streamed.T
        truth = cc_labels(stream_g.n, np.concatenate([s, d]), np.concatenate([d, s]))  # hooks src ← dst only
        # per-batch seconds; the cells, and the systems they keep, go with this batch size
        per_batch = {s: [t / nbatches for t in cell.spread] for s, cell in _cells(
            {"connectit": lambda: _fed(StreamingConnectIt(stream_g.n, STREAM_ALGOS["UF-Rem-CAS"]), batches),
             "stinger": lambda: _fed(StingerLike(stream_g.n), batches)},
            lambda _, system: same_partition(system.labels(), truth),
        ).items()}
        (ct, ct_lo, ct_hi), (stt, st_lo, st_hi) = per_batch["connectit"], per_batch["stinger"]
        rows.append(
            {"batch": bs, "stinger_s": stt, "stinger_rate": bs / stt,
             "stinger_rate_min": bs / st_hi, "stinger_rate_max": bs / st_lo,
             "connectit_s": ct, "connectit_rate": bs / ct,
             "connectit_rate_min": bs / ct_hi, "connectit_rate_max": bs / ct_lo,
             "speedup": stt / ct}
        )
    return pd.DataFrame(rows)


# ------------------------------------------------------------- Tables 6/7 --
def _sampling_row(spark: SparkSession, name: str, scale: str, schemes: tuple[str, ...]) -> dict:
    """One graph's row of Table 6 or 7: per scheme, the median sampling time
    with its min–max, coverage and inter-component fraction."""
    g = suite.get(name, scale)
    row = {"graph": name}
    for scheme in schemes:
        cell = cached_sample(spark, name, scheme, scale)
        dt, lo, hi = cell.spread
        sample = cell.out
        row |= {f"{scheme}_s": dt, f"{scheme}_s_min": lo, f"{scheme}_s_max": hi,
                f"{scheme}_cov": sample.coverage(), f"{scheme}_ic": sample.intercomponent_fraction(g)}
    return row


def table6(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """BFS and LDD sampling: time, coverage, inter-component edge fraction."""
    return pd.DataFrame([_sampling_row(spark, name, scale, ("bfs", "ldd")) for name in suite.GRAPH_NAMES])


def table7(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """k-out(Hybrid) sampling (k=2): time, coverage, inter-component fraction."""
    return pd.DataFrame([_sampling_row(spark, name, scale, ("kout",)) for name in suite.GRAPH_NAMES])


# ---------------------------------------------------------------- Table 8 --
def table8(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """MapEdges / GatherEdges lower bounds vs ConnectIt, unsampled and with
    k-out sampling (UF-Rem-CAS finish), all warm (``_cells``). Every cell is
    the median whole call, so GatherEdges' includes building its vertex
    table, as a keyed edgeMap round pays for its frontier table. A
    primitive's row count must be the number of vertices with an edge; a
    ConnectIt call is checked against the true labels. Each ``*_first_s``
    cell is the cold pass."""
    rows = []
    for name in suite.GRAPH_NAMES:
        g = suite.get(name, scale)
        edges = g.df(spark)
        truth = _truth(g)
        active = len(np.unique(g.src))
        cells = _cells(
            {"map": lambda: map_edges(edges),
             "gather": lambda: gather_edges(spark, edges, g.n),
             "cc_nosample": lambda: connectivity(spark, g, "none", "uf-rem-cas"),
             "cc_sample": lambda: connectivity(spark, g, "kout", "uf-rem-cas")},
            lambda s, out: out[0] == active if s in ("map", "gather") else same_partition(out[0], truth),
        )
        row = {"graph": name}
        for s, c in cells.items():
            row |= {f"{s}_s": c.spread[0], f"{s}_first_s": c.first_s}
        rows.append(row)
    return pd.DataFrame(rows)
