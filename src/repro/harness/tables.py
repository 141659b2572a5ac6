"""Table harnesses: one function per paper table.

Each ``tableN(spark, scale)`` runs the experiment on the stand-in suite and
returns a pandas DataFrame with the measured rows; ``to_markdown`` writes it
under results/. Sampling passes are cached per (graph, scheme, scale) so the
Table 3 sweep shares one sampling run across all finish methods, like the
paper's framework does.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.bfscc import bfscc
from repro.baselines.gap import gap_afforest, gap_sv
from repro.baselines.multistep import multistep
from repro.baselines.patwary import patwary_rm
from repro.baselines.primitives import gather_edges, map_edges
from repro.baselines.stinger_like import StingerLike
from repro.baselines.workeff import workeff_cc
from repro.core.framework import connectivity, finish_with_sample, run_sampling
from repro.core.streaming import StreamingConnectIt
from repro.graphs import suite
from repro.graphs.ground_truth import canonicalize, cc_labels, same_partition
from repro.graphs.stats import graph_stats
from repro.unionfind import UFSpec

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

_SAMPLE_CACHE: dict[tuple, tuple] = {}


def cached_sample(spark: SparkSession, name: str, scheme: str, scale: str):
    """One sampling pass per (graph, scheme, scale), shared across finishes.

    The time is of a warm pass. The graph's edge table is built first, and one
    untimed pass warms up the JVM (on the first graph) and the query's code
    paths; sampling is seeded, so the timed pass returns the same sample.
    """
    key = (name, scheme, scale)
    if key not in _SAMPLE_CACHE:
        g = suite.get(name, scale)
        g.df(spark)
        run_sampling(spark, g, scheme)
        t0 = time.perf_counter()
        sample = run_sampling(spark, g, scheme)
        _SAMPLE_CACHE[key] = (sample, time.perf_counter() - t0)
    return _SAMPLE_CACHE[key]


def _truth(g) -> np.ndarray:
    return canonicalize(cc_labels(g.n, g.src, g.dst))


def df_to_markdown(df: pd.DataFrame) -> str:
    """Minimal markdown table writer (tabulate is not installed offline)."""

    def fmt(x) -> str:
        if isinstance(x, float):
            return f"{x:.4g}"
        return "" if x is None else str(x)

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
PASSES = 3  # timed passes per Table 1/4/5 cell


def _spread(times: list[float]) -> tuple[float, float, float]:
    """Median, min and max of one cell's pass times."""
    return float(np.median(times)), min(times), max(times)


def table1(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """Massive-graph race: ConnectIt fastest vs our implemented systems on the
    Hyperlink stand-ins (paper Table 1 compares against other publications'
    reported numbers; our comparators are the same systems rebuilt here).

    Each cell is warm: the graph's edge table is built first and every system
    runs once untimed, then ``PASSES`` timed passes rotate the system order,
    so no system always runs first. A cell is the median pass with its
    min–max."""
    rows = []
    for name in ("HL14", "HL12"):
        g = suite.get(name, scale)
        g.df(spark)
        truth = _truth(g)
        systems = {
            "ConnectIt (kout + UF-Rem-CAS)": lambda: connectivity(spark, g, "kout", "uf-rem-cas"),
            "BFSCC (Ligra)": lambda: bfscc(spark, g),
            "WorkeffCC (Shun et al.)": lambda: workeff_cc(spark, g),
            "MultiStep (Slota et al.)": lambda: multistep(spark, g),
            "GAP-SV": lambda: gap_sv(spark, g),
            "GAP-Afforest": lambda: gap_afforest(spark, g),
        }
        names = list(systems)
        times: dict[str, list[float]] = {s: [] for s in names}
        for sysname in names:
            assert same_partition(np.asarray(systems[sysname]()[0]), truth), (name, sysname)
        for p in range(PASSES):
            for sysname in names[p:] + names[:p]:
                t0 = time.perf_counter()
                labels, _ = systems[sysname]()
                times[sysname].append(time.perf_counter() - t0)
                assert same_partition(np.asarray(labels), truth), (name, sysname)
        for sysname in names:
            dt, lo, hi = _spread(times[sysname])
            rows.append({"graph": name, "system": sysname, "time_s": dt,
                         "time_s_min": lo, "time_s_max": hi, "n": g.n, "m": g.m})
    df = pd.DataFrame(rows)
    best = df[df.system.str.startswith("ConnectIt")].set_index("graph").time_s
    df["speedup_vs_connectit"] = [
        r.time_s / best[r.graph] for r in df.itertuples()
    ]
    return df


# ---------------------------------------------------------------- Table 2 --
def table2(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    return pd.DataFrame([graph_stats(suite.get(n, scale), spark) for n in suite.GRAPH_NAMES])


# ---------------------------------------------------------------- Table 3 --
UF_ALGOS = ("uf-early", "uf-hooks", "uf-async", "uf-rem-cas", "uf-rem-lock", "uf-jtb")
MIN_ALGOS = ("lt-prf", "sv", "labelprop")
LOW_DIAM = ("LJ", "CO", "TW", "FR", "CW")


def table3(
    spark: SparkSession,
    scale: str = "mini",
    graphs: tuple[str, ...] = tuple(suite.GRAPH_NAMES),
    include_systems: bool = True,
    minbased_nosample_graphs: tuple[str, ...] = LOW_DIAM + ("RO",),
    schemes: tuple[str, ...] = ("none", "kout", "bfs", "ldd"),
    systems_graphs: tuple[str, ...] | None = None,
) -> pd.DataFrame:
    """Static running times: algorithm family × sampling scheme × graph.

    Wall-clock plus the work metric (edges processed in the finish phase);
    the paper's ranking claims are checked against both. Min-based finishes
    without sampling are restricted to ``minbased_nosample_graphs``, and the
    system baselines to ``systems_graphs``, since dataflow rounds on
    high-diameter graphs otherwise dominate the sweep budget.
    """
    rows = []
    for name in graphs:
        g = suite.get(name, scale)
        truth = _truth(g)
        for scheme in schemes:
            if scheme == "bfs" and name == "RO" and scale != "test":
                continue  # diameter-many dataflow rounds; Table 6 reports it
            sample, sample_t = cached_sample(spark, name, scheme, scale)
            algos = list(UF_ALGOS) + [
                a for a in MIN_ALGOS if scheme != "none" or name in minbased_nosample_graphs
            ]
            for algo in algos:
                labels, info = finish_with_sample(
                    spark, g, sample, algo, sampling=scheme, sample_time=sample_t
                )
                assert same_partition(labels, truth), (name, scheme, algo)
                rows.append(
                    {
                        "graph": name,
                        "sampling": scheme,
                        "algorithm": algo,
                        "time_s": info["total_time_s"],
                        "finish_time_s": info["finish_time_s"],
                        "finish_edges": info["finish_edges"],
                        "rounds": info.get("rounds"),
                    }
                )
        if include_systems and (systems_graphs is None or name in systems_graphs):
            for sysname, fn in {
                "sys:BFSCC": lambda: bfscc(spark, g),
                "sys:WorkeffCC": lambda: workeff_cc(spark, g),
                "sys:MultiStep": lambda: multistep(spark, g),
                "sys:GAP-SV": lambda: gap_sv(spark, g),
                "sys:GAP-Afforest": lambda: gap_afforest(spark, g),
                "sys:PatwaryRM": lambda: patwary_rm(g),
            }.items():
                t0 = time.perf_counter()
                labels, info = fn()
                dt = time.perf_counter() - t0
                assert same_partition(np.asarray(labels), truth), (name, sysname)
                rows.append(
                    {"graph": name, "sampling": "-", "algorithm": sysname, "time_s": dt,
                     "finish_time_s": dt, "finish_edges": g.m_directed, "rounds": info.get("rounds")}
                )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------- Table 4 --
STREAM_ALGOS = {
    "UF-Early": UFSpec("uf-early", "naive"),
    "UF-Hooks": UFSpec("uf-hooks", "naive"),
    "UF-Async": UFSpec("uf-async", "naive"),
    "UF-Rem-CAS": UFSpec("uf-rem-cas", "naive", "split-one"),
    "UF-Rem-Lock": UFSpec("uf-rem-lock", "naive", "split-one"),
    "UF-JTB": UFSpec("uf-jtb", "two-try"),
    "Liu-Tarjan": "lt-root",
    "SV": "sv",
}


def table4(
    spark: SparkSession, scale: str = "mini", graphs: tuple[str, ...] | None = None
) -> pd.DataFrame:
    """Maximum streaming throughput: the whole graph as one COO batch, with
    the parent reads per update as its deterministic work count. Each cell is
    the median of ``PASSES`` fresh passes, with their min–max rates."""
    names = graphs or tuple(suite.GRAPH_NAMES) + ("RM", "BA")
    rows = []
    for name in names:
        g = suite.streaming_graph(name, scale) if name in ("RM", "BA") else suite.get(name, scale)
        edges = np.stack([g.src, g.dst], axis=1)
        truth = _truth(g)
        for algname, alg in STREAM_ALGOS.items():
            times = []
            for _ in range(PASSES):
                s = StreamingConnectIt(g.n, alg)
                t0 = time.perf_counter()
                s.process_batch(edges)
                times.append(time.perf_counter() - t0)
                assert same_partition(canonicalize(s.labels()), truth), (name, algname)
            dt, lo, hi = _spread(times)
            reads = s.state.c.as_dict()["parent_reads"]
            rows.append(
                {"graph": name, "algorithm": algname, "updates": len(edges),
                 "time_s": dt, "updates_per_s": len(edges) / dt,
                 "updates_per_s_min": len(edges) / hi, "updates_per_s_max": len(edges) / lo,
                 "reads_per_update": reads / len(edges)}
            )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------- Table 5 --
def table5(
    spark: SparkSession,
    scale: str = "mini",
    batch_sizes: tuple[int, ...] = (10, 100, 1_000, 10_000, 100_000, 1_000_000),
    total_edges: int | None = None,
) -> pd.DataFrame:
    """STINGER-analog vs ConnectIt UF-Rem-CAS{SplitAtomicOne}: batch inserts
    into an empty graph, per-batch latency and throughput. Each cell is the
    median of ``PASSES`` fresh passes over the stream, with their min–max
    rates; the two systems alternate pass by pass."""
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
        batches = np.split(edges[: nbatches * bs], nbatches)
        connectit, stinger = [], []
        for _ in range(PASSES):
            s = StreamingConnectIt(stream_g.n, UFSpec("uf-rem-cas", "naive", "split-one"))
            t0 = time.perf_counter()
            for b in batches:
                s.process_batch(b)
            connectit.append((time.perf_counter() - t0) / nbatches)
            st = StingerLike(stream_g.n)
            t0 = time.perf_counter()
            for b in batches:
                st.process_batch(b)
            stinger.append((time.perf_counter() - t0) / nbatches)
            assert same_partition(canonicalize(s.labels()), canonicalize(st.labels()))
        ct, ct_lo, ct_hi = _spread(connectit)
        stt, st_lo, st_hi = _spread(stinger)
        rows.append(
            {"batch": bs, "stinger_s": stt, "stinger_rate": bs / stt,
             "stinger_rate_min": bs / st_hi, "stinger_rate_max": bs / st_lo,
             "connectit_s": ct, "connectit_rate": bs / ct,
             "connectit_rate_min": bs / ct_hi, "connectit_rate_max": bs / ct_lo,
             "speedup": stt / ct}
        )
    return pd.DataFrame(rows)


# ------------------------------------------------------------- Tables 6/7 --
def table6(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """BFS and LDD sampling: time, coverage, inter-component edge fraction."""
    rows = []
    for name in suite.GRAPH_NAMES:
        g = suite.get(name, scale)
        b, bt = cached_sample(spark, name, "bfs", scale)
        l, lt = cached_sample(spark, name, "ldd", scale)
        rows.append(
            {"graph": name,
             "bfs_s": bt, "bfs_cov": b.coverage(), "bfs_ic": b.intercomponent_fraction(g),
             "ldd_s": lt, "ldd_cov": l.coverage(), "ldd_ic": l.intercomponent_fraction(g)}
        )
    return pd.DataFrame(rows)


def table7(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """k-out(Hybrid) sampling (k=2): time, coverage, inter-component fraction."""
    rows = []
    for name in suite.GRAPH_NAMES:
        g = suite.get(name, scale)
        s, t = cached_sample(spark, name, "kout", scale)
        rows.append(
            {"graph": name, "kout_s": t, "kout_cov": s.coverage(),
             "kout_ic": s.intercomponent_fraction(g)}
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------- Table 8 --
def table8(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """MapEdges / GatherEdges lower bounds vs fastest ConnectIt times."""
    rows = []
    for name in suite.GRAPH_NAMES:
        g = suite.get(name, scale)
        edges = g.df(spark)
        _, map_t = map_edges(edges)
        _, gather_t = gather_edges(spark, edges, g.n)
        _, info_ns = connectivity(spark, g, "none", "uf-rem-cas")
        sample, st_ = cached_sample(spark, name, "kout", scale)
        _, info_s = finish_with_sample(spark, g, sample, "uf-rem-cas", sampling="kout", sample_time=st_)
        rows.append(
            {"graph": name, "map_s": map_t, "gather_s": gather_t,
             "cc_nosample_s": info_ns["total_time_s"], "cc_sample_s": info_s["total_time_s"]}
        )
    return pd.DataFrame(rows)
