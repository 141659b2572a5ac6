"""Table harnesses: one function per paper table.

Each ``tableN(spark, scale)`` runs the experiment on the stand-in suite and
returns a pandas DataFrame with the measured rows; ``to_markdown`` writes it
under results/. Sampling passes are cached per (graph, scheme, scale) so the
Table 3 sweep shares one sampling run across all finish methods, like the
paper's framework does.
"""
from __future__ import annotations

import functools
import time
from collections.abc import Callable
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
from repro.core.sampling import SampleResult
from repro.core.streaming import StreamingConnectIt
from repro.graphs import suite
from repro.graphs.ground_truth import canonicalize, cc_labels, same_partition
from repro.graphs.stats import graph_stats
from repro.unionfind import UFSpec

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

_SAMPLE_CACHE: dict[tuple, SampleResult] = {}


def cached_sample(spark: SparkSession, name: str, scheme: str, scale: str) -> SampleResult:
    """One sampling pass per (graph, scheme, scale), shared across finishes.

    The sample is of a warm pass, and so is its ``time_s``. The graph's edge
    table is built first, and one untimed pass warms up the JVM (on the
    first graph) and the query's code paths; sampling is seeded, so the warm
    pass returns the same sample.
    """
    key = (name, scheme, scale)
    if key not in _SAMPLE_CACHE:
        g = suite.get(name, scale)
        g.df(spark)
        run_sampling(spark, g, scheme)
        _SAMPLE_CACHE[key] = run_sampling(spark, g, scheme)
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
PASSES = 3  # timed passes per warm cell (Tables 1, 3, 4, 5, 8)

# The other systems of Tables 1 and 3, each called as ``fn(spark, g)``.
SYSTEMS = {
    "BFSCC": bfscc, "WorkeffCC": workeff_cc, "MultiStep": multistep,
    "GAP-SV": gap_sv, "GAP-Afforest": gap_afforest, "PatwaryRM": patwary_rm,
}


def _spread(times: list[float]) -> tuple[float, float, float]:
    """Median, min and max of one cell's pass times."""
    return float(np.median(times)), min(times), max(times)


def _warm_passes(
    systems: dict[str, Callable[[], object]],
) -> tuple[dict[str, tuple[float, object]], dict[str, list[tuple[float, object]]]]:
    """Each system's cold pass and its ``PASSES`` warm passes, as (seconds, output) pairs.

    Every system runs once first, in the given order: the cold pass, which
    pays for what a first call builds (on the first system, the JVM's
    warm-up too) and is left out of the warm cells. The warm passes then
    rotate the system order, so no system always runs first.
    """
    names = list(systems)
    cold = {}
    for s, fn in systems.items():
        t0 = time.perf_counter()
        out = fn()
        cold[s] = (time.perf_counter() - t0, out)
    runs: dict[str, list[tuple[float, object]]] = {s: [] for s in names}
    for p in range(PASSES):
        for s in names[p:] + names[:p]:
            t0 = time.perf_counter()
            out = systems[s]()
            runs[s].append((time.perf_counter() - t0, out))
    return cold, runs


def _cells(
    systems: dict[str, Callable[[], tuple[np.ndarray, dict]]], truth: np.ndarray
) -> dict[str, tuple[float, float, float, float, dict]]:
    """Each system's warm cell: (median, min, max, cold pass seconds, info).

    Every warm pass's labels are checked against ``truth``; ``info`` is the
    first warm pass's."""
    cold, warm = _warm_passes(systems)
    cells = {}
    for s, runs in warm.items():
        assert all(same_partition(np.asarray(out[0]), truth) for _, out in runs), s
        cells[s] = (*_spread([t for t, _ in runs]), cold[s][0], runs[0][1][1])
    return cells


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
        systems = {f"ConnectIt ({scheme} + UF-Rem-CAS)": functools.partial(connectivity, spark, g, scheme, "uf-rem-cas")
                   for scheme in ("kout", "none")}
        systems.update({s: functools.partial(fn, spark, g) for s, fn in SYSTEMS.items()})
        for s, (dt, lo, hi, first, _) in _cells(systems, _truth(g)).items():
            rows.append({"graph": name, "system": s, "time_s": dt, "time_s_min": lo,
                         "time_s_max": hi, "first_s": first, "n": g.n, "m": g.m})
    df = pd.DataFrame(rows)
    best = df[df.system.str.startswith("ConnectIt")].groupby("graph").time_s.min()
    df["speedup_vs_connectit"] = df.time_s / df.graph.map(best)
    return df


# ---------------------------------------------------------------- Table 2 --
def table2(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    return pd.DataFrame([graph_stats(suite.get(n, scale), spark) for n in suite.GRAPH_NAMES])


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
    time of the warm sampling pass it shares with the other finishes
    (``cached_sample``).
    """
    rows = []
    for name in graphs:
        g = suite.get(name, scale)
        truth = _truth(g)
        for scheme in SCHEMES:
            sample = cached_sample(spark, name, scheme, scale)
            finishes = {a: functools.partial(finish_with_sample, spark, g, sample, a) for a in UF_ALGOS + MIN_ALGOS}
            for algo, (dt, lo, hi, _, info) in _cells(finishes, truth).items():
                rows.append(
                    {"graph": name, "sampling": scheme, "algorithm": algo, "time_s": sample.time_s + dt,
                     "finish_time_s": dt, "finish_edges": info["finish_edges"], "rounds": info["rounds"],
                     "parent_reads": info.get("counters", {}).get("parent_reads"),
                     "finish_time_s_min": lo, "finish_time_s_max": hi}
                )
        systems = {f"sys:{s}": functools.partial(fn, spark, g) for s, fn in SYSTEMS.items()}
        for sysname, (dt, lo, hi, _, info) in _cells(systems, truth).items():
            rows.append(
                {"graph": name, "sampling": "-", "algorithm": sysname, "time_s": dt,
                 "finish_time_s": dt, "finish_edges": g.m_directed, "rounds": info.get("rounds"),
                 "parent_reads": None, "finish_time_s_min": lo, "finish_time_s_max": hi}
            )
    return pd.DataFrame(rows).astype({"parent_reads": "Int64"})


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
        b = cached_sample(spark, name, "bfs", scale)
        l = cached_sample(spark, name, "ldd", scale)
        rows.append(
            {"graph": name,
             "bfs_s": b.time_s, "bfs_cov": b.coverage(), "bfs_ic": b.intercomponent_fraction(g),
             "ldd_s": l.time_s, "ldd_cov": l.coverage(), "ldd_ic": l.intercomponent_fraction(g)}
        )
    return pd.DataFrame(rows)


def table7(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """k-out(Hybrid) sampling (k=2): time, coverage, inter-component fraction."""
    rows = []
    for name in suite.GRAPH_NAMES:
        g = suite.get(name, scale)
        s = cached_sample(spark, name, "kout", scale)
        rows.append(
            {"graph": name, "kout_s": s.time_s, "kout_cov": s.coverage(),
             "kout_ic": s.intercomponent_fraction(g)}
        )
    return pd.DataFrame(rows)


# ---------------------------------------------------------------- Table 8 --
def table8(spark: SparkSession, scale: str = "mini") -> pd.DataFrame:
    """MapEdges / GatherEdges lower bounds vs ConnectIt, unsampled and with
    k-out sampling (UF-Rem-CAS finish), all warm (``_warm_passes``). A
    primitive's cell is the median of its own timing, which leaves out
    building GatherEdges' vertex table; a ConnectIt cell is the median
    end-to-end call. Each ``*_first_s`` cell is the same time in the cold
    pass."""
    rows = []
    for name in suite.GRAPH_NAMES:
        g = suite.get(name, scale)
        edges = g.df(spark)
        truth = _truth(g)
        cold, runs = _warm_passes({
            "map": lambda: map_edges(edges),
            "gather": lambda: gather_edges(spark, edges, g.n),
            "none": lambda: connectivity(spark, g, "none", "uf-rem-cas"),
            "kout": lambda: connectivity(spark, g, "kout", "uf-rem-cas"),
        })
        for scheme in ("none", "kout"):
            assert all(same_partition(out[0], truth) for _, out in runs[scheme]), (name, scheme)
        rows.append(
            {"graph": name,
             "map_s": float(np.median([out[1] for _, out in runs["map"]])),
             "map_first_s": cold["map"][1][1],
             "gather_s": float(np.median([out[1] for _, out in runs["gather"]])),
             "gather_first_s": cold["gather"][1][1],
             "cc_nosample_s": float(np.median([t for t, _ in runs["none"]])),
             "cc_nosample_first_s": cold["none"][0],
             "cc_sample_s": float(np.median([t for t, _ in runs["kout"]])),
             "cc_sample_first_s": cold["kout"][0]}
        )
    return pd.DataFrame(rows)
