"""Index-based SCAN clustering (paper §5.2): GS*-Index and GS*-Query.

The index stores every edge's structural (cosine) similarity
σ(u,v) = |N[u] ∩ N[v]| / sqrt(d̄(u)·d̄(v)) over closed neighborhoods; it is
computed in Spark via a common-neighbor self-join. A query (ε, μ) selects
core vertices (≥ μ ε-similar neighbors) and clusters them over ε-similar
core–core edges: GS*-Query does this with a sequential search; the
ConnectIt version replaces the search with UF-Rem-CAS{SplitAtomicOne,
FindNaive} — the source of the paper's 42.5–50.5x query speedup.
"""
from __future__ import annotations

import time
from collections import deque

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.graphs.generators import Graph
from repro.unionfind import UFSpec, UFState, make_union


def build_index(spark: SparkSession, g: Graph) -> pd.DataFrame:
    """GS*-Index: per-edge similarities (u, v, sigma), u<v, via Spark joins."""
    edges = g.df(spark)
    e1 = edges.select(F.col("src").alias("u"), F.col("dst").alias("w"))
    e2 = edges.select(F.col("src").alias("x"), F.col("dst").alias("w2"))
    common = (
        e1.join(e2, e1.w == e2.w2)
        .select("u", F.col("x").alias("v"))
        .filter(F.col("u") < F.col("v"))
        .groupBy("u", "v")
        .agg(F.count(F.lit(1)).alias("common_open"))
    )
    und = edges.filter(F.col("src") < F.col("dst")).select(
        F.col("src").alias("u"), F.col("dst").alias("v")
    )
    joined = und.join(common, ["u", "v"], "left").fillna(0, subset=["common_open"])
    pdf = joined.toPandas()
    deg = g.degrees()
    du = deg[pdf["u"].to_numpy()] + 1
    dv = deg[pdf["v"].to_numpy()] + 1
    # closed neighborhoods: u and v belong to both N[u] and N[v]
    pdf["sigma"] = (pdf["common_open"].to_numpy() + 2) / np.sqrt(du * dv)
    return pdf[["u", "v", "sigma"]]


def _query_sets(index: pd.DataFrame, n: int, eps: float, mu: int):
    sim = index[index["sigma"] >= eps]
    u = sim["u"].to_numpy(dtype=np.int64)
    v = sim["v"].to_numpy(dtype=np.int64)
    sim_deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    core = sim_deg >= mu
    cc_mask = core[u] & core[v]
    return u, v, core, u[cc_mask], v[cc_mask]


def _attach_and_label(n, core, roots, u, v):
    labels = np.full(n, -1, dtype=np.int64)
    labels[core] = roots[core]
    # attach non-core vertices to the min cluster of an ε-similar core neighbor
    cand = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    for a, b in ((u, v), (v, u)):
        mask = core[a] & ~core[b]
        if mask.any():
            np.minimum.at(cand, b[mask], roots[a[mask]])
    take = (labels < 0) & (cand < np.iinfo(np.int64).max)
    labels[take] = cand[take]
    return labels


def gs_query_sequential(
    index: pd.DataFrame, n: int, eps: float, mu: int
) -> tuple[np.ndarray, float]:
    """GS*-Query: sequential search from core vertices over ε-similar edges."""
    t0 = time.perf_counter()
    u, v, core, cu, cv = _query_sets(index, n, eps, mu)
    adj: dict[int, list[int]] = {}
    for a, b in zip(cu.tolist(), cv.tolist()):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    roots = np.arange(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for s in np.flatnonzero(core).tolist():
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        q = deque([s])
        while q:
            x = q.popleft()
            for y in adj.get(x, ()):
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    q.append(y)
        r = min(comp)
        roots[comp] = r
    labels = _attach_and_label(n, core, roots, u, v)
    return labels, time.perf_counter() - t0


def gs_query_connectit(
    index: pd.DataFrame, n: int, eps: float, mu: int
) -> tuple[np.ndarray, float]:
    """ConnectIt-parallel GS*-Query: UF-Rem-CAS over core–core similar edges."""
    t0 = time.perf_counter()
    u, v, core, cu, cv = _query_sets(index, n, eps, mu)
    st = UFState(n)
    make_union(UFSpec("uf-rem-cas", "naive", "split-one"), st)(zip(cu.tolist(), cv.tolist()))
    roots = st.compress_all()
    labels = _attach_and_label(n, core, roots, u, v)
    return labels, time.perf_counter() - t0


def naive_scan(g: Graph, eps: float, mu: int) -> np.ndarray:
    """Direct SCAN from the definition — the correctness oracle for queries."""
    nbrs = [set() for _ in range(g.n)]
    for a, b in zip(g.src.tolist(), g.dst.tolist()):
        nbrs[a].add(b)
    sims: dict[tuple[int, int], float] = {}
    for a, b in zip(g.src.tolist(), g.dst.tolist()):
        if a < b:
            closed_a = nbrs[a] | {a}
            closed_b = nbrs[b] | {b}
            sims[(a, b)] = len(closed_a & closed_b) / np.sqrt(len(closed_a) * len(closed_b))
    eps_nbrs = [set() for _ in range(g.n)]
    for (a, b), s in sims.items():
        if s >= eps:
            eps_nbrs[a].add(b)
            eps_nbrs[b].add(a)
    core = np.array([len(eps_nbrs[x]) >= mu for x in range(g.n)])
    labels = np.full(g.n, -1, dtype=np.int64)
    for s in range(g.n):
        if not core[s] or labels[s] >= 0:
            continue
        comp = [s]
        labels[s] = s
        q = deque([s])
        while q:
            x = q.popleft()
            for y in eps_nbrs[x]:
                if core[y] and labels[y] < 0:
                    labels[y] = s
                    comp.append(y)
                    q.append(y)
    # attach non-core ε-similar neighbors of cores (min cluster id)
    for x in np.flatnonzero(core):
        for y in eps_nbrs[x]:
            if not core[y]:
                if labels[y] < 0 or labels[x] < labels[y]:
                    labels[y] = labels[x]
    return labels
