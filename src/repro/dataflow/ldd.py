"""Miller–Peng–Xu low-diameter decomposition as a driver-held frontier.

Each vertex draws a shift δ_v ~ Exp(β); vertex v wakes up (starts its own
cluster) in round ⌊δ_max − δ_v⌋ if still unclustered, and clusters grow by
one BFS hop per round (ties broken by minimum center id). Produces clusters of strong diameter
O(log n / β) cutting O(βm) edges in expectation (paper §3.2).

The shifts, the clustering and the frontier live on the driver as numpy
arrays; each growth step is one ``_edge_map`` over the edge table, and a
round whose frontier is empty runs no Spark query.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.dataflow.edgemap import _edge_map


def ldd_labels(
    spark: SparkSession,
    edges_df: DataFrame,
    n: int,
    beta: float = 0.2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One LDD round-set; returns (center, parent, rounds).

    ``center[v]`` is v's cluster center and ``parent[v]`` its BFS-tree parent
    within the cluster (``parent[v] = v`` for centers) — the parent edges are
    the partial spanning forest used by LDD sampling for spanning forest
    (Definition B.2).
    """
    g = np.random.default_rng(seed)
    shifts = g.exponential(1.0 / beta, n)
    start = np.floor(shifts.max() - shifts).astype(np.int64)

    center = np.full(n, -1, dtype=np.int64)  # -1: not clustered yet
    parent = np.full(n, -1, dtype=np.int64)
    frontier = np.empty(0, dtype=np.int64)
    unset = np.iinfo(np.int64).max  # no candidate this round
    t = 0
    while (center < 0).any():
        # candidates (v, center, parent): unclustered vertices due to start a
        # cluster, then the frontier's unclustered neighbours
        woken = np.flatnonzero((center < 0) & (start <= t))
        cand = [(woken, woken, woken)]
        if len(frontier):
            d, c, par = _edge_map(spark, edges_df, n, frontier, center[frontier])
            keep = center[d] < 0
            cand.append((d[keep], c[keep], par[keep]))
        v, c, par = (np.concatenate(a) for a in zip(*cand))
        # each vertex takes its min (center, parent), packed as center·n + parent
        best = np.full(n, unset, dtype=np.int64)
        np.minimum.at(best, v, c * n + par)
        frontier = np.flatnonzero(best != unset)
        center[frontier], parent[frontier] = np.divmod(best[frontier], n)
        t += 1
    return center, parent, t
