"""Miller–Peng–Xu low-diameter decomposition as a driver-held frontier.

Each vertex draws a shift δ_v ~ Exp(β); vertex v wakes up (starts its own
cluster) in round ⌊δ_max − δ_v⌋ if still unclustered, and clusters grow by
one BFS hop per round (ties broken by minimum center id, optionally over a
random permutation of priorities). Produces clusters of strong diameter
O(log n / β) cutting O(βm) edges in expectation (paper §3.2).

The shifts, the clustering and the frontier live on the driver as numpy
arrays; each growth step is one ``_edge_map`` over the edge table, and a
round whose frontier is empty runs no Spark query.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.dataflow.edgemap import _edge_map


def ldd_labels(
    spark: SparkSession,
    edges_df: DataFrame,
    n: int,
    beta: float = 0.2,
    seed: int = 0,
    permute: bool = False,
) -> tuple[pd.DataFrame, int]:
    """One LDD round-set; returns (labels, rounds).

    ``labels`` has columns ``v, center, parent``: every vertex, its cluster
    center, and its BFS-tree parent within the cluster (``parent = v`` for
    centers) — the parent edges are the partial spanning forest used by LDD
    sampling for spanning forest (Definition B.2).
    """
    g = np.random.default_rng(seed)
    shifts = g.exponential(1.0 / beta, n)
    start = np.floor(shifts.max() - shifts).astype(np.int64)
    # cluster-priority = center id, optionally permuted so vertex order and
    # tie-break order decouple (the `permute` knob of Appendix C.3)
    prio = g.permutation(n).astype(np.int64) if permute else np.arange(n, dtype=np.int64)
    # prio is a permutation: a priority names its center, so the edgeMap's
    # (prio, src) minimum is the (prio, center, src) one
    by_prio = np.argsort(prio)

    center = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    labeled = np.zeros(n, dtype=bool)
    frontier = np.empty(0, dtype=np.int64)
    t = 0
    while not labeled.all():
        # candidates (v, prio[center], center, parent): unlabeled vertices due to
        # start a cluster, then the frontier's unlabeled neighbours
        woken = np.flatnonzero(~labeled & (start <= t))
        cand = [(woken, prio[woken], woken, woken)]
        if len(frontier):
            d, p, par = _edge_map(spark, edges_df, n, frontier, prio[center[frontier]])
            keep = ~labeled[d]
            cand.append((d[keep], p[keep], by_prio[p[keep]], par[keep]))
        v, p, c, par = (np.concatenate(a) for a in zip(*cand))
        # each vertex takes its min (prio[center], center, parent)
        order = np.lexsort((par, c, p, v))
        first = np.ones(len(order), dtype=bool)
        first[1:] = v[order[1:]] != v[order[:-1]]
        win = order[first]
        frontier = v[win]
        center[frontier], parent[frontier], labeled[frontier] = c[win], par[win], True
        t += 1
    return pd.DataFrame({"v": np.arange(n, dtype=np.int64), "center": center, "parent": parent}), t
