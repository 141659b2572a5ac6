"""Breadth-first search as a driver-held frontier over a Spark edgeMap.

Each round maps the frontier over the edge table (``_edge_map``: a join of the
frontier with the edges and a min-aggregation, the dataflow analog of Ligra's
edgeMap) and keeps the vertices not reached before, each with its minimum
frontier neighbour as BFS parent. The vertex subset and the tree live on the
driver as numpy arrays. Direction-optimization (the paper's dense iterations)
has no cost asymmetry in dataflow: both sparse and dense traversal are the
same join, so the optimization is a no-op here; we note this in DESIGN.md.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.dataflow.edgemap import _edge_map


def bfs_tree(
    spark: SparkSession,
    edges_df: DataFrame,
    n: int,
    source: int,
    max_rounds: int | None = None,
) -> tuple[pd.DataFrame, int]:
    """BFS from ``source`` over vertices ``[0, n)``; returns (tree, rounds).

    ``tree`` has columns ``v, parent, dist``: every vertex reachable from
    ``source`` with its BFS-tree parent (``parent = v`` for the source).
    """
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    parent = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, -1, dtype=np.int32)  # -1: not reached yet
    parent[source], dist[source] = source, 0
    frontier = np.array([source], dtype=np.int64)
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        dst, _, src = _edge_map(spark, edges_df, n, frontier)
        new = dist[dst] < 0
        if not new.any():
            break
        frontier = dst[new]
        rounds += 1
        parent[frontier], dist[frontier] = src[new], rounds
    vs = np.flatnonzero(dist >= 0)
    return pd.DataFrame({"v": vs, "parent": parent[vs], "dist": dist[vs]}), rounds
