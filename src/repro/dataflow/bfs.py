"""Breadth-first search as a driver-held frontier over a Spark edgeMap.

Each round maps the frontier over the edge table (``_edge_map``: the frontier
sent as a dense vertex mask inside the query, a filter of the edges on it and
a min-aggregation, the dataflow analog of Ligra's edgeMap) and keeps the
vertices not reached before, each with its minimum frontier neighbour as BFS
parent. The vertex subset and the tree live on the driver as numpy arrays.
Direction-optimization (the paper's dense iterations) has no cost asymmetry
in dataflow: every round scans all m edges whatever the frontier's size, so
the optimization is a no-op here.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.dataflow.edgemap import _edge_map


def bfs_tree(
    spark: SparkSession,
    edges_df: DataFrame,
    n: int,
    source: int,
) -> tuple[np.ndarray, int]:
    """BFS from ``source`` over vertices ``[0, n)``; returns (parent, rounds).

    ``parent[v]`` is v's BFS-tree parent (``source`` for the source itself),
    or -1 where v is not reachable from ``source``.
    """
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0, {n})")
    parent = np.full(n, -1, dtype=np.int64)  # -1: not reached yet
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    rounds = 0
    while True:
        dst, _, src = _edge_map(spark, edges_df, n, frontier)
        new = parent[dst] < 0
        if not new.any():
            break
        frontier = dst[new]
        parent[frontier] = src[new]
        rounds += 1
    return parent, rounds
