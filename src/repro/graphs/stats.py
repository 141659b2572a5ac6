"""Graph statistics for Table 2: n, m, diameter, components, load time."""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.generators import Graph
from repro.graphs.ground_truth import (
    bfs_levels,
    canonicalize,
    cc_labels,
    largest_component_size,
    num_components,
)


def diameter_lower_bound(g: Graph, sweeps: int = 2) -> int:
    """Double-sweep BFS diameter lower bound within the largest component.

    The paper likewise reports effective-diameter lower bounds (marked *)
    for graphs too large for exact computation.
    """
    if g.n == 0:
        return 0
    indptr, indices = g.csr()
    labels = canonicalize(cc_labels(g.n, g.src, g.dst))
    counts = np.bincount(labels)
    big = int(np.argmax(counts))
    source = int(np.flatnonzero(labels == big)[0])
    best = 0
    for _ in range(sweeps):
        dist = bfs_levels(indptr, indices, source)
        ecc = int(dist.max())
        best = max(best, ecc)
        far = np.flatnonzero(dist == ecc)
        source = int(far[0])
    return best


def graph_stats(g: Graph, spark: SparkSession | None = None) -> dict:
    """Table 2 row for one graph (load time = time to materialize edges DF)."""
    labels = cc_labels(g.n, g.src, g.dst)
    row = {
        "graph": g.name,
        "n": g.n,
        "m": g.m,
        "diameter_lb": diameter_lower_bound(g),
        "num_components": num_components(labels),
        "largest_component": largest_component_size(labels),
    }
    if spark is not None:
        t0 = time.perf_counter()
        # a fresh DataFrame, not the one Graph.df memoizes per session
        spark.createDataFrame(g.pandas()).count()
        row["load_time_s"] = round(time.perf_counter() - t0, 4)
    return row
