"""MultiStep (Slota et al. [98]): BFS of the massive component, then label
propagation over the remainder — the hybrid whose performance collapses on
high-diameter graphs (Table 3)."""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.minbased import label_propagation
from repro.dataflow.bfs import bfs_tree
from repro.graphs.generators import Graph, edge_frame


def multistep(spark: SparkSession, g: Graph) -> tuple[np.ndarray, dict]:
    src = int(np.random.default_rng(0).integers(0, g.n))
    parent, bfs_rounds = bfs_tree(spark, g.df(spark), g.n, src)
    covered = parent >= 0
    labels = np.arange(g.n, dtype=np.int64)
    labels[covered] = src
    # label propagation over edges not inside the BFS-covered component
    keep = ~(covered[g.src] & covered[g.dst])
    rs, rd = g.src[keep], g.dst[keep]
    lp_rounds = 0
    if len(rs):
        lp_labels, lp_rounds = label_propagation(spark, edge_frame(spark, rs, rd), g.n)
        # LP components touching the BFS-covered massive component merge
        # into it: map any LP class containing a covered vertex to src.
        has_cov = np.zeros(g.n, dtype=bool)
        np.logical_or.at(has_cov, lp_labels, covered)
        labels = np.where(covered | has_cov[lp_labels], src, lp_labels)
    return labels, {"rounds": bfs_rounds + lp_rounds, "bfs_rounds": bfs_rounds, "lp_rounds": lp_rounds}
