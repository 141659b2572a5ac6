"""BFSCC (Ligra's BFS-based connectivity [92]).

Computes each connected component by running a parallel (dataflow) BFS from
the first uncovered vertex. Performance therefore depends on the diameter
(rounds per BFS) *and* the number of components (sequential BFS launches) —
the behaviour Table 3 shows: competitive on single-component low-diameter
graphs, terrible on road networks and many-component crawls.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.dataflow.bfs import bfs_tree
from repro.graphs.generators import Graph


def bfscc(spark: SparkSession, g: Graph) -> tuple[np.ndarray, dict]:
    edges = g.df(spark)
    labels = np.full(g.n, -1, dtype=np.int64)
    rounds = 0
    n_bfs = 0
    v = 0
    while True:
        uncovered = np.flatnonzero(labels < 0)
        if len(uncovered) == 0:
            break
        src = int(uncovered[0])
        tree, r = bfs_tree(spark, edges, g.n, src)
        vs = tree["v"].to_numpy()
        labels[vs] = src
        rounds += r
        n_bfs += 1
    return labels, {"rounds": rounds, "bfs_launches": n_bfs}
