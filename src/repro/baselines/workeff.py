"""WorkeffCC: the work-efficient connectivity of Shun et al. [94].

Recursively applies low-diameter decomposition and contracts the graph until
no inter-cluster edges remain, then composes the per-level labelings. This
held the pre-ConnectIt record on Hyperlink2012 (25 s) and is the reference
point for the paper's 3.2x headline speedup.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.framework import contract_edges
from repro.dataflow.ldd import ldd_labels
from repro.graphs.generators import Graph, edge_frame


# LDD levels before WorkeffCC gives up. Each level keeps about a β share of
# the edges between clusters, so a graph needs about log_{1/β} m levels.
MAX_LEVELS = 40


def workeff_cc(spark: SparkSession, g: Graph) -> tuple[np.ndarray, dict]:
    n = g.n
    src, dst = g.src, g.dst
    # composed[v] = current contracted id of original vertex v
    composed = np.arange(n, dtype=np.int64)
    levels = 0
    total_rounds = 0
    while len(src):
        if levels == MAX_LEVELS:
            raise RuntimeError(f"WorkeffCC exceeded {MAX_LEVELS} LDD levels")
        levels += 1
        nc = int(composed.max()) + 1
        clab, _, rounds = ldd_labels(spark, edge_frame(spark, src, dst), nc, seed=levels)
        total_rounds += rounds
        # contract: relabel clusters densely, drop intra-cluster edges; dense
        # maps every vertex to its cluster, as every center is its own center
        centers, dense = np.unique(clab, return_inverse=True)
        composed = dense[composed]
        pairs, _ = contract_edges(src, dst, dense, len(centers))
        src, dst = pairs[:, 0], pairs[:, 1]
    return composed, {"levels": levels, "rounds": total_rounds}
