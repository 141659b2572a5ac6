"""WorkeffCC: the work-efficient connectivity of Shun et al. [94].

Recursively applies low-diameter decomposition and contracts the graph until
no inter-cluster edges remain, then composes the per-level labelings. This
held the pre-ConnectIt record on Hyperlink2012 (25 s) and is the reference
point for the paper's 3.2x headline speedup.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.dataflow.ldd import ldd_labels
from repro.graphs.generators import Graph, edge_frame


def workeff_cc(
    spark: SparkSession, g: Graph, beta: float = 0.2, seed: int = 0, max_levels: int = 40
) -> tuple[np.ndarray, dict]:
    n = g.n
    src, dst = g.src, g.dst
    # composed[v] = current contracted id of original vertex v
    composed = np.arange(n, dtype=np.int64)
    levels = 0
    total_rounds = 0
    while len(src) and levels < max_levels:
        levels += 1
        nc = int(composed.max()) + 1
        lab, rounds = ldd_labels(spark, edge_frame(spark, src, dst), nc, beta=beta, seed=seed + levels)
        total_rounds += rounds
        clab = np.arange(nc, dtype=np.int64)
        clab[lab["v"].to_numpy()] = lab["center"].to_numpy()
        # contract: relabel cluster centers densely, drop intra-cluster edges
        centers, dense = np.unique(clab, return_inverse=True)
        composed = dense[clab[composed]]
        cs, cd = dense[clab[src]], dense[clab[dst]]
        keep = cs != cd
        pairs = np.stack([cs[keep], cd[keep]], axis=1)
        if len(pairs):
            key = pairs[:, 0] * np.int64(len(centers)) + pairs[:, 1]
            _, idx = np.unique(key, return_index=True)
            pairs = pairs[idx]
            src, dst = pairs[:, 0], pairs[:, 1]
        else:
            src = dst = np.empty(0, dtype=np.int64)
    return composed, {"levels": levels, "rounds": total_rounds}
