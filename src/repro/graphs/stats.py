"""Graph statistics for Table 2: n, m, diameter, components."""
from __future__ import annotations

import numpy as np

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


def graph_stats(g: Graph) -> dict:
    """Table 2 row for one graph, without the load time, which
    ``harness.tables.table2`` times."""
    labels = cc_labels(g.n, g.src, g.dst)
    return {
        "graph": g.name,
        "n": g.n,
        "m": g.m,
        "diameter_lb": diameter_lower_bound(g),
        "num_components": num_components(labels),
        "largest_component": largest_component_size(labels),
    }
