"""Workload inputs, built only from the workload seed through ``repro.graphs.generators``.

The static graphs use the ``mini`` parameters of ``repro/graphs/suite.py`` (HL12 and
LJ) with the benchmark's seed in place of the suite's fixed one, so every seed gives
a graph of the same family and size. The stream is an RMAT graph whose edges are
inserted once each, in seeded random order, in batches that also carry
``IsConnected`` queries on uniform random pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs import generators as gen

STREAM_N = 1 << 17
STREAM_RMAT_EDGES = 1_045_000  # about 1.0 M undirected edges after deduplication
BATCH = 100  # updates per batch, and queries per batch


def web_graph(seed: int) -> gen.Graph:
    """HL12-mini stand-in: 200 lexicographic-local clusters of 90 plus 18 small components."""
    return gen.web_like(200, 90, 4, extra_components=18, seed=seed, name="HL12-mini")


def lj_graph(seed: int) -> gen.Graph:
    """LJ-mini stand-in: RMAT(6000, 40000) tied by a ring, plus 12 five-vertex paths."""
    n = 6_000
    core = gen.rmat(n, 40_000, a=0.5, b=0.1, c=0.1, seed=seed)
    half = core.src < core.dst
    ids = np.arange(n)
    core = gen.from_pairs(
        "LJ", n, np.concatenate([core.src[half], ids]), np.concatenate([core.dst[half], (ids + 1) % n])
    )
    return gen.disjoint_union("LJ-mini", [core] + [gen.path_graph(5) for _ in range(12)])


@dataclass
class Stream:
    n: int
    updates: list[np.ndarray]  # one (k, 2) int64 array per batch, k <= BATCH
    queries: list[np.ndarray]  # one (BATCH, 2) int64 array per batch


def stream(seed: int) -> Stream:
    g = gen.rmat(STREAM_N, STREAM_RMAT_EDGES, a=0.5, b=0.1, c=0.1, seed=seed)
    half = g.src < g.dst
    edges = np.stack([g.src[half], g.dst[half]], axis=1)
    rng = np.random.default_rng([seed, 1])
    edges = edges[rng.permutation(len(edges))]
    updates = [edges[i : i + BATCH] for i in range(0, len(edges), BATCH)]
    queries = rng.integers(0, STREAM_N, (len(updates), BATCH, 2), dtype=np.int64)
    return Stream(STREAM_N, updates, list(queries))
