"""ConnectIt spanning forest (paper §3.4, Algorithm 2, Appendix B.3).

Root-based finish methods convert black-box from connectivity to spanning
forest: each successful hook of a root records the original edge that caused
it, and each root is hooked at most once, so every forest edge lands at a
unique vertex (Definition B.2 requirement 3). Sampling methods emit the
partial forest corresponding to their partial labeling (k-out: hook edges of
the sampling union-find; BFS/LDD: tree parent edges), and the finish phase
runs on the original vertex space seeded with the sampled labels — the union
of the two forests spans G (Theorem 7).

Supported finish methods: every union-find variant (all root-based) and
Shiloach-Vishkin. The non-root-based Liu-Tarjan variants, Stergiou, and
Label-Propagation are excluded, exactly as in the paper.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.core import uf_finish
from repro.core.framework import UF_FINISHES, _default_spec, identify_frequent, run_sampling
from repro.graphs.generators import Graph
from repro.graphs.ground_truth import canonicalize
from repro.unionfind import UFSpec


def _sv_forest(n: int, edges: np.ndarray, init: np.ndarray | None, skip: int | None):
    """Shiloach-Vishkin spanning forest on the driver substrate.

    SV only hooks round-start roots, so recording the winning edge per hook
    satisfies the root-based requirement. (The dataflow SV computes the same
    labeling; the forest needs the per-hook winning edge, which the driver
    run records directly.)
    """
    p = np.arange(n, dtype=np.int64) if init is None else init.copy()
    if skip is not None and init is not None:
        edges = edges[init[edges[:, 0]] != skip]
    forest: dict[int, tuple[int, int]] = {}
    rounds = 0
    while True:
        rounds += 1
        prev = p.copy()
        # hook phase: writeMin to round-start roots
        winner: dict[int, tuple[int, int, int]] = {}
        for u, v in edges:
            pu, pv = int(p[u]), int(p[v])
            l, h = (pu, pv) if pu < pv else (pv, pu)
            if l != h and prev[h] == h:
                cur = winner.get(h)
                if cur is None or l < cur[0]:
                    winner[h] = (l, int(u), int(v))
        for h, (l, u, v) in winner.items():
            if l < p[h]:
                p[h] = l
                forest[h] = (u, v)
        # full shortcut
        while True:
            pp = p[p]
            if np.array_equal(pp, p):
                break
            p = pp
        if np.array_equal(p, prev):
            return p, list(forest.values()), rounds


def spanning_forest(
    spark: SparkSession,
    g: Graph,
    sampling: str = "none",
    finish: str = "uf-rem-cas",
    uf_spec: UFSpec | None = None,
    spark_uf: bool = False,
    num_partitions: int = 8,
    sampling_opts: dict | None = None,
) -> tuple[np.ndarray, list[tuple[int, int]], dict]:
    """Algorithm 2. Returns (canonical labels, forest edge list, info)."""
    t0 = time.perf_counter()
    sample = run_sampling(spark, g, sampling, **(sampling_opts or {}))
    frequent, _ = identify_frequent(sample.labels)
    skip = frequent if sampling != "none" else None
    t1 = time.perf_counter()
    info = {"sampling": sampling, "finish": finish, "sample_time_s": t1 - t0}
    edges = np.stack([g.src, g.dst], axis=1)
    if finish in UF_FINISHES:
        spec = uf_spec or _default_spec(finish)
        if spark_uf:
            labels, st = uf_finish.uf_components_spark(
                spark, g.df(spark), g.n, spec,
                init_labels=sample.labels, skip_label=skip,
                record_forest=True, num_partitions=num_partitions,
            )
        else:
            labels, st = uf_finish.run_components(
                g.n, edges, spec, labels=sample.labels, skip_label=skip, record_forest=True
            )
        finish_forest = list(st.forest.values())
    elif finish == "sv":
        labels, finish_forest, rounds = _sv_forest(g.n, edges, sample.labels if sampling != "none" else None, skip)
        info["rounds"] = rounds
    else:
        raise ValueError(
            f"finish {finish!r} is not root-based; spanning forest supports {UF_FINISHES + ('sv',)}"
        )
    info["finish_time_s"] = time.perf_counter() - t1
    forest = list(sample.forest) + finish_forest
    return canonicalize(labels), forest, info
