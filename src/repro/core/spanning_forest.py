"""ConnectIt spanning forest (paper §3.4, Algorithm 2, Appendix B.3).

Root-based finish methods convert black-box from connectivity to spanning
forest: each successful hook of a root records the original edge that caused
it, and each root is hooked at most once, so every forest edge lands at a
unique vertex (Definition B.2 requirement 3). Sampling methods emit the
partial forest corresponding to their partial labeling (k-out: hook edges of
the sampling union-find; BFS/LDD: tree parent edges). The finish runs through
``framework.finish_with_sample``, exactly as for connectivity: a union-find
finish on the original vertex space seeded with the sampled labels, SV on the
contracted graph after sampling, with each contracted hook mapped back to an
edge of G. The sample forest spans every sampled component and the finish
forest joins the components, so together they span G (Theorem 7). Every
forest is a ``(k, 2)`` int64 array of ``(u, v)`` edges.

Supported finish methods: every union-find variant (all root-based) and
Shiloach-Vishkin. The non-root-based Liu-Tarjan variants, Stergiou, and
Label-Propagation are excluded, exactly as in the paper.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.core.framework import ROOT_BASED, finish_with_sample, run_sampling
from repro.graphs.generators import Graph
from repro.unionfind import UFSpec


def spanning_forest(
    spark: SparkSession,
    g: Graph,
    sampling: str = "none",
    finish: str = "uf-rem-cas",
    uf_spec: UFSpec | None = None,
    sampling_opts: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Algorithm 2. Returns (canonical labels, (k, 2) forest edges, info)."""
    if finish not in ROOT_BASED:
        raise ValueError(f"finish {finish!r} is not root-based; spanning forest supports {ROOT_BASED}")
    t0 = time.perf_counter()
    sample = run_sampling(spark, g, sampling, **(sampling_opts or {}))
    labels, info = finish_with_sample(
        spark, g, sample, finish,
        sampling=sampling, sample_time=time.perf_counter() - t0, uf_spec=uf_spec,
    )
    return labels, np.concatenate([sample.forest, info.pop("forest")]), info
