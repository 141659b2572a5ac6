"""The ConnectIt framework: Algorithm 1 (two-phase connectivity).

``connectivity(spark, g, sampling, finish)`` composes any sampling method
with any finish method:

- Union-find finishes run on the original vertex space, seeded with the
  sampled labeling, skipping edges out of the most frequent component
  (Algorithm 7's filter), as one union-find pass on the driver.
- Other min-based finishes (Liu-Tarjan / Stergiou / SV / Label-Propagation)
  compose by *contraction* (the composability view of Definition 3.1):
  sampled components become contracted vertices, with the most frequent
  component mapped to contracted id 0 — the smallest possible ID, so its
  vertices are never relabeled (Theorem 5) — and the finish method runs its
  rounds over the contracted inter-component edges only. Those few edges stay
  on the driver as a ``(src, dst)`` array pair, so each round's edgeMap is a
  numpy pass and no Spark job runs after sampling. Unsampled min-based
  finishes run over the graph's DataFrame, one Spark edgeMap per round.

Returns canonicalized labels plus an info dict with per-phase times, the
number of edges processed in the finish phase, rounds, and UF counters.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.core import minbased, sampling as sampling_mod, uf_finish
from repro.core.sampling import identify_frequent
from repro.graphs.generators import Graph
from repro.graphs.ground_truth import canonicalize
from repro.unionfind import UFSpec

UF_FINISHES = ("uf-async", "uf-hooks", "uf-early", "uf-rem-cas", "uf-rem-lock", "uf-jtb")
MINBASED_FINISHES = ("sv", "stergiou", "labelprop") + tuple(f"lt-{c}" for c in minbased.LT_CODES)
ALL_FINISHES = UF_FINISHES + MINBASED_FINISHES
SAMPLINGS = ("none", "kout", "bfs", "ldd")


def run_sampling(
    spark: SparkSession, g: Graph, sampling: str, **opts
) -> sampling_mod.SampleResult:
    if sampling == "none":
        return sampling_mod.identity_sample(g)
    sampler = sampling_mod.get_sampler(sampling)
    return sampler(spark, g, **opts)


def _minbased_runner(name: str):
    if name == "sv":
        return lambda spark, e, n: minbased.shiloach_vishkin(spark, e, n)
    if name == "stergiou":
        return lambda spark, e, n: minbased.stergiou(spark, e, n)
    if name == "labelprop":
        return lambda spark, e, n: minbased.label_propagation(spark, e, n)
    if name.startswith("lt-"):
        code = name[3:]
        return lambda spark, e, n: minbased.liu_tarjan(spark, e, n, code)
    raise KeyError(f"unknown min-based finish {name!r}")


def _contract(g: Graph, labels: np.ndarray, frequent: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Contract g by the sampled labeling; frequent component → id 0.

    Returns (cid per vertex, contracted inter-component edge pairs, n_c).
    """
    roots = np.unique(labels)
    cid_of_root = np.zeros(int(roots.max()) + 1 if len(roots) else 0, dtype=np.int64)
    order = np.concatenate([[frequent], roots[roots != frequent]])
    cid_of_root[order] = np.arange(len(order))
    cid = cid_of_root[labels]
    cs, cd = cid[g.src], cid[g.dst]
    keep = cs != cd
    pairs = np.stack([cs[keep], cd[keep]], axis=1)
    if len(pairs):
        key = pairs[:, 0] * np.int64(len(order)) + pairs[:, 1]
        _, idx = np.unique(key, return_index=True)
        pairs = pairs[idx]
    return cid, pairs, len(order)


def connectivity(
    spark: SparkSession,
    g: Graph,
    sampling: str = "none",
    finish: str = "uf-rem-cas",
    uf_spec: UFSpec | None = None,
    sampling_opts: dict | None = None,
) -> tuple[np.ndarray, dict]:
    """ConnectIt connectivity (Algorithm 1). Returns (canonical labels, info)."""
    t0 = time.perf_counter()
    sample = run_sampling(spark, g, sampling, **(sampling_opts or {}))
    sample_time = time.perf_counter() - t0
    return finish_with_sample(
        spark, g, sample, finish,
        sampling=sampling, sample_time=sample_time, uf_spec=uf_spec,
    )


def finish_with_sample(
    spark: SparkSession,
    g: Graph,
    sample,
    finish: str,
    sampling: str = "none",
    sample_time: float = 0.0,
    uf_spec: UFSpec | None = None,
) -> tuple[np.ndarray, dict]:
    """Finish phase only, over a precomputed SampleResult.

    Separated from :func:`connectivity` so harnesses can run one sampling
    pass per (graph, scheme) and reuse it across every finish method —
    exactly how the paper's framework shares the sampled labeling.
    """
    frequent, freq_count = identify_frequent(sample.labels)
    t1 = time.perf_counter()
    info: dict = {
        "sampling": sampling,
        "finish": finish,
        "sample_time_s": sample_time,
        "sample_edges_processed": sample.edges_processed,
        "frequent_coverage": freq_count / max(1, g.n),
    }

    if finish in UF_FINISHES:
        spec = uf_spec or _default_spec(finish)
        if spec.variant != finish:
            raise ValueError(f"uf_spec variant {spec.variant} does not match finish {finish}")
        skip = frequent if sampling != "none" else None
        edges = np.stack([g.src, g.dst], axis=1)
        labels, st = uf_finish.run_components(g.n, edges, spec, labels=sample.labels, skip_label=skip)
        init = sample.labels
        info["finish_edges"] = int((init[g.src] != frequent).sum()) if sampling != "none" else g.m_directed
        info["counters"] = st.c.as_dict()
    else:
        runner = _minbased_runner(finish)
        if sampling == "none":
            labels_c, rounds = runner(spark, g.df(spark), g.n)
            labels = labels_c
            info["finish_edges"] = g.m_directed
        else:
            cid, pairs, nc = _contract(g, sample.labels, frequent)
            info["finish_edges"] = len(pairs)
            info["contracted_n"] = nc
            if len(pairs) == 0:
                labels = sample.labels.copy()
                rounds = 0
            else:
                clabels, rounds = runner(spark, (pairs[:, 0], pairs[:, 1]), nc)
                labels = clabels[cid]
        info["rounds"] = rounds
    info["finish_time_s"] = time.perf_counter() - t1
    info["total_time_s"] = sample_time + info["finish_time_s"]
    return canonicalize(labels), info


def _default_spec(finish: str) -> UFSpec:
    """The paper's recommended option per family (§4.1: FindNaive +
    SplitAtomicOne for Rem's; FindNaive elsewhere; two-try for UF-JTB)."""
    if finish == "uf-jtb":
        return UFSpec("uf-jtb", "two-try")
    return UFSpec(finish, "naive", "split-one")
