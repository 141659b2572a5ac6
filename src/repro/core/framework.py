"""The ConnectIt framework: Algorithm 1 (two-phase connectivity) and, run
black-box with a root-based finish, Algorithm 2 (spanning forest).

``connectivity(spark, g, sampling, finish)`` is ``run_sampling`` followed by
``finish_with_sample``. ``run_sampling`` is the one place a sample is timed:
the :class:`~repro.core.sampling.SampleResult` it returns carries its scheme
and wall time, and the finish reads both from it. Any sampling method
composes with any finish method:

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
number of edges processed in the finish phase, rounds, UF counters, and for
a root-based finish (``ROOT_BASED``: every union-find variant and SV) the
whole spanning forest: the sample's forest, which spans every sampled
component, followed by the finish's root hooks, which join them
(Theorem 7). ``spanning_forest`` is ``connectivity`` with that forest
popped out of the info dict; the non-root-based finishes are rejected there,
as in the paper.
"""
from __future__ import annotations

import functools
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
# finishes that hook only roots, so their hooks form a spanning forest (§3.4)
ROOT_BASED = UF_FINISHES + ("sv",)
SAMPLINGS = ("none", "kout", "bfs", "ldd")


def run_sampling(
    spark: SparkSession, g: Graph, scheme: str, **opts
) -> sampling_mod.SampleResult:
    """Run sampling ``scheme`` on g; the sample records its scheme and wall time."""
    t0 = time.perf_counter()
    sample = sampling_mod.get_sampler(scheme)(spark, g, **opts)
    sample.scheme, sample.time_s = scheme, time.perf_counter() - t0
    return sample


def _minbased_runner(name: str):
    if name.startswith("lt-"):
        return functools.partial(minbased.liu_tarjan, spec=name[3:])
    runners = {
        "sv": minbased.shiloach_vishkin, "stergiou": minbased.stergiou, "labelprop": minbased.label_propagation
    }
    if name not in runners:
        raise KeyError(f"unknown min-based finish {name!r}")
    return runners[name]


def contract_edges(
    src: np.ndarray, dst: np.ndarray, cid: np.ndarray, nc: int
) -> tuple[np.ndarray, np.ndarray]:
    """Contract the edges ``(src, dst)`` by the vertex map ``cid`` into ``[0, nc)``.

    Returns ``(pairs, eid)``: the distinct inter-component pairs as a sorted
    ``(k, 2)`` int64 array, and for each pair the index of one original edge
    that maps to it.
    """
    cs, cd = cid[src], cid[dst]
    keep = np.flatnonzero(cs != cd)
    _, idx = np.unique(cs[keep] * np.int64(nc) + cd[keep], return_index=True)
    eid = keep[idx]
    return np.stack([cs[eid], cd[eid]], axis=1), eid


def _contract(
    g: Graph, labels: np.ndarray, frequent: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Contract g by the sampled labeling; frequent component → id 0.

    Returns (cid per vertex, contracted pairs, their edge ids in g, n_c).
    """
    roots = np.unique(labels)
    cid_of_root = np.zeros(int(roots.max()) + 1 if len(roots) else 0, dtype=np.int64)
    order = np.concatenate([[frequent], roots[roots != frequent]])
    cid_of_root[order] = np.arange(len(order))
    cid = cid_of_root[labels]
    return cid, *contract_edges(g.src, g.dst, cid, len(order)), len(order)


def connectivity(
    spark: SparkSession,
    g: Graph,
    sampling: str = "none",
    finish: str = "uf-rem-cas",
    uf_spec: UFSpec | None = None,
    sampling_opts: dict | None = None,
) -> tuple[np.ndarray, dict]:
    """ConnectIt connectivity (Algorithm 1). Returns (canonical labels, info)."""
    sample = run_sampling(spark, g, sampling, **(sampling_opts or {}))
    return finish_with_sample(spark, g, sample, finish, uf_spec)


def spanning_forest(
    spark: SparkSession,
    g: Graph,
    sampling: str = "none",
    finish: str = "uf-rem-cas",
    uf_spec: UFSpec | None = None,
    sampling_opts: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Algorithm 2: connectivity with a root-based finish, which yields its
    forest (§3.4). Returns (canonical labels, (k, 2) forest edges, info)."""
    if finish not in ROOT_BASED:
        raise ValueError(f"finish {finish!r} is not root-based; spanning forest supports {ROOT_BASED}")
    labels, info = connectivity(spark, g, sampling, finish, uf_spec, sampling_opts)
    return labels, info.pop("forest"), info


def finish_with_sample(
    spark: SparkSession,
    g: Graph,
    sample: sampling_mod.SampleResult,
    finish: str,
    uf_spec: UFSpec | None = None,
) -> tuple[np.ndarray, dict]:
    """Finish phase only, over a precomputed SampleResult.

    Separated from :func:`connectivity` so harnesses can run one sampling
    pass per (graph, scheme) and reuse it across every finish method —
    exactly how the paper's framework shares the sampled labeling. The
    scheme and sampling time are the sample's own.

    For a root-based finish (``ROOT_BASED``), ``info["forest"]`` holds a
    spanning forest of g as a ``(k, 2)`` int64 array: the sample's forest,
    then one edge per root hook of the finish (Algorithm 2), found on g
    itself for a contracted SV.
    """
    frequent, freq_count = identify_frequent(sample.labels)
    sampled = sample.scheme != "none"
    t1 = time.perf_counter()
    info: dict = {
        "sampling": sample.scheme,
        "finish": finish,
        "sample_time_s": sample.time_s,
        "sample_edges_processed": sample.edges_processed,
        "frequent_coverage": freq_count / max(1, g.n),
    }

    if finish in UF_FINISHES:
        spec = uf_spec or _default_spec(finish)
        if spec.variant != finish:
            raise ValueError(f"uf_spec variant {spec.variant} does not match finish {finish}")
        edges = np.stack([g.src, g.dst], axis=1)
        labels, st = uf_finish.run_components(
            g.n, edges, spec, labels=sample.labels, skip_label=frequent if sampled else None
        )
        info["finish_edges"] = int((sample.labels[g.src] != frequent).sum()) if sampled else g.m_directed
        info["counters"] = st.c.as_dict()
        hooks, rounds = [st.forest], 0  # one driver pass, no dataflow rounds
    else:
        runner = _minbased_runner(finish)
        # SV, the one root-based min-based finish, also returns its hook edges
        if not sampled:
            labels, rounds, *hooks = runner(spark, g.df(spark), g.n)
            info["finish_edges"] = g.m_directed
        else:
            cid, pairs, eid, nc = _contract(g, sample.labels, frequent)
            info["finish_edges"] = len(pairs)
            info["contracted_n"] = nc
            if len(pairs) == 0:
                labels, rounds, hooks = sample.labels.copy(), 0, [pairs]  # no edges, no hooks
            else:
                clabels, rounds, *hooks = runner(spark, (pairs[:, 0], pairs[:, 1]), nc)
                labels = clabels[cid]
                if hooks:  # each contracted hook (s, d) back to one edge of g behind it
                    s, d = hooks[0].T
                    e = eid[np.searchsorted(pairs[:, 0] * nc + pairs[:, 1], s * nc + d)]
                    hooks = [np.stack([g.src[e], g.dst[e]], axis=1)]
    info["rounds"] = rounds
    if finish in ROOT_BASED:
        info["forest"] = np.concatenate([sample.forest, *hooks])
    info["finish_time_s"] = time.perf_counter() - t1
    info["total_time_s"] = sample.time_s + info["finish_time_s"]
    return canonicalize(labels), info


def _default_spec(finish: str) -> UFSpec:
    """The paper's recommended option per family (§4.1: FindNaive +
    SplitAtomicOne for Rem's; FindNaive elsewhere; two-try for UF-JTB)."""
    if finish == "uf-jtb":
        return UFSpec("uf-jtb", "two-try")
    return UFSpec(finish, "naive", "split-one")
