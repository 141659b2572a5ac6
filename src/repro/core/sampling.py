"""ConnectIt sampling methods (paper §3.2, Appendix C.3).

All three schemes emit a *composable* labeling (Definition 3.1): height-1
trees (every vertex points to itself or to a root) that are a valid partial
connectivity labeling. k-out comes in the four variants of Appendix C.3
(afforest / pure / hybrid / maxdeg); edge selection runs as Spark window
queries, and the sampled components are contracted with a union-find
algorithm. BFS and LDD sampling run on the dataflow kernels.

Each sampler returns a :class:`SampleResult` with the labeling, the partial
spanning forest (Definition B.2), and the metrics reported in Tables 6/7:
sampling time, coverage of the most frequent component, and the fraction of
inter-component edges remaining.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession, Window
from pyspark.sql import functions as F

from repro.dataflow.bfs import bfs_tree
from repro.dataflow.ldd import ldd_labels
from repro.graphs.generators import Graph
from repro.graphs.ground_truth import canonicalize
from repro.unionfind import UFSpec, run_components

KOUT_VARIANTS = ("afforest", "pure", "hybrid", "maxdeg")


def identify_frequent(labels: np.ndarray) -> tuple[int, int]:
    """Most frequent component id and its size (Algorithm 1 line 6)."""
    if len(labels) == 0:
        raise ValueError("identify_frequent needs a non-empty labeling (the graph has no vertices)")
    vals, counts = np.unique(labels, return_counts=True)
    i = int(np.argmax(counts))
    return int(vals[i]), int(counts[i])


@dataclass
class SampleResult:
    labels: np.ndarray  # height-1 composable labeling
    forest: list[tuple[int, int]] = field(default_factory=list)
    time_s: float = 0.0
    edges_processed: int = 0  # the paper's Y metric
    rounds: int = 0
    info: dict = field(default_factory=dict)

    def coverage(self) -> float:
        return identify_frequent(self.labels)[1] / len(self.labels)

    def intercomponent_fraction(self, g: Graph) -> float:
        """Fraction of edges still crossing sampled components (Tables 6/7)."""
        if g.m_directed == 0:
            return 0.0
        c = self.labels
        return float((c[g.src] != c[g.dst]).sum() / g.m_directed)


def identity_sample(g: Graph) -> SampleResult:
    """The *No Sampling* setting: every vertex is its own component."""
    return SampleResult(labels=np.arange(g.n, dtype=np.int64))


def kout_sample(
    spark: SparkSession,
    g: Graph,
    k: int = 2,
    variant: str = "hybrid",
    seed: int = 0,
    uf_spec: UFSpec | None = None,
) -> SampleResult:
    """k-out sampling (Algorithm 4) with the four selection variants.

    - afforest: first k edges in adjacency order (Sutton et al.).
    - pure:     k uniformly random incident edges (Holm et al.).
    - hybrid:   first edge + k-1 random (this paper's default).
    - maxdeg:   max-degree neighbor + k-1 random (this paper).
    """
    if variant not in KOUT_VARIANTS:
        raise KeyError(f"unknown k-out variant {variant!r}; options: {KOUT_VARIANTS}")
    t0 = time.perf_counter()
    edges = g.df(spark)
    # "First k edges" = the adjacency-list prefix. Under the suite's
    # locality-preserving vertex ids (web graphs: lexicographic URLs), the
    # stored prefix is dominated by nearby-id (same-domain) neighbors, so
    # the prefix is modeled as nearest-id-first — this is what reproduces
    # the kout-afforest pathology of Appendix C.3 on web orderings.
    w_adj = Window.partitionBy("src").orderBy(F.abs(F.col("dst") - F.col("src")), "dst")
    w_rand = Window.partitionBy("src").orderBy(F.xxhash64("src", "dst", F.lit(seed)))
    if variant == "afforest":
        sel = edges.withColumn("rn", F.row_number().over(w_adj)).filter(F.col("rn") <= k)
    elif variant == "pure":
        sel = edges.withColumn("rn", F.row_number().over(w_rand)).filter(F.col("rn") <= k)
    else:
        if variant == "hybrid":
            first = edges.withColumn("rn", F.row_number().over(w_adj)).filter(F.col("rn") == 1)
        else:  # maxdeg: the neighbor with the largest degree
            deg = edges.groupBy(F.col("src").alias("dv")).agg(F.count("*").alias("deg"))
            w_deg = Window.partitionBy("src").orderBy(F.desc("deg"), "dst")
            first = (
                edges.join(deg, edges.dst == F.col("dv"))
                .withColumn("rn", F.row_number().over(w_deg))
                .filter(F.col("rn") == 1)
            )
        rest = edges.withColumn("rn", F.row_number().over(w_rand)).filter(F.col("rn") <= k - 1)
        sel = first.select("src", "dst").unionByName(rest.select("src", "dst"))
    pdf = sel.select("src", "dst").toPandas()
    pairs = pdf.to_numpy(dtype=np.int64)
    labels, st = run_components(g.n, pairs, uf_spec or UFSpec("uf-rem-cas", "naive", "split-one"), record_forest=True)
    # full compression already applied: labeling is height-1 (roots + leaves)
    return SampleResult(
        labels=labels,
        forest=list(st.forest.values()),
        time_s=time.perf_counter() - t0,
        edges_processed=len(pairs),
        info={"variant": variant, "k": k, "counters": st.c.as_dict()},
    )


def bfs_sample(
    spark: SparkSession, g: Graph, c: int = 3, seed: int = 0, coverage_cutoff: float = 0.10
) -> SampleResult:
    """BFS sampling (Algorithm 5): up to ``c`` tries from random sources,
    stopping once a component covering >10 % of the vertices is found."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(seed)
    edges = g.df(spark)
    degs = g.degrees()
    labels = np.arange(g.n, dtype=np.int64)
    forest: list[tuple[int, int]] = []
    rounds = 0
    edges_processed = 0
    for _ in range(c):
        src = int(gen.integers(0, g.n))
        tree, r = bfs_tree(spark, edges, g.n, src)
        rounds += r
        vs = tree["v"].to_numpy()
        edges_processed += int(degs[vs].sum())
        if len(vs) > coverage_cutoff * g.n:
            labels[vs] = src
            forest = [(int(p), int(v)) for v, p in tree[["v", "parent"]].to_numpy() if v != p]
            break
    return SampleResult(
        # canonical min-id roots keep the min-ordering invariant that the
        # min-based union-find finishes rely on (still height-1, same classes)
        labels=canonicalize(labels),
        forest=forest,
        time_s=time.perf_counter() - t0,
        edges_processed=edges_processed,
        rounds=rounds,
    )


def ldd_sample(
    spark: SparkSession, g: Graph, beta: float = 0.2, seed: int = 0, permute: bool = False
) -> SampleResult:
    """LDD sampling (Algorithm 6): a single Miller–Peng–Xu round-set."""
    t0 = time.perf_counter()
    lab, rounds = ldd_labels(spark, g.df(spark), g.n, beta=beta, seed=seed, permute=permute)
    labels = np.arange(g.n, dtype=np.int64)
    labels[lab["v"].to_numpy()] = lab["center"].to_numpy()
    forest = [(int(p), int(v)) for v, p in lab[["v", "parent"]].to_numpy() if v != p]
    return SampleResult(
        labels=canonicalize(labels),
        forest=forest,
        time_s=time.perf_counter() - t0,
        edges_processed=g.m_directed,
        rounds=rounds,
        info={"beta": beta, "permute": permute},
    )


def get_sampler(name: str):
    """Sampler registry for Algorithm 1's GetSamplingAlgorithm."""
    table = {"none": identity_sample, "kout": kout_sample, "bfs": bfs_sample, "ldd": ldd_sample}
    if name not in table:
        raise KeyError(f"unknown sampling method {name!r}; options: {sorted(table)}")
    return table[name]
