"""ConnectIt sampling methods (paper §3.2, Appendix C.3).

All three schemes emit a *composable* labeling (Definition 3.1): height-1
trees (every vertex points to itself or to a root) that are a valid partial
connectivity labeling. k-out comes in the four variants of Appendix C.3
(afforest / pure / hybrid / maxdeg); each selects its edges in one Spark
query of per-vertex minima over packed int64 orders, planned once per
one-partition edge table and re-run on every later call, and the sampled
components are contracted with a union-find algorithm. BFS and LDD sampling
run on the dataflow kernels.

Each sampler returns a :class:`SampleResult` with the labeling, the partial
spanning forest (Definition B.2) as a ``(k, 2)`` int64 edge array, and the
metrics reported in Tables 6/7: coverage of the most frequent component
and the fraction of inter-component edges remaining. The samplers do not
time themselves: ``framework.run_sampling`` records each sample's scheme and
wall time on it.
"""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame, SparkSession
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
    forest: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    scheme: str = ""  # set with time_s by framework.run_sampling; "none" = no sampling
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


def identity_sample(spark: SparkSession, g: Graph) -> SampleResult:
    """The *No Sampling* setting: every vertex is its own component."""
    return SampleResult(labels=np.arange(g.n, dtype=np.int64))


# Each one-partition edge table's planned k-out selection queries, keyed on
# the table and then on (variant, k, seed). An entry lives as long as its table.
_PREPARED: weakref.WeakKeyDictionary[DataFrame, dict[tuple[str, int, int], DataFrame]] = (
    weakref.WeakKeyDictionary()
)


def _pick_query(rows: DataFrame, picks: list[tuple[str, int]]) -> DataFrame:
    """The ``(pick, src, rank, dst)`` rows of every pick, in no order.

    ``picks[i] = (order, j)`` takes the j smallest edges of each source under
    ``order``, a SQL int64 expression that should be unique among a source's
    edges (j = 0 takes none). All picks of one edge share one hash aggregate
    (``min_by``); a pick of j >= 2 ranks every edge in a ``row_number``
    window, since Spark has no top-j aggregate. Both kinds are one query.
    """
    single = [i for i, (_, j) in enumerate(picks) if j == 1]
    parts = []
    if single:
        best = rows.groupBy("src").agg(*(F.expr(f"min_by(dst, {picks[i][0]}) AS p{i}") for i in single))
        stack = ", ".join(f"{i}, src, 1, p{i}" for i in single)
        parts.append(best.selectExpr(f"stack({len(single)}, {stack}) AS (pick, src, rank, dst)"))
    for i, (order, j) in enumerate(picks):
        if j > 1:
            rank = f"row_number() OVER (PARTITION BY src ORDER BY {order}) AS rank"
            parts.append(rows.selectExpr(f"{i} AS pick", "src", rank, "dst").where(f"rank <= {j}"))
    return functools.reduce(DataFrame.union, parts)


def _selection(edges: DataFrame, n: int, variant: str, k: int, seed: int) -> DataFrame:
    """The selection query of one k-out variant over an n-vertex graph's edge table."""
    # "First k edges" = the adjacency-list prefix. Under the suite's
    # locality-preserving vertex ids (web graphs: lexicographic URLs), the
    # stored prefix is dominated by nearby-id (same-domain) neighbors, so
    # the prefix is modeled as nearest-id-first — this is what reproduces
    # the kout-afforest pathology of Appendix C.3 on web orderings.
    # The adjacency and max-degree orders pack (criterion, dst) into one
    # int64, unique among a source's edges, so their picks have no ties;
    # dst < n keeps the packing exact.
    adjacency = f"abs(dst - src) * {n} + dst"
    rand = f"xxhash64(src, dst, {seed})"
    rows = edges
    if variant == "afforest":
        picks = [(adjacency, k)]
    elif variant == "pure":
        picks = [(rand, k)]
    elif variant == "hybrid":
        picks = [(adjacency, 1), (rand, k - 1)]
    else:  # maxdeg: the neighbor with the largest degree, ties to the smaller id
        deg = rows.groupBy(F.col("src").alias("dv")).agg(F.count("*").alias("deg"))
        rows = rows.join(deg, rows.dst == deg.dv)
        picks = [(f"({n} - deg) * {n} + dst", 1), (rand, k - 1)]
    return _pick_query(rows, picks)


def _pick_pairs(edges: DataFrame, n: int, variant: str, k: int, seed: int) -> np.ndarray:
    """The selected ``(src, dst)`` pairs, ordered by (pick, src, rank): one Spark job.

    On a one-partition table the selection query is built once and re-run:
    a later call skips its analysis, optimization and planning, and still
    scans every edge, since a plan with no exchange keeps no stage output
    between runs. On several partitions the plan has an exchange whose
    shuffle map output a re-run would reuse, so each call builds its own.
    """
    if edges.rdd.getNumPartitions() == 1:
        prepared = _PREPARED.setdefault(edges, {})
        key = (variant, k, seed)
        if key not in prepared:
            prepared[key] = _selection(edges, n, variant, k, seed)
        query = prepared[key]
    else:
        query = _selection(edges, n, variant, k, seed)
    p = query.toPandas().to_numpy(dtype=np.int64)
    return p[np.lexsort((p[:, 2], p[:, 1], p[:, 0]))][:, [1, 3]]


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
    if k < 1:
        raise ValueError(f"k-out sampling needs k >= 1, got {k}")
    pairs = _pick_pairs(g.df(spark), g.n, variant, k, seed)
    labels, st = run_components(g.n, pairs, uf_spec or UFSpec("uf-rem-cas", "naive", "split-one"))
    # full compression already applied: labeling is height-1 (roots + leaves)
    return SampleResult(
        labels=labels,
        forest=st.forest,
        edges_processed=len(pairs),
        info={"variant": variant, "k": k, "counters": st.c.as_dict()},
    )


def _tree_edges(tree) -> np.ndarray:
    """The ``(parent, v)`` edges of a BFS/LDD tree frame, roots dropped."""
    v, p = tree["v"].to_numpy(np.int64), tree["parent"].to_numpy(np.int64)
    keep = v != p
    return np.stack([p[keep], v[keep]], axis=1)


def bfs_sample(
    spark: SparkSession, g: Graph, c: int = 3, seed: int = 0, coverage_cutoff: float = 0.10
) -> SampleResult:
    """BFS sampling (Algorithm 5): up to ``c`` tries from random sources,
    stopping once a component covering >10 % of the vertices is found."""
    gen = np.random.default_rng(seed)
    edges = g.df(spark)
    degs = g.degrees()
    labels = np.arange(g.n, dtype=np.int64)
    forest = np.empty((0, 2), dtype=np.int64)
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
            forest = _tree_edges(tree)
            break
    return SampleResult(
        # canonical min-id roots keep the min-ordering invariant that the
        # min-based union-find finishes rely on (still height-1, same classes)
        labels=canonicalize(labels),
        forest=forest,
        edges_processed=edges_processed,
        rounds=rounds,
    )


def ldd_sample(
    spark: SparkSession, g: Graph, beta: float = 0.2, seed: int = 0, permute: bool = False
) -> SampleResult:
    """LDD sampling (Algorithm 6): a single Miller–Peng–Xu round-set."""
    lab, rounds = ldd_labels(spark, g.df(spark), g.n, beta=beta, seed=seed, permute=permute)
    labels = np.arange(g.n, dtype=np.int64)
    labels[lab["v"].to_numpy()] = lab["center"].to_numpy()
    return SampleResult(
        labels=canonicalize(labels),
        forest=_tree_edges(lab),
        edges_processed=g.m_directed,
        rounds=rounds,
        info={"beta": beta, "permute": permute},
    )


def get_sampler(name: str):
    """Sampler registry for Algorithm 1's GetSamplingAlgorithm.

    Every sampler is called as ``sampler(spark, g, **opts)``. The table is
    built per call, so a sampler replaced on this module is the one found.
    """
    table = {"none": identity_sample, "kout": kout_sample, "bfs": bfs_sample, "ldd": ldd_sample}
    if name not in table:
        raise KeyError(f"unknown sampling method {name!r}; options: {sorted(table)}")
    return table[name]
