"""Vectorized synthetic graph generators.

All generators return a :class:`Graph`: a symmetric, deduplicated,
self-loop-free edge list in numpy COO form. ``Graph.df(spark)`` lifts it to a
materialized Spark DataFrame with columns ``src, dst`` (both directions
present, matching the paper's symmetrized inputs).

These generators are the data substitution for the paper's real-world inputs
(road_usa, LiveJournal, …, Hyperlink2012): each stand-in reproduces the
structural property that drives the paper's results — diameter, degree skew,
massive component, vertex-ordering locality — at laptop scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.unionfind.core import as_batch, check_vertex_count


def _dedupe_symmetrize(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate, drop self-loops, add reverse edges, and deduplicate.

    Vertex ids must be integers in ``[0, n)`` (``ValueError`` otherwise) and
    fit in 31 bits so a pair packs into one int64 key.
    """
    src, dst = as_batch(n, np.stack([np.asarray(src), np.asarray(dst)], axis=1)).T
    keep = src != dst
    src, dst = src[keep], dst[keep]
    a = np.concatenate([src, dst])
    b = np.concatenate([dst, src])
    key = a * np.int64(n) + b
    _, idx = np.unique(key, return_index=True)
    return a[idx], b[idx]


def edge_frame(spark: SparkSession, src: np.ndarray, dst: np.ndarray) -> DataFrame:
    """Materialized one-partition ``(src, dst)`` DataFrame for tables read repeatedly.

    ``createDataFrame`` alone plans a ``LocalTableScan`` that serializes every
    row into the tasks of each query reading it; ``localCheckpoint`` stores the
    rows once in the executors (eagerly) and leaves a plan that only points at
    them. The schema is explicit, so an edgeless table needs no rows to infer
    it from. The table is one partition, in row order: a plan over it needs no
    exchange, which makes every edgeMap round one Spark job (a mask filter or
    a hash join of the frontier) and lets k-out re-run a prepared query.
    Parallel tasks would crowd out the JVM's compiler and GC threads, which
    makes a query's time depend on how far the JVM has warmed up.
    """
    pdf = pd.DataFrame({"src": src, "dst": dst})
    return spark.createDataFrame(pdf, "src long, dst long").coalesce(1).localCheckpoint()


@dataclass
class Graph:
    """Symmetric graph in COO form. ``m`` counts undirected edges."""

    name: str
    n: int
    src: np.ndarray  # directed pairs; both (u,v) and (v,u) present
    dst: np.ndarray
    # (session, DataFrame) of the last df() call; the edge arrays are never
    # mutated after construction, so the DataFrame stays valid
    _df: tuple[SparkSession, DataFrame] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Reject a bad ``n``, ids outside ``[0, n)`` and an asymmetric edge
        list: the union-find and min-based finishes read a missing ``(v, u)``
        differently, so it would give a silently wrong partition."""
        check_vertex_count(self.n)
        # np.stack raises ValueError too when src and dst differ in length
        src, dst = as_batch(self.n, np.stack([np.asarray(self.src), np.asarray(self.dst)], axis=1)).T
        key = src * np.int64(self.n) + dst
        if not (key[1:] >= key[:-1]).all():  # from_pairs emits its rows in key order
            key = np.sort(key)
        if not np.array_equal(key, np.sort(dst * np.int64(self.n) + src)):
            raise ValueError("edge list is not symmetric: some (u, v) has no (v, u)")

    @property
    def m(self) -> int:
        return len(self.src) // 2

    @property
    def m_directed(self) -> int:
        return len(self.src)

    def df(self, spark: SparkSession) -> DataFrame:
        """Edge DataFrame (src, dst), both directions present.

        Materialized by :func:`edge_frame` once per SparkSession and reused;
        another session rebuilds it.
        """
        if self._df is None or self._df[0] is not spark:
            self._df = (spark, edge_frame(spark, self.src, self.dst))
        return self._df[1]

    def pandas(self) -> pd.DataFrame:
        return pd.DataFrame({"src": self.src, "dst": self.dst})

    def degrees(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) adjacency, neighbors sorted per vertex."""
        order = np.lexsort((self.dst, self.src))
        indices = self.dst[order]
        counts = np.bincount(self.src, minlength=self.n)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return indptr.astype(np.int64), indices


def from_pairs(name: str, n: int, src, dst) -> Graph:
    s, d = _dedupe_symmetrize(n, src, dst)
    return Graph(name, n, s, d)


def grid(rows: int, cols: int, name: str = "grid") -> Graph:
    """2-D grid — the high-diameter road-network stand-in (road_usa)."""
    n = rows * cols
    r, c = np.divmod(np.arange(n), cols)
    right = np.where(c + 1 < cols)[0]
    down = np.where(r + 1 < rows)[0]
    src = np.concatenate([right, down])
    dst = np.concatenate([right + 1, down + cols])
    return from_pairs(name, n, src, dst)


def rmat(n: int, m: int, a: float = 0.5, b: float = 0.1, c: float = 0.1, seed: int = 0, name: str = "rmat") -> Graph:
    """RMAT power-law generator; paper uses (a,b,c)=(0.5,0.1,0.1)."""
    levels = max(1, int(np.ceil(np.log2(max(2, n)))))
    g = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _ in range(levels):
        r = g.random(m)
        src = src * 2 + ((r >= a + b) & (r < a + b + c)) + (r >= a + b + c)
        # quadrant: a→(0,0) b→(0,1) c→(1,0) d→(1,1)
        dst = dst * 2 + ((r >= a) & (r < a + b)) + (r >= a + b + c)
    # fold the 2^levels ids into [0, n); a vertex no edge draws stays isolated
    src, dst = src % n, dst % n
    return from_pairs(name, n, src, dst)


def barabasi_albert(n: int, m_per: int, seed: int = 0, name: str = "ba") -> Graph:
    """Preferential attachment; built in chunks from the repeated-nodes list."""
    g = np.random.default_rng(seed)
    core = m_per + 1
    src_l = [np.repeat(np.arange(core), core)[: core * core]]
    dst_l = [np.tile(np.arange(core), core)[: core * core]]
    # endpoint pool for preferential sampling
    pool = np.concatenate([src_l[0], dst_l[0]])
    chunk = max(256, n // 64)
    v = core
    while v < n:
        hi = min(n, v + chunk)
        new = np.arange(v, hi)
        targets = pool[g.integers(0, len(pool), (hi - v) * m_per)]
        s = np.repeat(new, m_per)
        src_l.append(s)
        dst_l.append(targets)
        pool = np.concatenate([pool, s, targets])
        v = hi
    return from_pairs(name, n, np.concatenate(src_l), np.concatenate(dst_l))


def path_graph(n: int, name: str = "path") -> Graph:
    ids = np.arange(n - 1)
    return from_pairs(name, n, ids, ids + 1)


def star(n: int, name: str = "star") -> Graph:
    return from_pairs(name, n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n))


def cycle(n: int, name: str = "cycle") -> Graph:
    ids = np.arange(n)
    return from_pairs(name, n, ids, (ids + 1) % n)


def complete(n: int, name: str = "complete") -> Graph:
    u, v = np.meshgrid(np.arange(n), np.arange(n))
    return from_pairs(name, n, u.ravel(), v.ravel())


def web_like(
    n_clusters: int,
    cluster_size: int,
    intra_per_vertex: int = 4,
    inter_edges: int | None = None,
    extra_components: int = 0,
    extra_comp_size: int = 8,
    seed: int = 0,
    name: str = "web",
) -> Graph:
    """Web-graph stand-in (ClueWeb / Hyperlink analogs).

    Consecutive vertex ids form dense clusters ("domains"), so a vertex's
    first-listed neighbors are intra-cluster — reproducing the lexicographic
    vertex-ordering pathology that makes kout-afforest sampling find only
    local clusters on real web graphs (Appendix C.3). Sparse inter-cluster
    edges connect the clusters into one massive component; optional extra
    small components reproduce the multi-component structure of web crawls.
    """
    g = np.random.default_rng(seed)
    nc = n_clusters * cluster_size
    base = np.repeat(np.arange(n_clusters) * cluster_size, cluster_size * intra_per_vertex)
    src = np.tile(np.repeat(np.arange(cluster_size), intra_per_vertex), n_clusters) + base
    dst = g.integers(0, cluster_size, len(src)) + base
    if inter_edges is None:
        inter_edges = n_clusters * 3
    isrc = g.integers(0, nc, inter_edges)
    idst = g.integers(0, nc, inter_edges)
    # ring over cluster heads guarantees one massive component
    heads = np.arange(n_clusters) * cluster_size
    rsrc, rdst = heads, np.roll(heads, -1)
    srcs = [src, isrc, rsrc]
    dsts = [dst, idst, rdst]
    n = nc
    for _ in range(extra_components):
        ids = n + np.arange(extra_comp_size)
        srcs.append(ids[:-1])
        dsts.append(ids[1:])
        n += extra_comp_size
    return from_pairs(name, n, np.concatenate(srcs), np.concatenate(dsts))


def disjoint_union(name: str, graphs: list[Graph]) -> Graph:
    """Disjoint union with id offsets (for multi-component test inputs)."""
    srcs, dsts, off = [], [], 0
    for g in graphs:
        srcs.append(g.src + off)
        dsts.append(g.dst + off)
        off += g.n
    return Graph(name, off, np.concatenate(srcs), np.concatenate(dsts))
