"""Dataflow kernels: BFS and LDD against the numpy ground truth."""
import numpy as np
import pytest
from pyspark.sql import SparkSession

from repro.dataflow import ldd
from repro.dataflow.bfs import bfs_tree
from repro.dataflow.edgemap import _edge_map
from repro.dataflow.ldd import ldd_labels
from repro.graphs import generators as gen
from repro.graphs.generators import edge_frame
from repro.graphs.ground_truth import bfs_levels, canonicalize, cc_labels


@pytest.fixture(scope="module")
def grid():
    return gen.grid(6, 9)


@pytest.fixture(scope="module")
def grid_edges(spark, grid):
    e = grid.df(spark).localCheckpoint()
    e.count()
    return e


def test_bfs_distances(spark, grid, grid_edges):
    parent, rounds = bfs_tree(spark, grid_edges, grid.n, 0)
    indptr, indices = grid.csr()
    dist = bfs_levels(indptr, indices, 0)
    assert (parent >= 0).all()
    # a BFS tree: each parent is one level closer to the source
    assert parent[0] == 0 and (dist[parent[1:]] == dist[1:] - 1).all()
    assert rounds == dist.max()


def test_bfs_tree_parents_are_edges(spark, grid, grid_edges):
    parent, _ = bfs_tree(spark, grid_edges, grid.n, 5)
    pairs = set(zip(grid.src.tolist(), grid.dst.tolist()))
    for v, p in enumerate(parent.tolist()):
        assert v == p or (p, v) in pairs


def test_bfs_partial_component(spark):
    g = gen.disjoint_union("m", [gen.path_graph(5), gen.cycle(6)])
    e = g.df(spark)
    parent, _ = bfs_tree(spark, e, g.n, 0)
    assert set(np.flatnonzero(parent >= 0).tolist()) == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("source", [-1, 10])
def test_bfs_rejects_bad_source(spark, source):
    g = gen.path_graph(10)
    with pytest.raises(ValueError):
        bfs_tree(spark, g.df(spark), g.n, source)


@pytest.mark.parametrize("bad", [-1, 3])
def test_bfs_rejects_bad_edge_id(spark, bad):
    """An edge endpoint outside [0, n) is an error, not a wrapped index."""
    e = edge_frame(spark, np.array([0, bad]), np.array([bad, 0]))
    with pytest.raises(ValueError, match="outside"):
        bfs_tree(spark, e, 3, 0)


def test_edge_map_packs_key_and_src(spark):
    """The packed minimum equals the lexicographic (key, src) one, up to key = src = n - 1."""
    n = 5
    src = np.array([4, 2, 0, 3, 2, 4, 1, 3])
    dst = np.array([0, 0, 1, 1, 2, 3, 3, 4])
    frontier, key = np.array([0, 2, 3, 4]), np.array([4, 4, 1, 4])
    d, k, s = _edge_map(spark, edge_frame(spark, src, dst), n, frontier, key)
    key_of = np.full(n, -1)
    key_of[frontier] = key
    on = key_of[src] >= 0
    es, ed = src[on], dst[on]
    order = np.lexsort((es, key_of[es], ed))
    first = order[np.r_[True, ed[order][1:] != ed[order][:-1]]]
    got = np.argsort(d)
    assert np.array_equal(d[got], ed[first])
    assert np.array_equal(k[got], key_of[es[first]])
    assert np.array_equal(s[got], es[first])
    # dst 1: the smaller key beats the smaller src; dst 3: key = src = n - 1
    assert (k[got[1]], s[got[1]]) == (1, 3) and (k[got[3]], s[got[3]]) == (4, 4)


def test_edge_map_mask_rejects_bad_src(spark):
    """Unkeyed, the frontier is a byte mask read at src + 1, and Spark reads a
    byte for a position <= 0 too (-1 is the last): the edge (-2, 1) would
    reach vertex 1 from a frontier of n - 1 with parent -2. It raises instead."""
    e = edge_frame(spark, np.array([-2, 1, 1, 2]), np.array([1, -2, 2, 1]))
    with pytest.raises(ValueError, match="endpoint -2 outside"):
        _edge_map(spark, e, 3, np.array([2]))


def test_bfs_round_builds_no_frontier_frame(spark, monkeypatch):
    """A BFS round sends its frontier inside the query: no DataFrame is built."""
    g = gen.grid(4, 5)
    e = g.df(spark)

    def refuse(*a, **k):
        raise AssertionError("a BFS round built a DataFrame")

    monkeypatch.setattr(SparkSession, "createDataFrame", refuse)
    parent, rounds = bfs_tree(spark, e, g.n, 0)
    assert (parent >= 0).all() and rounds == 7


@pytest.mark.parametrize("bad", [-1, 5])
def test_edge_map_rejects_bad_key(spark, bad):
    e = edge_frame(spark, np.array([0, 1]), np.array([1, 0]))
    with pytest.raises(ValueError, match="key"):
        _edge_map(spark, e, 5, np.array([0, 1]), np.array([0, bad]))


def test_edge_map_arrays_pack_key_and_src(spark):
    """The driver arrays give the DataFrame path's packed minima, up to key = src = n - 1."""
    n = 5
    src = np.array([4, 2, 0, 3, 2, 4, 1, 3])
    dst = np.array([0, 0, 1, 1, 2, 3, 3, 4])
    frontier, key = np.array([0, 2, 3, 4]), np.array([4, 4, 1, 4])
    want = _edge_map(spark, edge_frame(spark, src, dst), n, frontier, key)
    d, k, s = _edge_map(spark, (src, dst), n, frontier, key)
    got = np.argsort(want[0])
    assert np.array_equal(d, want[0][got])
    assert np.array_equal(k, want[1][got]) and np.array_equal(s, want[2][got])
    # dst 1: the smaller key beats the smaller src; dst 3: key = src = n - 1
    assert (k[1], s[1]) == (1, 3) and (k[3], s[3]) == (4, 4)


@pytest.mark.parametrize("bad", [-1, 5])
def test_edge_map_arrays_reject_bad_key(spark, bad):
    with pytest.raises(ValueError, match="key"):
        _edge_map(spark, (np.array([0, 1]), np.array([1, 0])), 5, np.array([0, 1]), np.array([0, bad]))


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("end", ["src", "dst"])
def test_edge_map_arrays_reject_bad_endpoint(spark, bad, end):
    """An endpoint outside [0, n) at either end is an error, even when the
    frontier does not reach it: a numpy index would wrap -1 to n - 1."""
    ok, wrong = np.array([1, 0]), np.array([0, bad])
    edges = (wrong, ok) if end == "src" else (ok, wrong)
    with pytest.raises(ValueError, match="endpoint"):
        _edge_map(spark, edges, 3, np.array([0]))


@pytest.mark.parametrize("bad", [-1, 3])
def test_edge_map_rejects_bad_frontier(spark, bad):
    with pytest.raises(ValueError, match="frontier"):
        _edge_map(spark, (np.array([0, 1]), np.array([1, 0])), 3, np.array([0, bad]))


def test_edge_map_arrays_duplicate_frontier(spark):
    """A vertex listed twice counts with its smaller key, as in the DataFrame
    path; unkeyed, the DataFrame's mask and the arrays agree too."""
    src, dst = np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1])
    frontier, key = np.array([1, 2, 1, 2]), np.array([0, 1, 3, 2])
    e = edge_frame(spark, src, dst)
    want = _edge_map(spark, e, 4, frontier, key)
    d, k, s = _edge_map(spark, (src, dst), 4, frontier, key)
    assert d.tolist() == [0, 1, 2] and k.tolist() == [0, 1, 0] and s.tolist() == [1, 2, 1]
    got = np.argsort(want[0])
    assert all(np.array_equal(a, b[got]) for a, b in zip((d, k, s), want))
    want = _edge_map(spark, e, 4, frontier)
    d, k, s = _edge_map(spark, (src, dst), 4, frontier)
    assert d.tolist() == [0, 1, 2] and k is None and s.tolist() == [1, 2, 1]
    got = np.argsort(want[0])
    assert np.array_equal(d, want[0][got]) and np.array_equal(s, want[2][got]) and want[1] is None


def test_edge_map_arrays_empty_frontier(spark, spark_jobs):
    """An empty frontier reaches nothing, and the array path starts no Spark
    job; the DataFrame's all-zero mask reaches nothing either."""
    edges, none = (np.array([0, 1]), np.array([1, 0])), np.empty(0, dtype=np.int64)
    j0 = spark_jobs()
    for key in (None, none):
        d, k, s = _edge_map(spark, edges, 2, none, key)
        assert len(d) == len(s) == 0 and (k is None) == (key is None)
    assert spark_jobs() == j0
    d, k, s = _edge_map(spark, edge_frame(spark, *edges), 2, none)
    assert len(d) == len(s) == 0 and k is None


def test_ldd_covers_and_is_partial_labeling(spark, grid, grid_edges):
    center, _, _ = ldd_labels(spark, grid_edges, grid.n, beta=0.4, seed=2)
    assert (center >= 0).all()
    assert (center[center] == center).all()  # every center is its own center: height 1 (Def. 3.1)
    truth = canonicalize(cc_labels(grid.n, grid.src, grid.dst))
    assert (truth[center] == truth).all()  # clusters within components


def test_ldd_parents_are_edges(spark, grid, grid_edges):
    _, parent, _ = ldd_labels(spark, grid_edges, grid.n, beta=0.3, seed=3)
    pairs = set(zip(grid.src.tolist(), grid.dst.tolist()))
    for v, p in enumerate(parent.tolist()):
        assert v == p or (p, v) in pairs


def test_ldd_multi_component(spark):
    g = gen.disjoint_union("m", [gen.path_graph(6), gen.star(5)])
    center, _, _ = ldd_labels(spark, g.df(spark), g.n, beta=0.5, seed=1)
    assert (center >= 0).all()
    # no cluster crosses the component boundary
    truth = canonicalize(cc_labels(g.n, g.src, g.dst))
    assert (truth[center] == truth).all()


@pytest.mark.parametrize("bad", [-1, 12])
def test_ldd_rejects_bad_edge_id(spark, bad):
    g = gen.path_graph(12)
    e = edge_frame(spark, np.append(g.src, [5, bad]), np.append(g.dst, [bad, 5]))
    with pytest.raises(ValueError, match="outside"):
        ldd_labels(spark, e, g.n, beta=0.05, seed=1)


def test_ldd_beta_controls_fragmentation(spark):
    """Higher β wakes more centers early → more clusters (in expectation);
    checked on a long path where growth is slow."""
    g = gen.path_graph(120)
    e = g.df(spark).localCheckpoint()
    lo, _, _ = ldd_labels(spark, e, g.n, beta=0.05, seed=4)
    hi, _, _ = ldd_labels(spark, e, g.n, beta=0.9, seed=4)
    assert len(np.unique(hi)) > len(np.unique(lo))


def test_ldd_jobs_per_round(spark, spark_jobs, count_edge_maps, grid, grid_edges):
    """Each LDD round runs at most one edgeMap (none when its frontier is
    empty), and each edgeMap is one Spark job."""
    edge_maps = count_edge_maps(ldd)
    j0 = spark_jobs()
    _, _, rounds = ldd_labels(spark, grid_edges, grid.n, beta=0.4, seed=2)
    assert spark_jobs() - j0 == edge_maps() <= rounds


@pytest.mark.parametrize("keyed", [False, True])
def test_edge_map_one_partition_is_one_job(spark, spark_jobs, keyed):
    """The edge table is one partition, and the frontier is a mask filter
    (unkeyed) or hash-joined (keyed) with no exchange: the edgeMap is one
    Spark job, the collect."""
    g = gen.grid(4, 5)
    e = edge_frame(spark, g.src, g.dst)
    assert e.rdd.getNumPartitions() == 1
    frontier = np.array([0, 7, 7, 19])
    key = np.array([3, 1, 2, 0]) if keyed else None
    j0 = spark_jobs()
    d, _, _ = _edge_map(spark, e, g.n, frontier, key)
    assert spark_jobs() - j0 == 1
    assert len(d) > 0


def test_bfs_one_job_per_round(spark, spark_jobs):
    """Every BFS round on a one-partition table, the terminating one
    included, is exactly one Spark job."""
    g = gen.path_graph(12)
    e = g.df(spark)
    j0 = spark_jobs()
    _, rounds = bfs_tree(spark, e, g.n, 0)
    assert rounds == 11
    assert spark_jobs() - j0 == rounds + 1


@pytest.mark.parametrize("keyed", [False, True])
def test_edge_map_substrates_match(spark, keyed):
    """The one-partition edge table's mask filter or hash join returns the driver
    arrays' (dst, key, src), with a frontier vertex listed twice and key = src = n - 1."""
    g = gen.grid(4, 5)
    n = g.n
    frontier = np.array([n - 1, 3, 7, 3, 12, n - 1])
    key = np.array([n - 1, 6, 2, 1, 9, n - 1]) if keyed else None
    want = _edge_map(spark, (g.src, g.dst), n, frontier, key)
    if keyed:
        assert (n - 1, n - 1) in zip(want[1].tolist(), want[2].tolist())
    d, k, s = _edge_map(spark, edge_frame(spark, g.src, g.dst), n, frontier, key)
    got = np.argsort(d)
    assert np.array_equal(d[got], want[0]) and np.array_equal(s[got], want[2])
    assert np.array_equal(k[got], want[1]) if keyed else k is None
