"""Graph generator substrate tests: invariants every generator must hold."""
import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs import suite

GENERATORS = {
    "grid": lambda: gen.grid(6, 7),
    "torus2": lambda: gen.torus(5, 2),
    "torus3": lambda: gen.torus(4, 3),
    "rmat": lambda: gen.rmat(100, 400, seed=1),
    "ba": lambda: gen.barabasi_albert(150, 3, seed=2),
    "er": lambda: gen.erdos_renyi(80, 200, seed=3),
    "path": lambda: gen.path_graph(12),
    "star": lambda: gen.star(9),
    "cycle": lambda: gen.cycle(11),
    "complete": lambda: gen.complete(7),
    "web": lambda: gen.web_like(5, 12, extra_components=2, seed=4),
}


@pytest.fixture(scope="module", params=sorted(GENERATORS))
def graph(request):
    return GENERATORS[request.param]()


def test_symmetric(graph):
    pairs = set(zip(graph.src.tolist(), graph.dst.tolist()))
    assert all((b, a) in pairs for a, b in pairs)


def test_no_self_loops(graph):
    assert (graph.src != graph.dst).all()


def test_deduplicated(graph):
    key = graph.src * graph.n + graph.dst
    assert len(np.unique(key)) == len(key)


def test_ids_in_range(graph):
    assert graph.src.min() >= 0 and graph.src.max() < graph.n
    assert graph.dst.min() >= 0 and graph.dst.max() < graph.n


def test_m_is_half_directed(graph):
    assert graph.m == graph.m_directed // 2
    assert graph.m_directed % 2 == 0


def test_csr_roundtrip(graph):
    indptr, indices = graph.csr()
    assert indptr[-1] == graph.m_directed
    # neighbor multiset matches COO
    degs = np.diff(indptr)
    assert (degs == graph.degrees()).all()


def test_degrees_sum(graph):
    assert graph.degrees().sum() == graph.m_directed


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_deterministic(name):
    a, b = GENERATORS[name](), GENERATORS[name]()
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


def test_grid_structure():
    g = gen.grid(3, 4)
    assert g.n == 12
    assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical undirected edges


def test_torus_degrees():
    g = gen.torus(5, 3)
    assert (g.degrees() == 6).all()  # 2d neighbors each


def test_complete_edge_count():
    g = gen.complete(6)
    assert g.m == 15


def test_star_structure():
    g = gen.star(10)
    d = g.degrees()
    assert d[0] == 9 and (d[1:] == 1).all()


def test_disjoint_union_offsets():
    g = gen.disjoint_union("u", [gen.path_graph(4), gen.cycle(5)])
    assert g.n == 9
    assert g.m == 3 + 5
    # no cross edges between the halves
    assert not (((g.src < 4) & (g.dst >= 4)) | ((g.src >= 4) & (g.dst < 4))).any()


def test_with_weights():
    g = gen.grid(4, 4)
    w = g.with_weights(seed=1)
    assert len(w) == g.m
    assert (w.u < w.v).all()
    assert (w.w > 0).all()
    w2 = g.with_weights(seed=1)
    assert np.allclose(w.w, w2.w)


def test_web_like_ordering_locality():
    """First-listed neighbors are intra-cluster — the kout-afforest pathology."""
    g = gen.web_like(6, 20, seed=0)
    indptr, indices = g.csr()
    cluster = np.arange(g.n) // 20
    first_nbr = indices[indptr[:-1]]
    frac_local = (cluster[: len(first_nbr)] == cluster[first_nbr]).mean()
    assert frac_local > 0.8


def test_rmat_skew():
    g = gen.rmat(2048, 8000, seed=5)
    d = g.degrees()
    assert d.max() > 5 * max(1, int(np.median(d[d > 0])))  # heavy tail


def test_spark_df_roundtrip(spark):
    g = gen.grid(4, 5)
    pdf = g.df(spark).toPandas()
    assert len(pdf) == g.m_directed
    assert set(pdf.columns) == {"src", "dst"}


@pytest.mark.parametrize(
    "src, dst", [([0], [-1]), ([0], [5]), ([0.0], [1.9])], ids=["negative", "out-of-range", "float"]
)
def test_from_pairs_rejects_bad_ids(src, dst):
    with pytest.raises(ValueError):
        gen.from_pairs("x", 3, src, dst)


@pytest.mark.parametrize(
    "src, dst",
    [([0], [-1]), ([0], [5]), ([0.0], [1.9]), ([0, 1], [1])],
    ids=["negative", "out-of-range", "float", "unequal-length"],
)
def test_graph_rejects_bad_ids(src, dst):
    """Direct construction (as in ``disjoint_union``) is checked too."""
    with pytest.raises(ValueError):
        gen.Graph("x", 3, np.asarray(src), np.asarray(dst))


@pytest.mark.parametrize("name", suite.GRAPH_NAMES)
def test_suite_builds(name):
    g = suite.get(name, "test")
    assert g.n > 0 and g.m > 0
    assert g.name == name


@pytest.mark.parametrize("kind", ["RM", "BA"])
def test_streaming_graphs(kind):
    g = suite.streaming_graph(kind, "test")
    assert g.n >= 1000


def test_suite_unknown_raises():
    with pytest.raises(KeyError):
        suite.get("nope")


def test_df_memoized_per_session(spark):
    """One DataFrame per (graph, session); another session rebuilds it."""
    g = gen.grid(3, 4)
    d = g.df(spark)
    assert g.df(spark) is d
    # materialized: the plan points at stored rows, not at a local table
    # whose rows would be serialized into every query's tasks
    assert d._jdf.queryExecution().logical().nodeName() == "LogicalRDD"
    other = spark.newSession()
    d2 = g.df(other)
    assert d2 is not d and d2.sparkSession is other
    rows = sorted((r.src, r.dst) for r in d2.collect())
    assert rows == sorted(zip(g.src.tolist(), g.dst.tolist()))


def test_edge_frame_partitions(spark, monkeypatch):
    """One partition per 2^20 rows, at least one and at most one per core; rows kept in order."""
    g = gen.grid(4, 5)
    d = gen.edge_frame(spark, g.src, g.dst)
    assert d.rdd.getNumPartitions() == 1
    assert [(r.src, r.dst) for r in d.collect()] == list(zip(g.src.tolist(), g.dst.tolist()))
    monkeypatch.setattr(gen, "_ROWS_PER_PARTITION", 8)
    cores = spark.sparkContext.defaultParallelism
    assert gen.edge_frame(spark, g.src, g.dst).rdd.getNumPartitions() == min(cores, g.m_directed // 8)
