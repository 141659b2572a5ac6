"""Batch-incremental streaming connectivity (§3.5, Algorithm 3)."""
import numpy as np
import pytest

from repro.core.streaming import StreamingConnectIt
from repro.graphs import generators as gen
from repro.graphs.ground_truth import canonicalize, cc_labels, same_partition
from repro.unionfind import UFSpec

G = gen.rmat(150, 600, seed=21)
TRUTH = canonicalize(cc_labels(G.n, G.src, G.dst))
EDGES = np.stack([G.src, G.dst], axis=1)

ALGOS = {
    "type1-rem-cas": UFSpec("uf-rem-cas", "naive", "split-one"),
    "type1-async": UFSpec("uf-async", "compress"),
    "type1-hooks": UFSpec("uf-hooks", "halve"),
    "type1-early": UFSpec("uf-early", "naive"),
    "type1-jtb": UFSpec("uf-jtb", "two-try"),
    "type3-rem-splice": UFSpec("uf-rem-cas", "naive", "splice"),
    "type3-rem-lock-splice": UFSpec("uf-rem-lock", "naive", "splice"),
    "type2-sv": "sv",
    "type2-lt": "lt-root",
}


@pytest.mark.parametrize("name", sorted(ALGOS))
def test_single_batch_matches_static(name):
    s = StreamingConnectIt(G.n, ALGOS[name])
    s.process_batch(EDGES)
    assert same_partition(canonicalize(s.labels()), TRUTH)


@pytest.mark.parametrize("name", sorted(ALGOS))
def test_many_batches_match_static(name):
    s = StreamingConnectIt(G.n, ALGOS[name])
    for i in range(0, len(EDGES), 97):
        s.process_batch(EDGES[i : i + 97])
    assert same_partition(canonicalize(s.labels()), TRUTH)


def test_type_classification():
    assert StreamingConnectIt(4, UFSpec("uf-rem-cas", "naive", "split-one")).type == 1
    assert StreamingConnectIt(4, UFSpec("uf-rem-cas", "naive", "splice")).type == 3
    assert StreamingConnectIt(4, UFSpec("uf-rem-lock", "naive", "splice")).type == 3
    assert StreamingConnectIt(4, "sv").type == 2
    assert StreamingConnectIt(4, "lt-root").type == 2


def test_queries_within_batches():
    s = StreamingConnectIt(6)
    ans = s.process_batch(np.array([[0, 1], [2, 3]]), np.array([[0, 1], [0, 2], [4, 5]]))
    assert ans.tolist() == [True, False, False]
    ans = s.process_batch(np.array([[1, 2]]), np.array([[0, 3], [0, 5]]))
    assert ans.tolist() == [True, False]


def test_queries_only_batch():
    s = StreamingConnectIt(4)
    s.process_batch(np.array([[0, 1]]))
    ans = s.process_batch(np.empty((0, 2)), np.array([[0, 1], [2, 3], [1, 0]]))
    assert ans.tolist() == [True, False, True]


def test_wait_free_interleaved_ops():
    """Type 1: single inserts and queries interleave arbitrarily."""
    s = StreamingConnectIt(G.n, UFSpec("uf-async", "naive"))
    rng = np.random.default_rng(5)
    order = rng.permutation(len(EDGES))
    for i, idx in enumerate(order):
        u, v = EDGES[idx]
        s.insert(u, v)
        if i % 7 == 0:
            a, b = EDGES[rng.integers(0, len(EDGES))]
            got = s.is_connected(int(a), int(b))
            assert isinstance(got, bool)
    assert same_partition(canonicalize(s.labels()), TRUTH)


def test_incremental_monotone():
    """Connectivity answers only ever flip False→True (monotone inserts)."""
    s = StreamingConnectIt(10)
    assert not s.is_connected(0, 9)
    chain = np.array([[i, i + 1] for i in range(9)])
    for e in chain:
        s.process_batch(e.reshape(1, 2))
    assert s.is_connected(0, 9)


def test_empty_batch():
    s = StreamingConnectIt(5)
    ans = s.process_batch(np.empty((0, 2)))
    assert len(ans) == 0


@pytest.mark.parametrize("n", [-3, 2.5])
def test_rejects_bad_vertex_count(n):
    with pytest.raises(ValueError, match="vertex count"):
        StreamingConnectIt(n)


def test_unknown_algorithm_raises():
    with pytest.raises(KeyError):
        StreamingConnectIt(4, "bogus")


def test_counters_accumulate():
    s = StreamingConnectIt(G.n)
    s.process_batch(EDGES)
    assert s.state.c.as_dict()["parent_reads"] > 0


BAD_PAIRS = {"negative": (1, -1), "too-large": (1, 4), "float": (0.0, 1.9)}


@pytest.mark.parametrize("case", sorted(BAD_PAIRS))
@pytest.mark.parametrize("op", ["insert", "is_connected", "batch-update", "batch-query"])
def test_rejects_bad_ids(op, case):
    """Bad ids raise ValueError before any update of the batch is applied."""
    s = StreamingConnectIt(4)
    s.process_batch(np.array([[0, 1]]))
    pair = BAD_PAIRS[case]
    with pytest.raises(ValueError):
        if op == "insert":
            s.insert(*pair)
        elif op == "is_connected":
            s.is_connected(*pair)
        elif op == "batch-update":
            s.process_batch(np.array([[2, 3], pair]))
        else:
            s.process_batch(np.array([[2, 3]]), np.array([pair]))
    assert s.labels().tolist() == [0, 0, 2, 3]


@pytest.mark.parametrize("bad", [(1, -1), (1, G.n), (0.0, 1.9)])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_bad_query_half_leaves_state(name, bad):
    """Valid updates with a bad query half: the batch is rejected whole, and
    neither the labels nor any counter moves."""
    s = StreamingConnectIt(G.n, ALGOS[name])
    s.process_batch(EDGES[:40], EDGES[40:50])
    labels, counters = s.labels(), s.state.c.as_dict()
    with pytest.raises(ValueError):
        s.process_batch(EDGES[50:100], np.array([[2, 3], bad]))
    assert np.array_equal(s.labels(), labels) and s.state.c.as_dict() == counters


@pytest.mark.parametrize("name", ["type1-rem-cas", "type2-sv", "type3-rem-splice"])
def test_empty_graph(name):
    s = StreamingConnectIt(0, ALGOS[name])
    assert len(s.process_batch(np.empty((0, 2)), np.empty((0, 2)))) == 0
    assert len(s.labels()) == 0


@pytest.mark.parametrize("name", sorted(ALGOS))
def test_counts_one_union_per_update(name):
    s = StreamingConnectIt(G.n, ALGOS[name])
    s.process_batch(EDGES[:50])
    s.insert(*EDGES[50])
    assert s.state.c.as_dict()["unions"] == 51
