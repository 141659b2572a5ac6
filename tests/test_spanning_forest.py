"""Spanning forest framework (Algorithm 2, Theorem 7)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import ALL_FINISHES, ROOT_BASED, connectivity, spanning_forest
from repro.graphs import generators as gen
from repro.graphs import suite
from repro.graphs.ground_truth import canonicalize, cc_labels, num_components, same_partition
from repro.unionfind import UFSpec

G = suite.get("CW", "test")
TRUTH = canonicalize(cc_labels(G.n, G.src, G.dst))
N_COMP = num_components(TRUTH)


def _assert_valid_forest(g, truth, forest):
    assert forest.dtype == np.int64 and forest.ndim == 2 and forest.shape[1] == 2
    pairs = set(zip(g.src.tolist(), g.dst.tolist()))
    assert all((u, v) in pairs for u, v in forest.tolist()), "forest edge not in graph"
    assert len(forest) == g.n - num_components(truth), "wrong forest size"
    fe = np.array(forest, dtype=np.int64).reshape(-1, 2)
    fl = cc_labels(
        g.n, np.concatenate([fe[:, 0], fe[:, 1]]), np.concatenate([fe[:, 1], fe[:, 0]])
    )
    # spans the same components and, having n - #comp edges, is acyclic
    assert same_partition(fl, truth)


# ``via``: the forest spanning_forest returns, or the one connectivity leaves
# in info["forest"] (ids "<sampling>-connectivity")
@pytest.mark.parametrize(
    ("sampling", "via"),
    [pytest.param(s, via, id=s if via == "spanning_forest" else f"{s}-{via}")
     for via in ("spanning_forest", "connectivity") for s in ("none", "kout", "bfs", "ldd")],
)
@pytest.mark.parametrize("finish", ROOT_BASED)
def test_forest_matrix(spark, sampling, via, finish):
    if via == "spanning_forest":
        labels, forest, info = spanning_forest(spark, G, sampling, finish)
    else:
        labels, info = connectivity(spark, G, sampling, finish)
        forest = info["forest"]
    assert same_partition(labels, TRUTH)
    _assert_valid_forest(G, TRUTH, forest)


def test_forest_with_custom_spec(spark):
    labels, forest, _ = spanning_forest(
        spark, G, "none", "uf-rem-cas", uf_spec=UFSpec("uf-rem-cas", "halve", "halve-one")
    )
    _assert_valid_forest(G, TRUTH, forest)


def test_non_root_based_rejected(spark):
    with pytest.raises(ValueError, match="root-based"):
        spanning_forest(spark, G, "none", "labelprop")
    with pytest.raises(ValueError, match="root-based"):
        spanning_forest(spark, G, "kout", "stergiou")
    # the Liu-Tarjan codes without RootUp write to non-roots and have no forest
    rejected = [f for f in ALL_FINISHES if f not in ROOT_BASED]
    assert len(rejected) == 12 and {"lt-pus", "lt-cufa"} <= set(rejected)
    for finish in rejected:
        with pytest.raises(ValueError, match="root-based"):
            spanning_forest(spark, G, "none", finish)


def test_forest_on_tree_is_whole_graph(spark):
    g = gen.star(12)
    truth = cc_labels(g.n, g.src, g.dst)
    _, forest, _ = spanning_forest(spark, g, "none", "uf-rem-cas")
    assert len(forest) == g.m  # a tree is its own spanning forest
    _assert_valid_forest(g, truth, forest)


@pytest.mark.parametrize("sampling", ["none", "kout", "bfs", "ldd"])
def test_sv_forest_edgeless(spark, sampling):
    g = gen.from_pairs("empty", 5, [], [])
    labels, forest, _ = spanning_forest(spark, g, sampling, "sv")
    assert np.array_equal(labels, np.arange(5))
    assert forest.dtype == np.int64 and forest.shape == (0, 2)


@pytest.mark.parametrize("sampling", ["none", "kout", "bfs", "ldd"])
def test_sv_forest_multi_component(spark, sampling):
    g = gen.disjoint_union("m", [gen.cycle(8), gen.complete(5), gen.path_graph(4)])
    truth = cc_labels(g.n, g.src, g.dst)
    labels, forest, _ = spanning_forest(spark, g, sampling, "sv")
    assert same_partition(labels, truth)
    _assert_valid_forest(g, truth, forest)


# edges on vertices 0..23 of 28: vertices 24..27 are always isolated
edge_lists = st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=30)


@pytest.mark.parametrize("finish", ROOT_BASED)
@pytest.mark.parametrize("sampling", ["none", "kout", "bfs", "ldd"])
@given(pairs=edge_lists)
@settings(max_examples=5, deadline=None)
def test_forest_property(spark, sampling, finish, pairs):
    """On random graphs with several components: a forest of n - #C edges of
    G spanning its components, and the components as labels."""
    e = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    g = gen.from_pairs("random", 28, e[:, 0], e[:, 1])
    truth = canonicalize(cc_labels(g.n, g.src, g.dst))
    labels, forest, _ = spanning_forest(spark, g, sampling, finish)
    assert np.array_equal(labels, truth)
    _assert_valid_forest(g, truth, forest)


def test_forest_multi_component(spark):
    g = gen.disjoint_union("m", [gen.cycle(8), gen.complete(5), gen.path_graph(4)])
    truth = cc_labels(g.n, g.src, g.dst)
    _, forest, _ = spanning_forest(spark, g, "none", "uf-hooks")
    assert len(forest) == g.n - 3
    _assert_valid_forest(g, truth, forest)
