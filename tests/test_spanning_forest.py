"""Spanning forest framework (Algorithm 2, Theorem 7)."""
import numpy as np
import pytest

from repro.core.spanning_forest import spanning_forest
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


@pytest.mark.parametrize("sampling", ["none", "kout", "bfs", "ldd"])
@pytest.mark.parametrize("finish", ["uf-rem-cas", "uf-async", "uf-hooks", "uf-early", "uf-rem-lock", "uf-jtb", "sv"])
def test_forest_matrix(spark, sampling, finish):
    labels, forest, info = spanning_forest(spark, G, sampling, finish)
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


def test_forest_on_tree_is_whole_graph(spark):
    g = gen.star(12)
    truth = cc_labels(g.n, g.src, g.dst)
    _, forest, _ = spanning_forest(spark, g, "none", "uf-rem-cas")
    assert len(forest) == g.m  # a tree is its own spanning forest
    _assert_valid_forest(g, truth, forest)


def test_forest_multi_component(spark):
    g = gen.disjoint_union("m", [gen.cycle(8), gen.complete(5), gen.path_graph(4)])
    truth = cc_labels(g.n, g.src, g.dst)
    _, forest, _ = spanning_forest(spark, g, "none", "uf-hooks")
    assert len(forest) == g.n - 3
    _assert_valid_forest(g, truth, forest)
