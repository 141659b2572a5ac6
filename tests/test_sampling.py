"""Sampling methods: composability (Definition 3.1), forest validity
(Definition B.2), and the quality metrics of Tables 6/7."""
import numpy as np
import pytest

from repro.core.sampling import (
    KOUT_VARIANTS,
    bfs_sample,
    get_sampler,
    identify_frequent,
    identity_sample,
    kout_sample,
    ldd_sample,
)
from repro.graphs import generators as gen
from repro.graphs import suite
from repro.graphs.ground_truth import canonicalize, cc_labels, same_partition


@pytest.fixture(scope="module")
def cw():
    return suite.get("CW", "test")


@pytest.fixture(scope="module")
def cw_truth(cw):
    return canonicalize(cc_labels(cw.n, cw.src, cw.dst))


def _assert_composable(g, truth, labels):
    # Requirement (1): height-1 trees
    assert np.array_equal(labels[labels], labels)
    # Requirement (2): valid partial labeling — classes within true components
    for lab in np.unique(labels):
        members = np.flatnonzero(labels == lab)
        assert len(np.unique(truth[members])) == 1


def _assert_forest(g, labels, forest):
    # Definition B.2: forest edges are real edges, at most one per vertex,
    # and contracting them induces exactly the sampled labeling.
    pairs = set(zip(g.src.tolist(), g.dst.tolist()))
    assert all((u, v) in pairs for u, v in forest)
    assert len(forest) == len(set(forest))
    fe = np.array(forest, dtype=np.int64).reshape(-1, 2)
    fl = cc_labels(
        g.n,
        np.concatenate([fe[:, 0], fe[:, 1]]),
        np.concatenate([fe[:, 1], fe[:, 0]]),
    )
    assert same_partition(fl, labels)


@pytest.mark.parametrize("variant", KOUT_VARIANTS)
def test_kout_composable(spark, cw, cw_truth, variant):
    s = kout_sample(spark, cw, k=2, variant=variant)
    _assert_composable(cw, cw_truth, s.labels)
    assert s.edges_processed > 0


@pytest.mark.parametrize("k", [1, 2, 4])
def test_kout_k_improves_quality(spark, cw, cw_truth, k):
    s = kout_sample(spark, cw, k=k, variant="hybrid")
    _assert_composable(cw, cw_truth, s.labels)


def test_kout_forest(spark, cw):
    s = kout_sample(spark, cw, k=2, variant="hybrid")
    _assert_forest(cw, s.labels, s.forest)


def test_kout_hybrid_beats_afforest_on_web_ordering(spark):
    """The lexicographic-local web ordering starves kout-afforest: the random
    edge in the hybrid scheme finds far more of the massive component
    (Appendix C.3's headline observation)."""
    g = suite.get("HL12", "test")
    aff = kout_sample(spark, g, k=2, variant="afforest")
    hyb = kout_sample(spark, g, k=2, variant="hybrid", seed=1)
    assert hyb.coverage() > aff.coverage()


def test_kout_unknown_variant(spark, cw):
    with pytest.raises(KeyError):
        kout_sample(spark, cw, variant="bogus")


def test_bfs_sample_composable(spark, cw, cw_truth):
    s = bfs_sample(spark, cw, seed=1)
    _assert_composable(cw, cw_truth, s.labels)
    assert 0 < s.coverage() <= 1.0


def test_bfs_sample_forest(spark, cw):
    s = bfs_sample(spark, cw, seed=1)
    if s.forest:  # found the massive component
        _assert_forest(cw, s.labels, s.forest)


def test_bfs_sample_finds_massive_component(spark, cw):
    s = bfs_sample(spark, cw, c=3, seed=0)
    assert s.coverage() > 0.10


def test_ldd_sample_composable(spark, cw, cw_truth):
    s = ldd_sample(spark, cw, beta=0.2, seed=0)
    _assert_composable(cw, cw_truth, s.labels)
    _assert_forest(cw, s.labels, s.forest)


def test_ldd_sample_metrics(spark, cw):
    s = ldd_sample(spark, cw, beta=0.2, seed=0)
    ic = s.intercomponent_fraction(cw)
    assert 0.0 <= ic < 1.0
    assert s.rounds > 0 and s.time_s > 0


def test_identity_sample(cw):
    s = identity_sample(cw)
    assert np.array_equal(s.labels, np.arange(cw.n))
    assert s.coverage() == 1 / cw.n


def test_get_sampler_registry():
    assert get_sampler("kout") is kout_sample
    with pytest.raises(KeyError):
        get_sampler("nope")


def test_frequent_identifies_massive(spark, cw, cw_truth):
    s = kout_sample(spark, cw, k=2, variant="hybrid")
    freq, count = identify_frequent(s.labels)
    # the most frequent sampled label sits inside the true massive component
    big = np.bincount(cw_truth).argmax()
    assert cw_truth[freq] == big
    assert count > 0.5 * (cw_truth == big).sum()
