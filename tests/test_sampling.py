"""Sampling methods: composability (Definition 3.1), forest validity
(Definition B.2), and the quality metrics of Tables 6/7."""
import gc
import hashlib
import weakref

import numpy as np
import pytest

from repro.core import sampling
from repro.core.framework import run_sampling
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
    assert forest.dtype == np.int64 and forest.ndim == 2 and forest.shape[1] == 2
    pairs = set(zip(g.src.tolist(), g.dst.tolist()))
    assert all((u, v) in pairs for u, v in forest.tolist())
    assert len(forest) == len(set(map(tuple, forest.tolist())))
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


@pytest.mark.parametrize("k", [0, -1])
def test_kout_rejects_bad_k(spark, cw, k):
    with pytest.raises(ValueError, match="k >= 1"):
        kout_sample(spark, cw, k=k)


# SHA-256 of the int64 pairs in the order the union-find consumed them, then the
# forest in its returned order, then the labels; captured from the window-query
# selection (one row_number window per order, collected from one partition).
KOUT_GOLDENS = {  # (graph, variant, k)
    ("CW", "afforest", 1): "722d2a88241e6e1ccc0b955461472ea71b56bd5fc40479c4eb8e7265a77e01b5",
    ("CW", "afforest", 2): "610702b8157c8916e0d228a9e22f890ebdcf1ec671f57ab2b131d4d71dcfa278",
    ("CW", "afforest", 3): "752a081ff139e2b92bccce2ead41fe1bcbdef793dfcda1cb8d9ab6292f8ad93c",
    ("CW", "hybrid", 1): "722d2a88241e6e1ccc0b955461472ea71b56bd5fc40479c4eb8e7265a77e01b5",
    ("CW", "hybrid", 2): "a12ae6d29edfe168c4d35747d118c9d68c49a65ad42a606ebd9489ddb7b05cc4",
    ("CW", "hybrid", 3): "e43d5dd7371dbbd38edd8d92b8f15b0ded663586f65441abb1351862fe3d6793",
    ("CW", "maxdeg", 1): "5279be3b9f21e434c36997ea1b86900dca0cc08a275568e6920058bdc10ddd1c",
    ("CW", "maxdeg", 2): "9ff3881d2a30655fb4701c79b85efffe102d1365d68fece1d94a4e55a6870f1c",
    ("CW", "maxdeg", 3): "9ad47f2706f2637cdc7e118a7e995a0d5648c8f7dd6f2639ef1b560c6eb46c60",
    ("CW", "pure", 1): "7b55d2d5bb3b0b803936ec159a6ab138081564543819f7670bad01da6ee08c2c",
    ("CW", "pure", 2): "c7370ae4be4f6ee0c23b6a7197e62c802f51898610a284bcc52bbe84e1c27ed2",
    ("CW", "pure", 3): "a4555d7420302660c84ea1169f32608dfaf5f2cdc9be78e354fb25ebe448c187",
    ("RO", "afforest", 1): "31576e4a79f8e6e760ddca5110ae6355e388f1de0a30ddc585c25288ea248473",
    ("RO", "afforest", 2): "74f5be60695d207eda197aafd8ce3797992cdd5e450247f56134ff0c3dec0478",
    ("RO", "afforest", 3): "5f42485c18ee90a64063f4dd0cb25a95619def183afa7f102ee2e0f301f4efd2",
    ("RO", "hybrid", 1): "31576e4a79f8e6e760ddca5110ae6355e388f1de0a30ddc585c25288ea248473",
    ("RO", "hybrid", 2): "58c5f31dd332dfd534e04d586524bb60e21d5591e8d3b33ca244d4aa281f7543",
    ("RO", "hybrid", 3): "170d7d9b6f5f45b0f5d2a22e88e3f6b91e817c86326db164a448fc9a3f124dbb",
    ("RO", "maxdeg", 1): "556368bff4db3c84aaa7b71131c251bcc947119ed4e09bd9e355321c9d8de0a1",
    ("RO", "maxdeg", 2): "08d19be5c2aac8a181ee252bdd9d1ced2b3d06fd706603d69c8710fc7f502e15",
    ("RO", "maxdeg", 3): "2a786814bec08fde914b601ff7bd6439779955d96ca68eb22fa0622ca658277a",
    ("RO", "pure", 1): "b1bad25bf2bc6d04241719ff8f9eb2f291111eb29bb6344807aa15da64b52a6e",
    ("RO", "pure", 2): "326892c337fdd946e358616fb542b34972088f499932f10ab26e7da958608058",
    ("RO", "pure", 3): "a742bcda704110222ac01c69e7d472758b2ba36e57c64e46f47a565096ad0247",
}


@pytest.mark.parametrize("graph", ["CW", "RO"])
@pytest.mark.parametrize("variant", KOUT_VARIANTS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kout_goldens(spark, monkeypatch, graph, variant, k):
    g = suite.get(graph, "test")
    seen, run_components = [], sampling.run_components

    def record(n, pairs, *args, **kwargs):
        seen.append(np.asarray(pairs, dtype=np.int64))
        return run_components(n, pairs, *args, **kwargs)

    monkeypatch.setattr(sampling, "run_components", record)
    s = kout_sample(spark, g, k=k, variant=variant)
    h = hashlib.sha256(seen[0].tobytes())
    h.update(np.array(s.forest, dtype=np.int64).tobytes())
    h.update(s.labels.astype(np.int64).tobytes())
    assert h.hexdigest() == KOUT_GOLDENS[(graph, variant, k)]


def test_kout_one_spark_job(spark, spark_jobs, cw):
    """Selection and collect are one Spark query, one job."""
    cw.df(spark)
    j0 = spark_jobs()
    kout_sample(spark, cw, k=2, variant="hybrid")
    assert spark_jobs() - j0 == 1


@pytest.mark.parametrize("variant", KOUT_VARIANTS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kout_prepared_query_repeats(spark, spark_jobs, monkeypatch, cw, variant, k):
    """The second and third calls on one graph re-run its prepared selection
    query: each is one Spark job and returns the first call's pairs, labels
    and forest, which are also those of a newly built graph's first call."""
    fresh = gen.Graph(cw.name, cw.n, cw.src.copy(), cw.dst.copy())
    cw.df(spark), fresh.df(spark)
    seen, run_components = [], sampling.run_components

    def record(n, pairs, *args, **kwargs):
        seen.append(np.asarray(pairs, dtype=np.int64))
        return run_components(n, pairs, *args, **kwargs)

    monkeypatch.setattr(sampling, "run_components", record)
    outs, jobs = [], []
    for g in (cw, cw, cw, fresh):
        j0 = spark_jobs()
        s = kout_sample(spark, g, k=k, variant=variant)
        jobs.append(spark_jobs() - j0)
        outs.append((seen[-1], s.labels, s.forest))
    assert jobs == [1, 1, 1, 1]
    for out in outs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(out, outs[0]))


def _skipped_stages(spark, j0: int, j1: int) -> list[int]:
    """Skipped stages of each Spark job in ``[j0, j1)``, sorted: a stage whose
    output an earlier job left behind is skipped, not run. (Adaptive execution
    runs each map stage as its own job, in no fixed order.)"""
    sc = spark.sparkContext._jsc.sc()
    sc.listenerBus().waitUntilEmpty()
    return sorted(sc.statusStore().job(j).numSkippedStages() for j in range(j0, j1))


@pytest.mark.parametrize("variant", KOUT_VARIANTS)
def test_kout_several_partitions_build_per_call(spark, spark_jobs, monkeypatch, cw, variant):
    """On a table of several partitions the selection has an exchange, and a
    re-run plan would skip its map stage and reuse the last call's shuffle
    output. So every call builds its own query: each starts the first call's
    jobs and skips no more stages than the first."""
    g = gen.Graph(cw.name, cw.n, cw.src.copy(), cw.dst.copy())
    monkeypatch.setattr(gen, "_ROWS_PER_PARTITION", len(g.src) // 2)
    assert g.df(spark).rdd.getNumPartitions() == 2
    calls = []
    for _ in range(3):
        j0 = spark_jobs()
        kout_sample(spark, g, k=3, variant=variant)
        calls.append(_skipped_stages(spark, j0, spark_jobs()))
    assert calls[1] == calls[0] and calls[2] == calls[0]
    assert g.df(spark) not in sampling._PREPARED


def test_kout_prepared_query_dies_with_its_table(spark):
    """A prepared query is kept only as long as the graph's edge table."""
    g = gen.rmat(120, 480, seed=3)
    kout_sample(spark, g)
    table = weakref.ref(g.df(spark))
    assert table() in sampling._PREPARED
    gc.collect()
    before = len(sampling._PREPARED)
    del g
    gc.collect()
    assert table() is None and len(sampling._PREPARED) == before - 1


def test_bfs_sample_composable(spark, cw, cw_truth):
    s = bfs_sample(spark, cw, seed=1)
    _assert_composable(cw, cw_truth, s.labels)
    assert 0 < s.coverage() <= 1.0


def test_bfs_sample_forest(spark, cw):
    s = bfs_sample(spark, cw, seed=1)
    if len(s.forest):  # found the massive component
        _assert_forest(cw, s.labels, s.forest)


def test_bfs_sample_finds_massive_component(spark, cw):
    s = bfs_sample(spark, cw, c=3, seed=0)
    assert s.coverage() > 0.10


def test_ldd_sample_composable(spark, cw, cw_truth):
    s = ldd_sample(spark, cw, beta=0.2, seed=0)
    _assert_composable(cw, cw_truth, s.labels)
    _assert_forest(cw, s.labels, s.forest)


def test_ldd_sample_metrics(spark, cw):
    s = run_sampling(spark, cw, "ldd", beta=0.2, seed=0)
    ic = s.intercomponent_fraction(cw)
    assert 0.0 <= ic < 1.0
    assert s.rounds > 0 and s.time_s > 0 and s.scheme == "ldd"


def test_identity_sample(spark, cw):
    s = identity_sample(spark, cw)
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
