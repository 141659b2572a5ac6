"""The ConnectIt framework (Algorithm 1): full sampling × finish matrix."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import (
    ALL_FINISHES,
    MINBASED_FINISHES,
    SAMPLINGS,
    UF_FINISHES,
    connectivity,
    contract_edges,
    finish_with_sample,
    identify_frequent,
    run_sampling,
)
from repro.core.sampling import kout_sample
from repro.graphs import generators as gen
from repro.graphs import suite
from repro.graphs.ground_truth import canonicalize, cc_labels, same_partition
from repro.oracle import assert_equivalent
from repro.unionfind import UFSpec

G = suite.get("CW", "test")
TRUTH = canonicalize(cc_labels(G.n, G.src, G.dst))
EMPTY = gen.from_pairs("empty", 5, [], [])

# one cached sample per scheme, shared across the finish matrix (like the
# harness and the paper's framework)
_samples: dict = {}


@pytest.fixture(scope="module", params=["none", "kout", "bfs", "ldd"])
def scheme_sample(request, spark):
    scheme = request.param
    if scheme not in _samples:
        _samples[scheme] = run_sampling(spark, G, scheme)
    return scheme, _samples[scheme]


FINISHES = list(UF_FINISHES) + ["sv", "stergiou", "labelprop", "lt-crfa", "lt-prf", "lt-pus", "lt-eufa"]


@pytest.mark.parametrize("finish", FINISHES)
def test_matrix(spark, scheme_sample, finish):
    scheme, sample = scheme_sample
    labels, info = finish_with_sample(spark, G, sample, finish)
    assert same_partition(labels, TRUTH), (scheme, finish)
    assert info["finish_time_s"] >= 0


@pytest.mark.parametrize("finish", FINISHES)
@pytest.mark.parametrize("scheme", SAMPLINGS)
def test_matrix_edgeless(spark, scheme, finish):
    """Vertices but no edges: every vertex is its own component."""
    labels, _ = connectivity(spark, EMPTY, scheme, finish)
    assert np.array_equal(labels, np.arange(EMPTY.n))


@pytest.mark.parametrize("finish", MINBASED_FINISHES)
@pytest.mark.parametrize("scheme", ["kout", "bfs", "ldd"])
def test_contracted_finish_starts_no_spark_job(spark, spark_jobs, scheme, finish):
    """A sampled min-based finish runs its rounds over the contracted edges
    on the driver: zero Spark jobs, a count that timing noise cannot flip."""
    if scheme not in _samples:
        _samples[scheme] = run_sampling(spark, G, scheme)
    j0 = spark_jobs()
    labels, info = finish_with_sample(spark, G, _samples[scheme], finish)
    assert spark_jobs() == j0, (scheme, finish)
    assert info["finish_edges"] > 0 and info["rounds"] >= 1
    assert same_partition(labels, TRUTH), (scheme, finish)


@pytest.mark.parametrize("finish", UF_FINISHES)
def test_uf_finish_reports_zero_rounds(spark, scheme_sample, finish):
    """A union-find finish is one driver pass: it reports 0 rounds, not none."""
    _, info = finish_with_sample(spark, G, scheme_sample[1], finish)
    assert info["rounds"] == 0


# the random graphs of test_spanning_forest's forest property: edges on
# vertices 0..23 of 28, so vertices 24..27 are always isolated
edge_lists = st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=30)


@given(pairs=edge_lists)
@settings(max_examples=3, deadline=None)
def test_every_sampling_finish_pair_agrees(spark, pairs):
    """On random graphs with several components, every sampling x finish pair
    labels the graph by its components."""
    e = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    g = gen.from_pairs("random", 28, e[:, 0], e[:, 1])
    truth = canonicalize(cc_labels(g.n, g.src, g.dst))
    for scheme in SAMPLINGS:
        sample = run_sampling(spark, g, scheme)
        for finish in ALL_FINISHES:
            labels, _ = finish_with_sample(spark, g, sample, finish)
            assert np.array_equal(labels, truth), (scheme, finish)


def test_finish_reads_scheme_and_time_from_sample(spark):
    """The sample alone tells the finish how it was made: a k-out sample
    passed with no other argument gets the contracted SV finish."""
    sample = run_sampling(spark, G, "kout")
    labels, info = finish_with_sample(spark, G, sample, "sv")
    assert sample.scheme == "kout" and sample.time_s > 0
    assert info["sampling"] == "kout" and info["sample_time_s"] == sample.time_s
    assert 0 < info["contracted_n"] < G.n
    assert info["total_time_s"] == sample.time_s + info["finish_time_s"]
    assert same_partition(labels, TRUTH)


def test_unlabelled_sample_is_not_taken_for_none(spark):
    """A sample built without run_sampling has no scheme, and is finished as
    sampled, not as the unsampled setting."""
    labels, info = finish_with_sample(spark, G, kout_sample(spark, G), "sv")
    assert info["sampling"] == "" and "contracted_n" in info
    assert same_partition(labels, TRUTH)


def test_contract_edges():
    """Sorted, distinct inter-component pairs, each with an edge of g behind it."""
    g = gen.rmat(60, 240, seed=2)
    cid = np.random.default_rng(5).integers(0, 7, g.n)
    pairs, eid = contract_edges(g.src, g.dst, cid, 7)
    assert pairs.dtype == eid.dtype == np.int64
    assert np.all(np.diff(pairs[:, 0] * 7 + pairs[:, 1]) > 0)  # sorted, distinct
    assert np.all(pairs[:, 0] != pairs[:, 1])
    assert np.array_equal(np.stack([cid[g.src[eid]], cid[g.dst[eid]]], axis=1), pairs)
    cs, cd = cid[g.src], cid[g.dst]
    assert set(zip(cs[cs != cd].tolist(), cd[cs != cd].tolist())) == set(map(tuple, pairs.tolist()))
    none = np.empty(0, dtype=np.int64)
    pairs, eid = contract_edges(none, none, cid, 7)
    assert pairs.shape == (0, 2) and eid.shape == (0,)


def test_identify_frequent():
    lab = np.array([2, 2, 2, 7, 7, 9])
    assert identify_frequent(lab) == (2, 3)


def test_identify_frequent_empty_labeling():
    with pytest.raises(ValueError, match="non-empty"):
        identify_frequent(np.array([], dtype=np.int64))


def test_sampling_reduces_finish_edges(spark):
    _, info_ns = connectivity(spark, G, "none", "uf-rem-cas")
    _, info_s = connectivity(spark, G, "kout", "uf-rem-cas")
    assert info_s["finish_edges"] < info_ns["finish_edges"]
    assert info_s["frequent_coverage"] > 0.5


def test_minbased_contraction_shrinks_graph(spark):
    _, info = connectivity(spark, G, "kout", "sv")
    assert info["contracted_n"] < G.n / 5
    assert info["finish_edges"] < G.m_directed / 5


def test_custom_uf_spec(spark):
    labels, _ = connectivity(
        spark, G, "none", "uf-rem-lock", uf_spec=UFSpec("uf-rem-lock", "halve", "splice")
    )
    assert same_partition(labels, TRUTH)


def test_uf_spec_mismatch_raises(spark):
    with pytest.raises(ValueError, match="does not match"):
        connectivity(spark, G, "none", "uf-rem-cas", uf_spec=UFSpec("uf-async", "naive"))


def test_unknown_finish_raises(spark):
    with pytest.raises(KeyError):
        connectivity(spark, G, "none", "nope")


def test_unknown_sampling_raises(spark):
    with pytest.raises(KeyError):
        connectivity(spark, G, "zigzag", "uf-rem-cas")


def test_all_finishes_listed():
    assert len(MINBASED_FINISHES) == 3 + 16
    assert len(ALL_FINISHES) == 6 + 19


def test_result_via_duckdb_oracle(spark):
    labels, _ = connectivity(spark, G, "kout", "uf-rem-cas")
    got = spark.createDataFrame(pd.DataFrame({"v": np.arange(G.n), "label": labels}))
    truth_pdf = pd.DataFrame({"v": np.arange(G.n), "label": TRUTH})
    assert_equivalent(got, "SELECT v, label FROM truth", truth=truth_pdf)


def test_component_count_via_oracle(spark):
    labels, _ = connectivity(spark, G, "ldd", "uf-hooks")
    got = (
        spark.createDataFrame(pd.DataFrame({"v": np.arange(G.n), "label": labels}))
        .selectExpr("count(distinct label) as n_comp")
    )
    truth_pdf = pd.DataFrame({"label": TRUTH})
    assert_equivalent(got, "SELECT COUNT(DISTINCT label) AS n_comp FROM truth", truth=truth_pdf)
