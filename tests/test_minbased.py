"""Min-based dataflow finish methods: all 16 Liu-Tarjan variants, Stergiou,
Shiloach-Vishkin, and Label-Propagation, against the ground truth."""
import numpy as np
import pandas as pd
import pytest

from repro.core import minbased
from repro.core.framework import MINBASED_FINISHES, _minbased_runner
from repro.core.minbased import (
    LT_CODES,
    LTSpec,
    label_propagation,
    liu_tarjan,
    shiloach_vishkin,
    stergiou,
)
from repro.graphs import generators as gen
from repro.graphs.generators import edge_frame
from repro.graphs.ground_truth import cc_labels, same_partition
from repro.oracle import assert_equivalent

SMALL = gen.disjoint_union("small", [gen.cycle(6), gen.path_graph(7), gen.star(5)])
RMAT = gen.rmat(80, 320, seed=9)
EDGELESS = gen.from_pairs("empty", 5, [], [])

# Exact round counts of every min-based finish on SMALL and RMAT: a change
# to the round loop must keep the synchronous-round semantics, not just the
# partition.
LT_SMALL_ROUNDS = {
    "cusa": 4, "crsa": 4, "pusa": 4, "prsa": 4, "pus": 4, "prs": 4, "eusa": 4, "eus": 3,
    "cufa": 2, "crfa": 2, "pufa": 2, "prfa": 2, "puf": 2, "prf": 2, "eufa": 2, "euf": 2,
}
LT_RMAT_ROUNDS = {"crfa": 3, "prf": 3, "pus": 3, "euf": 3}


@pytest.fixture(scope="module")
def small_edges(spark):
    e = SMALL.df(spark).localCheckpoint()
    e.count()
    return e


@pytest.fixture(scope="module")
def rmat_edges(spark):
    e = RMAT.df(spark).localCheckpoint()
    e.count()
    return e


@pytest.mark.parametrize("code", LT_CODES)
def test_liu_tarjan_all_variants(spark, small_edges, code):
    truth = cc_labels(SMALL.n, SMALL.src, SMALL.dst)
    labels, rounds, _ = liu_tarjan(spark, small_edges, SMALL.n, code)
    assert same_partition(labels, truth), code
    assert rounds == LT_SMALL_ROUNDS[code], code


@pytest.mark.parametrize("code", ["crfa", "prf", "pus", "euf"])
def test_liu_tarjan_on_rmat(spark, rmat_edges, code):
    truth = cc_labels(RMAT.n, RMAT.src, RMAT.dst)
    labels, rounds, _ = liu_tarjan(spark, rmat_edges, RMAT.n, code)
    assert same_partition(labels, truth)
    assert rounds == LT_RMAT_ROUNDS[code], code


def test_lt_spec_parsing():
    s = LTSpec.from_code("crfa")
    assert s == LTSpec("connect", True, "full", True)
    s = LTSpec.from_code("pus")
    assert s == LTSpec("parent", False, "one", False)
    s = LTSpec.from_code("eusa")
    assert s == LTSpec("extended", False, "one", True)
    with pytest.raises(KeyError):
        LTSpec.from_code("zzz")


def test_lt_code_list_matches_paper():
    assert len(LT_CODES) == 16  # the 16 combinations of Appendix D.4


def test_stergiou(spark, small_edges, rmat_edges):
    for g, e, want in ((SMALL, small_edges, 4), (RMAT, rmat_edges, 4)):
        truth = cc_labels(g.n, g.src, g.dst)
        labels, rounds = stergiou(spark, e, g.n)
        assert same_partition(labels, truth)
        assert rounds == want, g.name


@pytest.mark.parametrize("on_spark", [False, True])
def test_stergiou_reads_the_lowered_label(spark, on_spark):
    """On the path 1 - 2 - 0, round 1 lowers P[2] to 0 and round 2 still reads
    the identity, so it moves nothing; vertex 1 must still get label 0."""
    g = gen.from_pairs("path", 3, [0, 1], [2, 2])
    e = g.df(spark) if on_spark else (g.src, g.dst)
    labels, _ = stergiou(spark, e, g.n)
    assert labels.tolist() == [0, 0, 0]


def test_shiloach_vishkin(spark, small_edges, rmat_edges):
    for g, e, want in ((SMALL, small_edges, 2), (RMAT, rmat_edges, 3)):
        truth = cc_labels(g.n, g.src, g.dst)
        labels, rounds, _ = shiloach_vishkin(spark, e, g.n)
        assert same_partition(labels, truth)
        assert rounds == want, g.name


def test_sv_logarithmic_rounds(spark):
    g = gen.path_graph(64)
    e = g.df(spark)
    _, rounds, _ = shiloach_vishkin(spark, e, g.n)
    assert rounds <= 10  # pointer jumping: O(log n), not O(diameter)


def test_label_propagation(spark, small_edges, rmat_edges):
    for g, e, want in ((SMALL, small_edges, 7), (RMAT, rmat_edges, 4)):
        truth = cc_labels(g.n, g.src, g.dst)
        labels, rounds = label_propagation(spark, e, g.n)
        assert same_partition(labels, truth)
        assert rounds == want, g.name


def test_label_propagation_rounds_track_diameter(spark):
    g = gen.path_graph(20)
    _, rounds = label_propagation(spark, g.df(spark), g.n)
    assert rounds >= g.n - 2  # min label crawls one hop per round


def test_minbased_labels_via_oracle(spark, small_edges):
    labels, _, _ = liu_tarjan(spark, small_edges, SMALL.n, "prf")
    got = spark.createDataFrame(pd.DataFrame({"v": np.arange(SMALL.n), "label": labels}))
    truth = pd.DataFrame({"v": np.arange(SMALL.n), "label": cc_labels(SMALL.n, SMALL.src, SMALL.dst)})
    assert_equivalent(got, "SELECT v, label FROM truth", truth=truth)


@pytest.mark.parametrize("finish", ["sv", "stergiou", "labelprop", "lt-crfa", "lt-pus", "lt-euf"])
def test_minbased_jobs_per_round(spark, spark_jobs, count_edge_maps, rmat_edges, finish):
    """Each round is one edgeMap (two when Stergiou re-reads its round-start
    array), and each edgeMap one Spark job; writeMin, shortcuts and the stop
    test run on the driver."""
    edge_maps = count_edge_maps(minbased)
    j0 = spark_jobs()
    _, rounds, *_ = _minbased_runner(finish)(spark, rmat_edges, RMAT.n)
    assert spark_jobs() - j0 == edge_maps()
    assert rounds <= edge_maps() <= (2 if finish == "stergiou" else 1) * rounds


@pytest.mark.parametrize("finish", ["sv", "stergiou", "labelprop", "lt-crfa", "lt-pus", "lt-euf"])
def test_minbased_edgeless(spark, finish):
    """A table with no edges leaves every vertex its own component after one round."""
    none = np.empty(0, dtype=np.int64)
    labels, rounds, *_ = _minbased_runner(finish)(spark, edge_frame(spark, none, none), 5)
    assert np.array_equal(labels, np.arange(5)) and rounds == 1


@pytest.mark.parametrize("bad", [-1, 3])
def test_minbased_rejects_bad_edge_id(spark, bad):
    """An edge endpoint outside [0, n) is an error, not a wrapped index or a dropped edge."""
    e = edge_frame(spark, np.array([0, bad]), np.array([bad, 0]))
    with pytest.raises(ValueError, match="outside"):
        shiloach_vishkin(spark, e, 3)


@pytest.mark.parametrize("finish", MINBASED_FINISHES)
def test_minbased_substrates_agree(spark, small_edges, rmat_edges, finish):
    """The DataFrame and the driver (src, dst) arrays of the same symmetric
    edges give identical labels and rounds, and SV and every Liu-Tarjan code
    the identical hooks; Stergiou and Label-Propagation return no hooks."""
    run = _minbased_runner(finish)
    edgeless = edge_frame(spark, EDGELESS.src, EDGELESS.dst)
    for g, df in ((SMALL, small_edges), (RMAT, rmat_edges), (EDGELESS, edgeless)):
        want, want_rounds, *want_forest = run(spark, df, g.n)
        got, rounds, *forest = run(spark, (g.src, g.dst), g.n)
        assert np.array_equal(got, want) and rounds == want_rounds, g.name
        assert len(forest) == len(want_forest) == (finish not in ("stergiou", "labelprop")), g.name
        assert all(np.array_equal(f, w) for f, w in zip(forest, want_forest)), g.name
