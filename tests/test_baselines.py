"""Comparator systems: correctness of every baseline implementation."""
import numpy as np
import pytest

from repro.baselines.bfscc import bfscc
from repro.baselines.multistep import multistep
from repro.baselines.primitives import gather_edges, map_edges
from repro.baselines.stinger_like import StingerLike
from repro.baselines.workeff import workeff_cc
from repro.graphs import generators as gen
from repro.graphs import suite
from repro.graphs.ground_truth import canonicalize, cc_labels, same_partition
from repro.harness.tables import SYSTEMS
from repro.unionfind import UFSpec, run_components

GRAPHS = {
    "CW": suite.get("CW", "test"),
    "multi": gen.disjoint_union("m", [gen.cycle(9), gen.path_graph(7), gen.complete(4)]),
}


def _truth(g):
    return canonicalize(cc_labels(g.n, g.src, g.dst))


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_bfscc(spark, gname):
    g = GRAPHS[gname]
    labels, info = bfscc(spark, g)
    assert same_partition(labels, _truth(g))
    assert info["bfs_launches"] == len(np.unique(_truth(g)))


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_workeff(spark, gname):
    g = GRAPHS[gname]
    labels, info = workeff_cc(spark, g)
    assert same_partition(labels, _truth(g))
    assert info["levels"] >= 1


def test_workeff_raises_past_its_level_budget(spark, monkeypatch):
    """A run that would need more LDD levels than the budget raises instead
    of returning the partial labeling: one level leaves a 200-vertex path in
    several clusters."""
    monkeypatch.setattr("repro.baselines.workeff.MAX_LEVELS", 1)
    with pytest.raises(RuntimeError, match="1 LDD levels"):
        workeff_cc(spark, gen.path_graph(200))


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_multistep(spark, gname):
    g = GRAPHS[gname]
    labels, info = multistep(spark, g)
    assert same_partition(labels, _truth(g))


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_multistep_reports_rounds(spark, gname):
    """MultiStep's rounds are its BFS rounds plus its label-propagation rounds."""
    _, info = multistep(spark, GRAPHS[gname])
    assert info["rounds"] == info["bfs_rounds"] + info["lp_rounds"] >= 1


@pytest.mark.parametrize("system", ["GAP-Afforest", "PatwaryRM"], ids=["gap_afforest", "patwary_rm"])
def test_union_find_systems_report_zero_rounds(spark, system):
    """GAP-Afforest and PatwaryRM finish with one driver union-find pass, which
    runs no rounds."""
    assert SYSTEMS[system](spark, GRAPHS["CW"])[1]["rounds"] == 0


def test_gap_sv(spark):
    g = GRAPHS["CW"]
    labels, info = SYSTEMS["GAP-SV"](spark, g)
    assert same_partition(labels, _truth(g))


def test_gap_afforest(spark):
    g = GRAPHS["CW"]
    labels, info = SYSTEMS["GAP-Afforest"](spark, g)
    assert same_partition(labels, _truth(g))
    assert 0 < info["frequent_coverage"] <= 1


def test_patwary(spark):
    for g in GRAPHS.values():
        labels, _ = SYSTEMS["PatwaryRM"](spark, g)
        assert same_partition(labels, _truth(g))


def test_patwary_is_rem_lock_splice(spark):
    """PatwaryRM's finish does the work of one UF-Rem-Lock{SpliceAtomic} pass
    over every edge, counter for counter."""
    g = GRAPHS["CW"]
    _, info = SYSTEMS["PatwaryRM"](spark, g)
    _, st = run_components(g.n, np.stack([g.src, g.dst], axis=1), UFSpec("uf-rem-lock", "naive", "splice"))
    assert info["counters"] == st.c.as_dict()
    assert info["sampling"] == "none" and info["finish"] == "uf-rem-lock"


def test_stinger_like_incremental():
    g = GRAPHS["multi"]
    st = StingerLike(g.n)
    edges = np.stack([g.src, g.dst], axis=1)
    rng = np.random.default_rng(1)
    for i in rng.permutation(len(edges)):
        st.insert(*edges[i])
    assert same_partition(canonicalize(st.labels()), _truth(g))


def test_stinger_queries():
    st = StingerLike(6)
    st.insert(0, 1)
    st.insert(1, 2)
    assert st.is_connected(0, 2)
    assert not st.is_connected(0, 3)


def test_stinger_batch_matches_static():
    g = GRAPHS["CW"]
    st = StingerLike(g.n)
    st.process_batch(np.stack([g.src, g.dst], axis=1))
    assert same_partition(canonicalize(st.labels()), _truth(g))


def test_primitives(spark):
    g = GRAPHS["CW"]
    e = g.df(spark).localCheckpoint()
    rows_m, t_m = map_edges(e)
    rows_g, t_g = gather_edges(spark, e, g.n)
    assert rows_m == rows_g == len(np.unique(g.src))
    assert t_m > 0 and t_g > 0
