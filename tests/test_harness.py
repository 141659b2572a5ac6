"""Harness smoke tests at test scale: tables build, have the right columns,
and reproduce the paper's qualitative shapes on the tiny stand-ins."""
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame

from repro.core.sampling import SampleResult
from repro.harness import tables as T
from repro.graphs import suite
from repro.graphs.generators import edge_frame
from repro.graphs.ground_truth import cc_labels


def test_table2(spark):
    df = T.table2(spark, "test")
    assert list(df.graph) == list(suite.GRAPH_NAMES)
    assert {"n", "m", "diameter_lb", "num_components", "largest_component", "load_time_s"} <= set(df.columns)
    assert (df.load_time_s > 0).all()
    assert (df.load_time_s_min <= df.load_time_s).all() and (df.load_time_s <= df.load_time_s_max).all()


def test_table2_checks_every_load(spark, monkeypatch):
    """A Table 2 pass must load every directed edge of its graph."""
    monkeypatch.setattr(T, "edge_frame", lambda spark, src, dst: edge_frame(spark, src[1:], dst[1:]))
    with pytest.raises(AssertionError, match="RO: pass 0"):
        T.table2(spark, "test")


def test_table5(spark):
    df = T.table5(spark, "test", batch_sizes=(10, 1000), total_edges=4000)
    assert len(df) == 2
    assert (df.connectit_rate > 0).all() and (df.stinger_rate > 0).all()
    # the paper's shape: ConnectIt beats the structure-maintaining baseline
    assert (df.speedup > 1).all()


def test_table5_checks_against_the_oracle(spark, monkeypatch):
    """Every Table 5 pass is checked against the components of the edges
    streamed, not against the other system: two systems wrong the same way
    fail."""
    for name in ("StreamingConnectIt", "StingerLike"):
        cls = getattr(T, name)
        monkeypatch.setattr(T, name, type(name, (cls,), {"labels": lambda self: np.arange(self.n)}))
    with pytest.raises(AssertionError, match="connectit: pass 0"):
        T.table5(spark, "test", batch_sizes=(1000,), total_edges=4000)


def test_table5_keeps_at_most_two_systems_alive(spark, monkeypatch):
    """A cell keeps only its first warm pass's output, so while Table 5 runs
    at most two instances of either system are alive: the kept one and the
    one a pass is building."""
    peak = Counter()

    def tracked(cls):
        live = weakref.WeakSet()

        def __init__(self, *args):
            cls.__init__(self, *args)
            live.add(self)
            peak[cls.__name__] = max(peak[cls.__name__], len(live))
        return type(cls.__name__, (cls,), {"__init__": __init__})

    for name in ("StreamingConnectIt", "StingerLike"):
        monkeypatch.setattr(T, name, tracked(getattr(T, name)))
    T.table5(spark, "test", batch_sizes=(100, 1000), total_edges=4000)
    assert set(peak) == {"StreamingConnectIt", "StingerLike"}
    assert max(peak.values()) <= 2


def test_table7(spark):
    df = T.table7(spark, "test")
    assert (df.kout_cov > 0.4).all()
    assert (df.kout_ic < 0.2).all()


def test_table4_subset(spark):
    df = T.table4(spark, "test", graphs=("LJ",))
    assert set(df.algorithm) == set(T.STREAM_ALGOS)
    piv = df.set_index("algorithm").updates_per_s
    # shape: UF-Rem-CAS outruns the round-based SV on the same substrate
    assert piv["UF-Rem-CAS"] > piv["SV"]


def test_table4_reads_per_update(spark):
    """Deterministic companion of ``test_table4_subset``: UF-Rem-CAS reads the
    parents array fewer times per update than SV's batch rounds."""
    df = T.table4(spark, "test", graphs=("LJ",))
    reads = df.set_index("algorithm").reads_per_update
    assert reads["UF-Rem-CAS"] < reads["SV"]


def test_table4_cells_are_fresh_warm_passes(spark, monkeypatch):
    """Every Table 4 pass builds a fresh ``StreamingConnectIt`` inside the
    timed call and feeds it the whole graph: 1 + PASSES constructions per
    algorithm, and each cell is the median of its own warm passes."""
    g = suite.get("LJ", "test")
    algos = list(T.STREAM_ALGOS.values())
    timed = [float(T.PASSES - i) for i in range(T.PASSES)]
    clock, made, costs = [0.0], Counter(), {}

    class Fake:
        def __init__(self, n, alg):
            made[alg] += 1
            clock[0] += 0.5
            self.n, self.alg = n, alg
            self.state = SimpleNamespace(c=SimpleNamespace(as_dict=lambda: {"parent_reads": 3 * g.m_directed}))

        def process_batch(self, edges):
            start = 10 * algos.index(self.alg)
            clock[0] += next(costs.setdefault(self.alg, iter([1000.0] + [start + t for t in timed])))
            self.edges = edges

        def labels(self):
            return cc_labels(self.n, self.edges[:, 0], self.edges[:, 1])

    monkeypatch.setattr(T, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(T, "StreamingConnectIt", Fake)
    df = T.table4(spark, "test", graphs=("LJ",))
    assert made == {alg: 1 + T.PASSES for alg in algos}
    assert all(next(c, None) is None for c in costs.values())
    for row, alg in zip(df.itertuples(), algos, strict=True):
        own = [10 * algos.index(alg) + t + 0.5 for t in timed]  # the construction is timed too
        assert row.updates == g.m_directed
        assert row.time_s == np.median(own)
        assert (row.updates_per_s_min, row.updates_per_s_max) == (g.m_directed / max(own), g.m_directed / min(own))
        assert row.reads_per_update == 3


def test_sampling_cells_are_warm_medians(spark, monkeypatch):
    """A sampling cell is the median of PASSES warm ``run_sampling`` passes
    after a cold one, with their min-max: Tables 6 and 7 print it, and
    Table 3's ``time_s`` adds it to the finish's median. The three tables
    share one cell per (graph, scheme), so each runs 1 + PASSES passes."""
    timed = [float(T.PASSES - i) for i in range(T.PASSES)]
    clock, costs = [0.0], {}

    def own(name, scheme):
        start = 100 * suite.GRAPH_NAMES.index(name) + 10 * T.SCHEMES.index(scheme)
        return [start + t for t in timed]

    def run_sampling(spark, g, scheme):
        clock[0] += next(costs.setdefault((g.name, scheme), iter([1000.0] + own(g.name, scheme))))
        return SampleResult(labels=cc_labels(g.n, g.src, g.dst), scheme=scheme)

    def finish_with_sample(spark, g, sample, algo):
        clock[0] += 0.5
        return cc_labels(g.n, g.src, g.dst), {"finish_edges": 0, "rounds": 0}

    monkeypatch.setattr(T, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(T, "_SAMPLE_CACHE", {})
    monkeypatch.setattr(T, "run_sampling", run_sampling)
    monkeypatch.setattr(T, "finish_with_sample", finish_with_sample)
    monkeypatch.setattr(T, "SYSTEMS", {})
    t6, t7 = T.table6(spark, "test"), T.table7(spark, "test")
    t3 = T.table3(spark, "test", graphs=("RO",))
    for df, schemes in ((t6, ("bfs", "ldd")), (t7, ("kout",))):
        assert list(df.graph) == list(suite.GRAPH_NAMES)
        for row in df.to_dict("records"):
            for s in schemes:
                times = own(row["graph"], s)
                assert (row[f"{s}_s"], row[f"{s}_s_min"], row[f"{s}_s_max"]) == (np.median(times), min(times), max(times))
                assert row[f"{s}_ic"] == 0
    assert len(t3) == len(T.SCHEMES) * len(T.UF_ALGOS + T.MIN_ALGOS)
    for row in t3.itertuples():
        assert row.finish_time_s == 0.5
        assert row.time_s == np.median(own("RO", row.sampling)) + 0.5
    assert set(costs) == {(n, s) for n in suite.GRAPH_NAMES for s in ("bfs", "ldd", "kout")} | {
        ("RO", s) for s in T.SCHEMES}
    assert all(next(c, None) is None for c in costs.values())


def test_table8(spark):
    df = T.table8(spark, "test")
    assert len(df) == len(suite.GRAPH_NAMES)
    assert (df.map_s > 0).all() and (df.gather_s > 0).all()


def test_table8_checks_primitive_row_counts(spark, monkeypatch):
    """A MapEdges pass must return one row per vertex with an edge."""
    monkeypatch.setattr(T, "map_edges", lambda edges: (edges.select("src").distinct().count() - 1, 0.0))
    with pytest.raises(AssertionError, match="map: pass 0"):
        T.table8(spark, "test")


def test_table8_primitive_cells_are_whole_calls(spark, monkeypatch):
    """A MapEdges or GatherEdges cell times the whole call, as a ConnectIt
    cell does, not the seconds the primitive reports itself."""
    clock = [0.0]

    def primitive(cost):
        def run(*args):
            edges = next(a for a in args if isinstance(a, DataFrame))
            clock[0] += cost
            return edges.select("src").distinct().count(), 1000.0
        return run

    monkeypatch.setattr(T, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(T, "map_edges", primitive(2.0))
    monkeypatch.setattr(T, "gather_edges", primitive(3.0))
    monkeypatch.setattr(T, "connectivity", lambda spark, g, *a: (cc_labels(g.n, g.src, g.dst), {}))
    df = T.table8(spark, "test")
    assert (df.map_s == 2.0).all() and (df.map_first_s == 2.0).all()
    assert (df.gather_s == 3.0).all() and (df.gather_first_s == 3.0).all()
    assert (df.cc_sample_s == 0.0).all()


def test_to_markdown(tmp_path, monkeypatch):
    monkeypatch.setattr(T, "RESULTS_DIR", tmp_path)
    path = T.to_markdown(pd.DataFrame({"a": [1.0]}), "t")
    assert path.read_text().startswith("|")


def test_jobs_common_puts_src_on_driver_path(tmp_path):
    """jobs/_common.py works from a bare checkout: importing it makes
    ``repro`` importable on the driver, from the checkout's ``src``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import _common, repro; "
        "print(repro.__file__)"
    )
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS")}
    out = subprocess.run(
        [sys.executable, "-c", code, str(root / "jobs")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == str(root / "src" / "repro" / "__init__.py")


def _fake_table3(monkeypatch, finish=None, systems=None):
    """Table 3 with no Spark work: each graph's sampling cell holds a
    Spark-free ``SampleResult`` and passes of 0.25 s, and every finish and
    system returns the graph's components, unless ``finish`` or ``systems``
    stands in."""
    def sample(spark, name, scheme, scale):
        s = SampleResult(labels=np.arange(suite.get(name, scale).n), scheme=scheme, time_s=0.25)
        return T.Cell(0.25, (0.25,) * T.PASSES, s)

    def finish_with_sample(spark, g, sample, algo):
        return cc_labels(g.n, g.src, g.dst), {"finish_edges": 5, "rounds": 3}

    def system(spark, g):
        return cc_labels(g.n, g.src, g.dst), {}

    monkeypatch.setattr(T, "cached_sample", sample)
    monkeypatch.setattr(T, "finish_with_sample", finish or finish_with_sample)
    monkeypatch.setattr(T, "SYSTEMS", systems or {s: system for s in T.SYSTEMS})


def test_table3_systems_are_warm(spark, monkeypatch):
    """A sys:* row is the median of PASSES timed calls after one untimed call,
    with their min-max; the untimed call's time shows nowhere."""
    g = suite.get("RO", "test")
    labels = cc_labels(g.n, g.src, g.dst)
    timed = [float(T.PASSES - i) for i in range(T.PASSES)]
    costs, clock = iter([100.0] + timed), [0.0]

    def counted(spark, g):
        clock[0] += next(costs)
        return labels, {"rounds": 7}

    monkeypatch.setattr(T, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    _fake_table3(monkeypatch, systems={"BFSCC": counted} | {
        other: (lambda spark, g: (labels, {}))
        for other in ("WorkeffCC", "MultiStep", "GAP-SV", "GAP-Afforest", "PatwaryRM")
    })
    df = T.table3(spark, "test", graphs=("RO",))
    assert next(costs, None) is None  # 1 + PASSES calls, no more
    sys_rows = df[df.sampling == "-"]
    assert len(sys_rows) == 6 and (sys_rows.time_s == 0).sum() == 5
    row = sys_rows.set_index("algorithm").loc["sys:BFSCC"]
    spread = (np.median(timed), min(timed), max(timed))
    assert row.time_s == row.finish_time_s
    assert (row.finish_time_s, row.finish_time_s_min, row.finish_time_s_max) == spread
    assert row.rounds == 7
    assert sys_rows.parent_reads.isna().all()


def test_table3_finishes_are_warm(spark, monkeypatch):
    """A finish cell is the median of PASSES timed ``finish_with_sample`` calls
    after one untimed call, with their min-max; ``time_s`` adds the shared
    sample's time to that median. A union-find cell shows its parent reads."""
    g = suite.get("RO", "test")
    labels = cc_labels(g.n, g.src, g.dst)
    algos = T.UF_ALGOS + T.MIN_ALGOS
    timed = [float(T.PASSES - i) for i in range(T.PASSES)]
    costs, clock = {}, [0.0]

    def counted(spark, g, sample, algo):
        start = 100 * T.SCHEMES.index(sample.scheme) + 10 * algos.index(algo)
        cost = costs.setdefault((sample.scheme, algo), iter([1000.0] + [start + t for t in timed]))
        clock[0] += next(cost)
        counters = {"counters": {"parent_reads": 11}} if algo in T.UF_ALGOS else {}
        return labels, {"finish_edges": 5, "rounds": 3, **counters}

    monkeypatch.setattr(T, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    _fake_table3(monkeypatch, finish=counted)
    df = T.table3(spark, "test", graphs=("RO",))
    df = df[df.sampling != "-"]
    assert list(df.algorithm) == list(algos) * len(T.SCHEMES)
    assert set(costs) == {(s, a) for s in T.SCHEMES for a in algos}
    assert all(next(c, None) is None for c in costs.values())  # 1 + PASSES calls each
    for row in df.itertuples():
        start = 100 * T.SCHEMES.index(row.sampling) + 10 * algos.index(row.algorithm)
        own = [start + t for t in timed]
        spread = (np.median(own), min(own), max(own))
        assert (row.finish_time_s, row.finish_time_s_min, row.finish_time_s_max) == spread
        assert row.time_s == 0.25 + row.finish_time_s
        assert (row.finish_edges, row.rounds) == (5, 3)
        assert row.parent_reads == 11 if row.algorithm in T.UF_ALGOS else pd.isna(row.parent_reads)


def test_table3_covers_every_cell(spark, monkeypatch):
    """Every graph gets every sampling scheme × finish plus the six systems:
    one row per (graph, scheme, algorithm), none skipped."""
    _fake_table3(monkeypatch)
    df = T.table3(spark, "test")
    per_graph = len(T.SCHEMES) * len(T.UF_ALGOS + T.MIN_ALGOS) + len(T.SYSTEMS)
    assert len(df) == len(suite.GRAPH_NAMES) * per_graph == 8 * (4 * 9 + 6)
    assert not df.duplicated(["graph", "sampling", "algorithm"]).any()
    assert set(df.graph) == set(suite.GRAPH_NAMES)


def test_cells_cold_pass_rotation_and_check(monkeypatch):
    """``_cells`` runs every system once cold, in the given order, then
    PASSES warm passes that rotate the order; each cell keeps its cold pass
    apart from its warm ones and only the first warm pass's output, and a
    pass that fails its check raises."""
    clock, order = [0.0], []

    def system(name, costs):
        def run():
            cost = next(costs)
            clock[0] += cost
            order.append(name)
            return name, cost
        return run

    monkeypatch.setattr(T, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    warm = {"a": [1.0, 3.0, 2.0], "b": [4.0, 6.0, 5.0], "c": [9.0, 7.0, 8.0]}
    assert T.PASSES == 3
    cells = T._cells(
        {s: system(s, iter([50.0 + i] + warm[s])) for i, s in enumerate(warm)},
        lambda s, out: out[0] == s,
    )
    assert order == list("abc" "abc" "bca" "cab")
    for i, (s, cell) in enumerate(cells.items()):
        assert cell.first_s == 50.0 + i
        assert cell.times == tuple(warm[s]) and cell.out == (s, warm[s][0])
        assert cell.spread == (np.median(warm[s]), min(warm[s]), max(warm[s]))

    fails = iter([True, True, True, False])  # cold a, cold b, then pass 1: a, b
    with pytest.raises(AssertionError, match="b: pass 1"):
        T._cells({"a": system("a", iter([1.0] * 4)), "b": system("b", iter([1.0] * 4))},
                 lambda s, out: next(fails, True))


def test_table1_first_s_is_the_cold_pass(spark, monkeypatch):
    """Table 1 prints each system's cold pass as ``first_s``, beside the
    median of its warm passes, and divides every time by the faster
    ConnectIt configuration's."""
    clock = [0.0]

    def fake(cost_first, cost_warm):
        calls = {}

        def run(spark, g, *config):
            key = (g.name, *config)  # two ConnectIt configurations share a graph
            n = calls[key] = calls.get(key, 0) + 1
            clock[0] += cost_first if n == 1 else cost_warm
            return cc_labels(g.n, g.src, g.dst), {}
        return run

    monkeypatch.setattr(T, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    get = suite.get
    monkeypatch.setattr(T.suite, "get", lambda name, scale: get(name, "test"))
    connectit = {"kout": fake(9.0, 1.0), "none": fake(5.0, 0.5)}
    monkeypatch.setattr(T, "connectivity", lambda spark, g, scheme, *a: connectit[scheme](spark, g, scheme, *a))
    monkeypatch.setattr(T, "SYSTEMS", {s: fake(20.0 + i, 2.0 + i) for i, s in enumerate(T.SYSTEMS)})
    df = T.table1(spark, "mini").set_index(["graph", "system"])
    row = df.loc[("HL12", "ConnectIt (kout + UF-Rem-CAS)")]
    assert (row.time_s, row.first_s) == (1.0, 9.0)
    row = df.loc[("HL12", "ConnectIt (none + UF-Rem-CAS)")]
    assert (row.time_s, row.first_s) == (0.5, 5.0)
    assert df.loc[("HL14", "GAP-Afforest")].first_s == 24.0
    # the speedup is over the faster ConnectIt row, none + UF-Rem-CAS here
    speedup = df.speedup_vs_connectit
    assert speedup[("HL12", "ConnectIt (kout + UF-Rem-CAS)")] == 2.0
    assert speedup[("HL12", "ConnectIt (none + UF-Rem-CAS)")] == 1.0
    assert speedup[("HL14", "GAP-Afforest")] == 12.0
    assert list(df.columns[:4]) == ["time_s", "time_s_min", "time_s_max", "first_s"]
