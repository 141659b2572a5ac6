"""Harness smoke tests at test scale: tables build, have the right columns,
and reproduce the paper's qualitative shapes on the tiny stand-ins."""
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.harness import paper_numbers as P
from repro.harness import tables as T
from repro.graphs import suite
from repro.graphs.ground_truth import cc_labels


def test_paper_numbers_shapes():
    assert len(P.TABLE1) == 11
    assert set(P.TABLE2) == set(suite.GRAPH_NAMES)
    assert set(P.TABLE4["UF-Rem-CAS"]) == set(suite.GRAPH_NAMES) | {"RM", "BA"}
    assert len(P.TABLE5) == 7
    assert set(P.TABLE7) == set(suite.GRAPH_NAMES)


def test_table2(spark):
    df = T.table2(spark, "test")
    assert list(df.graph) == list(suite.GRAPH_NAMES)
    assert {"n", "m", "diameter_lb", "num_components", "largest_component", "load_time_s"} <= set(df.columns)
    assert (df.load_time_s > 0).all()


def test_table5(spark):
    df = T.table5(spark, "test", batch_sizes=(10, 1000), total_edges=4000)
    assert len(df) == 2
    assert (df.connectit_rate > 0).all() and (df.stinger_rate > 0).all()
    # the paper's shape: ConnectIt beats the structure-maintaining baseline
    assert (df.speedup > 1).all()


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


def test_table8(spark):
    df = T.table8(spark, "test")
    assert len(df) == len(suite.GRAPH_NAMES)
    assert (df.map_s > 0).all() and (df.gather_s > 0).all()


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
    monkeypatch.setattr(T, "bfscc", counted)
    for other in ("workeff_cc", "multistep", "gap_sv", "gap_afforest", "patwary_rm"):
        monkeypatch.setattr(T, other, lambda spark, g: (labels, {}))
    df = T.table3(spark, "test", graphs=("RO",), schemes=())
    assert next(costs, None) is None  # 1 + PASSES calls, no more
    assert len(df) == 6 and (df.time_s == 0).sum() == 5
    row = df.set_index("algorithm").loc["sys:BFSCC"]
    assert (row.time_s, row.time_s_min, row.time_s_max) == (np.median(timed), min(timed), max(timed))
    assert row.rounds == 7


def test_warm_passes_reports_cold_pass(monkeypatch):
    """The first pass of each system comes back apart from its warm passes,
    with its own time and output."""
    clock = [0.0]

    def system(name, costs):
        def run():
            cost = next(costs)
            clock[0] += cost
            return name, cost
        return run

    monkeypatch.setattr(T, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    cold, warm = T._warm_passes({
        "a": system("a", iter([50.0] + [1.0] * T.PASSES)),
        "b": system("b", iter([70.0] + [2.0] * T.PASSES)),
    })
    assert cold == {"a": (50.0, ("a", 50.0)), "b": (70.0, ("b", 70.0))}
    assert warm == {"a": [(1.0, ("a", 1.0))] * T.PASSES, "b": [(2.0, ("b", 2.0))] * T.PASSES}


def test_table1_first_s_is_the_cold_pass(spark, monkeypatch):
    """Table 1 prints each system's cold pass as ``first_s``, beside the
    median of its warm passes."""
    clock = [0.0]

    def fake(cost_first, cost_warm):
        costs = {}

        def run(spark, g, *args, **kwargs):
            n = costs[g.name] = costs.get(g.name, 0) + 1
            clock[0] += cost_first if n == 1 else cost_warm
            return cc_labels(g.n, g.src, g.dst), {}
        return run

    monkeypatch.setattr(T, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    get = suite.get
    monkeypatch.setattr(T.suite, "get", lambda name, scale: get(name, "test"))
    monkeypatch.setattr(T, "connectivity", fake(9.0, 1.0))
    for i, other in enumerate(("bfscc", "workeff_cc", "multistep", "gap_sv", "gap_afforest")):
        monkeypatch.setattr(T, other, fake(20.0 + i, 2.0 + i))
    df = T.table1(spark, "mini").set_index(["graph", "system"])
    row = df.loc[("HL12", "ConnectIt (kout + UF-Rem-CAS)")]
    assert (row.time_s, row.first_s) == (1.0, 9.0)
    assert df.loc[("HL14", "GAP-Afforest")].first_s == 24.0
    assert list(df.columns[:4]) == ["time_s", "time_s_min", "time_s_max", "first_s"]
