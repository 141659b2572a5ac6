"""Harness smoke tests at test scale: tables build, have the right columns,
and reproduce the paper's qualitative shapes on the tiny stand-ins."""
import pandas as pd
import pytest

from repro.harness import paper_numbers as P
from repro.harness import tables as T
from repro.graphs import suite


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
