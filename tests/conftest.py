"""Shared test fixtures: Spark tuning and common tiny graphs."""
import numpy as np
import pytest

from repro.graphs import generators as gen


@pytest.fixture(scope="session", autouse=True)
def _quiet_small_shuffles(spark):
    """Iteration state in tests is tiny — 8 shuffle partitions keeps each
    dataflow round cheap without touching the session's broadcast settings."""
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    spark.sparkContext.setLogLevel("ERROR")
    yield


@pytest.fixture(scope="session")
def spark_jobs(spark):
    """Number of Spark jobs submitted so far in the session (DAGScheduler.numTotalJobs)."""
    return lambda: spark.sparkContext._jsc.sc().dagScheduler().numTotalJobs()


@pytest.fixture(scope="session")
def tiny_graphs():
    """A structurally diverse set of small graphs for correctness sweeps."""
    return [
        gen.grid(5, 8),
        gen.rmat(120, 480, seed=3),
        gen.web_like(4, 16, extra_components=2, seed=4),
        gen.disjoint_union("multi", [gen.cycle(7), gen.path_graph(9), gen.star(6), gen.complete(5)]),
    ]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
