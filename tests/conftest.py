"""Shared test fixtures: Spark job counts, edgeMap call counts and common
tiny graphs."""
import numpy as np
import pytest
from pyspark.sql import DataFrame

from repro.graphs import generators as gen


@pytest.fixture(scope="session")
def spark_jobs(spark):
    """Number of Spark jobs submitted so far in the session (DAGScheduler.numTotalJobs)."""
    return lambda: spark.sparkContext._jsc.sc().dagScheduler().numTotalJobs()


@pytest.fixture
def count_edge_maps(monkeypatch):
    """``count_edge_maps(module)`` wraps that module's ``_edge_map`` and returns
    a function giving how many calls since then ran on a Spark DataFrame."""

    def watch(module):
        calls, edge_map = [], module._edge_map

        def counted(spark, edges, *args):
            calls.append(isinstance(edges, DataFrame))
            return edge_map(spark, edges, *args)

        monkeypatch.setattr(module, "_edge_map", counted)
        return lambda: sum(calls)

    return watch


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
