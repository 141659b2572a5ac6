"""Oracle substrate integration: DuckDB equality checks over graph-derived
relational results, including connected components computed in SQL."""
from functools import partial

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import minbased
from repro.core.framework import UF_FINISHES, connectivity
from repro.graphs import suite
from repro.graphs.ground_truth import canonicalize
from repro.oracle import assert_equivalent

# Min-label propagation in SQL, independent of the repo's code: every vertex
# starts with its own id, each recursion step carries labels across an edge,
# and UNION's deduplication stops it once no new (vertex, label) pair
# appears. The smallest label reached is the component's minimum vertex id —
# exactly what ``canonicalize`` maps each class to.
COMPONENTS_SQL = """
WITH RECURSIVE reach(v, label) AS (
    SELECT v, v FROM verts
    UNION
    SELECT e.dst, reach.label FROM reach JOIN e ON e.src = reach.v
)
SELECT v, MIN(label) AS label FROM reach GROUP BY v
"""

MINBASED = {
    "sv": minbased.shiloach_vishkin,
    "stergiou": minbased.stergiou,
    "labelprop": minbased.label_propagation,
    # one Liu-Tarjan variant per connect rule
    "lt-crfa": partial(minbased.liu_tarjan, spec="crfa"),
    "lt-prf": partial(minbased.liu_tarjan, spec="prf"),
    "lt-euf": partial(minbased.liu_tarjan, spec="euf"),
}


@pytest.mark.parametrize("finish", sorted(MINBASED))
def test_minbased_components_via_duckdb(spark, tiny_graphs, finish):
    # the web-like graph and the disjoint union both have several components
    for g in (tiny_graphs[2], tiny_graphs[3]):
        labels, *_ = MINBASED[finish](spark, g.df(spark), g.n)
        v = np.arange(g.n)
        got = spark.createDataFrame(pd.DataFrame({"v": v, "label": canonicalize(labels)}))
        assert_equivalent(got, COMPONENTS_SQL, e=g.pandas(), verts=pd.DataFrame({"v": v}))


@pytest.mark.parametrize("finish", sorted(MINBASED) + list(UF_FINISHES))
@pytest.mark.parametrize("sampling", ["kout", "bfs", "ldd"])
def test_sampled_finish_components_via_duckdb(spark, tiny_graphs, sampling, finish):
    """A sampled min-based finish runs on the contracted driver edges and a
    union-find finish on g seeded with the sample; the composed labeling must
    still match the SQL components."""
    for g in (tiny_graphs[2], tiny_graphs[3]):
        labels, _ = connectivity(spark, g, sampling, finish)
        v = np.arange(g.n)
        got = spark.createDataFrame(pd.DataFrame({"v": v, "label": labels}))
        assert_equivalent(got, COMPONENTS_SQL, e=g.pandas(), verts=pd.DataFrame({"v": v}))


@pytest.mark.parametrize("finish", UF_FINISHES)
def test_unsampled_uf_finish_components_via_duckdb(spark, tiny_graphs, finish):
    """An unsampled union-find finish runs over every edge of g from the
    identity labeling; its labeling must match the SQL components."""
    for g in (tiny_graphs[2], tiny_graphs[3]):
        labels, _ = connectivity(spark, g, "none", finish)
        v = np.arange(g.n)
        got = spark.createDataFrame(pd.DataFrame({"v": v, "label": labels}))
        assert_equivalent(got, COMPONENTS_SQL, e=g.pandas(), verts=pd.DataFrame({"v": v}))


def test_degree_distribution_via_oracle(spark):
    g = suite.get("LJ", "test")
    edges = g.df(spark)
    got = edges.groupBy("src").agg(F.count(F.lit(1)).alias("deg"))
    assert_equivalent(
        got, "SELECT src, COUNT(*) AS deg FROM e GROUP BY src", e=g.pandas()
    )


def test_edge_symmetry_via_oracle(spark):
    g = suite.get("RO", "test")
    edges = g.df(spark)
    got = edges.selectExpr("count(*) as cnt")
    assert_equivalent(
        got,
        "SELECT COUNT(*) AS cnt FROM e",
        e=g.pandas(),
    )
