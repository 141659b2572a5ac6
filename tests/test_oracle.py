"""Oracle substrate integration: DuckDB equality checks over graph-derived
relational results, including connected components computed in SQL."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.framework import ALL_FINISHES, UF_FINISHES, connectivity
from repro.graphs import suite
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

# Every finish runs unsampled and after k-out sampling. BFS and LDD sampling
# (an LDD case costs about 2.5 s, a k-out case 0.3 s) run the union-find
# finishes and one Liu-Tarjan code per connect rule beside SV, Stergiou and LP.
SAMPLED_FINISHES = UF_FINISHES + ("sv", "stergiou", "labelprop", "lt-crfa", "lt-prf", "lt-euf")
CASES = [(s, f) for s in ("none", "kout") for f in ALL_FINISHES] + [
    (s, f) for s in ("bfs", "ldd") for f in SAMPLED_FINISHES
]


@pytest.mark.parametrize("sampling, finish", CASES)
def test_finish_components_via_duckdb(spark, tiny_graphs, sampling, finish):
    """Unsampled, a finish runs over every edge of g; sampled, a min-based
    finish runs on the contracted driver edges and a union-find finish on g
    seeded with the sample. Either way the labeling must match the SQL
    components."""
    # the web-like graph and the disjoint union both have several components
    for g in (tiny_graphs[2], tiny_graphs[3]):
        labels, _ = connectivity(spark, g, sampling, finish)
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
    # every (u, v) row has its (v, u): no row survives an anti-join on the reverse
    reverse = edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    unpaired = edges.join(reverse, ["src", "dst"], "left_anti").selectExpr("count(*) as cnt")
    assert_equivalent(
        unpaired,
        "SELECT COUNT(*) AS cnt FROM e a WHERE NOT EXISTS "
        "(SELECT 1 FROM e b WHERE b.src = a.dst AND b.dst = a.src)",
        e=g.pandas(),
    )
    assert unpaired.first().cnt == 0
