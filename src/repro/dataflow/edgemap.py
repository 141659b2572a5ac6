"""Ligra's edgeMap over a materialized edge table and a driver-held frontier."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def _edge_map(spark: SparkSession, edges: DataFrame, n: int, frontier: pd.DataFrame) -> pd.DataFrame:
    """For every ``dst`` adjacent to the frontier, its minimum frontier neighbour.

    ``frontier`` holds one row per frontier vertex: column ``src`` plus any
    per-vertex payload columns. The result has one row per reachable ``dst``
    with the payload and ``src`` of the row minimizing ``(payload..., src)``
    lexicographically. Only the frontier is broadcast: the edge table stays
    where it is, and the query costs the broadcast, the aggregation (one
    exchange, none on a single-partition table) and the collect.

    A returned ``dst`` outside ``[0, n)`` raises ValueError: callers index
    driver arrays with it, where a negative id would wrap. On a symmetric
    table every out-of-range endpoint of an edge with an in-range end shows
    up here.
    """
    cols = [c for c in frontier.columns if c != "src"] + ["src"]
    best = (
        edges.join(F.broadcast(spark.createDataFrame(frontier)), "src")
        .groupBy("dst")
        .agg(F.min(F.struct(*cols)).alias("s"))
        .select("dst", *(F.col(f"s.{c}").alias(c) for c in cols))
    ).toPandas()
    bad = best["dst"][(best["dst"] < 0) | (best["dst"] >= n)]
    if len(bad):
        raise ValueError(f"edge endpoint {bad.iloc[0]} outside [0, {n})")
    return best
