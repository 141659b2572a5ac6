"""Ligra's edgeMap over a materialized edge table and a driver-held frontier."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def _edge_map(spark: SparkSession, edges: DataFrame, frontier: pd.DataFrame) -> pd.DataFrame:
    """For every ``dst`` adjacent to the frontier, its minimum frontier neighbour.

    ``frontier`` holds one row per frontier vertex: column ``src`` plus any
    per-vertex payload columns. The result has one row per reachable ``dst``
    with the payload and ``src`` of the row minimizing ``(payload..., src)``
    lexicographically. Only the frontier is broadcast: the edge table stays
    where it is, and the query costs the broadcast, the aggregation (one
    exchange, none on a single-partition table) and the collect.
    """
    cols = [c for c in frontier.columns if c != "src"] + ["src"]
    best = (
        edges.join(F.broadcast(spark.createDataFrame(frontier)), "src")
        .groupBy("dst")
        .agg(F.min(F.struct(*cols)).alias("s"))
        .select("dst", *(F.col(f"s.{c}").alias(c) for c in cols))
    )
    return best.toPandas()
