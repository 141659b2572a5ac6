"""Ligra's edgeMap over a materialized edge table and a driver-held frontier."""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def _edge_map(
    spark: SparkSession, edges: DataFrame, n: int, src: np.ndarray, key: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """For every ``dst`` adjacent to the frontier, its minimum frontier neighbour.

    ``src`` lists the frontier vertices and ``key``, if given, one value in
    ``[0, n)`` for each of them. Returns ``(dst, key, src)`` arrays with one
    entry per reachable ``dst``: the key and ``src`` of its frontier neighbour
    minimizing ``(key, src)`` lexicographically (``key`` is None when none was
    given). Only the frontier is broadcast, with ``(key, src)`` packed into the
    one int64 ``key·n + src``: the edge table stays where it is, the minimum is
    a hash aggregate of a plain long, and the query costs the broadcast, the
    aggregation (one exchange, none on a single-partition table) and the collect.

    A key outside ``[0, n)`` raises ValueError, since it would break the
    packing. So does a returned ``dst`` outside ``[0, n)``: callers index
    driver arrays with it, where a negative id would wrap. On a symmetric
    table every out-of-range endpoint of an edge with an in-range end shows
    up here.
    """
    src = np.asarray(src, dtype=np.int64)
    if key is not None:
        key = np.asarray(key, dtype=np.int64)
        bad = key[(key < 0) | (key >= n)]
        if len(bad):
            raise ValueError(f"edgeMap key {bad[0]} outside [0, {n})")
    packed = src if key is None else key * n + src
    frontier = spark.createDataFrame(pd.DataFrame({"src": src, "k": packed}), "src long, k long")
    best = edges.join(F.broadcast(frontier), "src").groupBy("dst").agg(F.min("k").alias("k")).toPandas()
    dst, packed = (best[c].to_numpy(dtype=np.int64) for c in ("dst", "k"))
    bad = dst[(dst < 0) | (dst >= n)]
    if len(bad):
        raise ValueError(f"edge endpoint {bad[0]} outside [0, {n})")
    if key is None:
        return dst, None, packed
    key, src = np.divmod(packed, n)
    return dst, key, src
