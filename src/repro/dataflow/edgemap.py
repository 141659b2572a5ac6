"""Ligra's edgeMap over an edge table and a driver-held frontier.

The edge table lives on one of two substrates: a Spark DataFrame, where a
graph's m edges stay, or a driver pair of id arrays, for the few contracted
edges a sampled finish runs over. Every algorithm calls the one primitive.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

# A symmetric edge table: a DataFrame of (src long, dst long) rows, or the
# driver pair (src, dst) of int64 id arrays.
Edges = DataFrame | tuple[np.ndarray, np.ndarray]

_NONE = np.iinfo(np.int64).max  # no frontier neighbour yet


def _edge_map(
    spark: SparkSession, edges: Edges, n: int, src: np.ndarray, key: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """For every ``dst`` adjacent to the frontier, its minimum frontier neighbour.

    ``src`` lists the frontier vertices and ``key``, if given, one value in
    ``[0, n)`` for each of them. Returns ``(dst, key, src)`` arrays with one
    entry per reachable ``dst``: the key and ``src`` of its frontier neighbour
    minimizing ``(key, src)`` lexicographically (``key`` is None when none was
    given). A vertex listed twice in the frontier counts with its smaller key.
    ``(key, src)`` is packed into the one int64 ``key·n + src``.

    On a DataFrame only the frontier moves: the edge table stays where it is
    and the minimum is a hash aggregate of a plain long. On a one-partition
    table the frontier is coalesced to one partition and hash-joined, so the
    join and the aggregation need no exchange and the query is one Spark job,
    the collect. On a table of several partitions the frontier is broadcast,
    and the query costs the broadcast, the aggregation's exchange and the
    collect; a hash join there would shuffle every edge. On a ``(src, dst)``
    array pair the minima are two ``np.minimum.at`` passes on the driver, one
    over the frontier and one per ``dst`` over the gathered edges, and no
    Spark job runs.

    A key or frontier vertex outside ``[0, n)`` raises ValueError, since it
    would break the packing. So does an edge endpoint outside ``[0, n)``:
    callers index driver arrays with it, where a negative id would wrap. On a
    DataFrame every returned ``dst`` is checked, which on a symmetric table
    catches every out-of-range endpoint of an edge with an in-range end; on
    arrays both ends of every edge are.
    """
    src = np.asarray(src, dtype=np.int64)
    _check_ids(src, n, "frontier vertex")
    if key is not None:
        key = np.asarray(key, dtype=np.int64)
        _check_ids(key, n, "edgeMap key")
    packed = src if key is None else key * n + src
    if isinstance(edges, DataFrame):
        dst, packed = _spark_min(spark, edges, n, src, packed)
    else:
        dst, packed = _driver_min(edges, n, src, packed)
    if key is None:
        return dst, None, packed
    key, src = np.divmod(packed, n)
    return dst, key, src


def _spark_min(
    spark: SparkSession, edges: DataFrame, n: int, src: np.ndarray, packed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    frontier = spark.createDataFrame(pd.DataFrame({"src": src, "k": packed}), "src long, k long")
    if edges.rdd.getNumPartitions() == 1:
        frontier = frontier.coalesce(1).hint("shuffle_hash")
    else:
        frontier = F.broadcast(frontier)
    best = edges.join(frontier, "src").groupBy("dst").agg(F.min("k").alias("k")).toPandas()
    dst, packed = (best[c].to_numpy(dtype=np.int64) for c in ("dst", "k"))
    _check_ids(dst, n, "edge endpoint")
    return dst, packed


def _driver_min(
    edges: tuple[np.ndarray, np.ndarray], n: int, src: np.ndarray, packed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    es, ed = (np.asarray(e, dtype=np.int64) for e in edges)
    _check_ids(es, n, "edge endpoint")
    _check_ids(ed, n, "edge endpoint")
    at = np.full(n, _NONE)
    np.minimum.at(at, src, packed)
    best = np.full(n, _NONE)
    np.minimum.at(best, ed, at[es])
    dst = np.flatnonzero(best != _NONE)
    return dst, best[dst]


def _check_ids(ids: np.ndarray, n: int, what: str) -> None:
    bad = ids[(ids < 0) | (ids >= n)]
    if len(bad):
        raise ValueError(f"{what} {bad[0]} outside [0, {n})")
