"""Other min-based finish methods as iterative Catalyst dataflow programs.

Implements the full Liu-Tarjan framework (all 16 rule combinations of
Appendix D.4), Stergiou's two-array algorithm, Shiloach-Vishkin, and
Label-Propagation. Each synchronous round is a set of joins and min
aggregations over a parents DataFrame — the MPC setting these algorithms
were designed for maps directly onto Spark's bulk-synchronous shuffles.

All functions take a symmetric edges DataFrame over vertices [0, n) and
return ``(labels ndarray, rounds)``. Sampling composes via contraction in
``repro.core.framework`` (Theorem 5): the frequent component becomes
contracted vertex 0, the smallest possible ID, so it is never relabeled.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

MAX_ROUNDS = 500

LT_CODES = (
    "cusa", "crsa", "pusa", "prsa", "pus", "prs", "eusa", "eus",
    "cufa", "crfa", "pufa", "prfa", "puf", "prf", "eufa", "euf",
)


@dataclass(frozen=True)
class LTSpec:
    """One Liu-Tarjan rule combination.

    connect: connect | parent | extended — candidate generation rule.
    root_up: update only round-start roots.
    shortcut: one | full — one compression step vs. to fixpoint.
    alter: rewrite edge endpoints to the current labels every round.
    """

    connect: str
    root_up: bool
    shortcut: str
    alter: bool

    @classmethod
    def from_code(cls, code: str) -> "LTSpec":
        code = code.lower()
        if code not in LT_CODES:
            raise KeyError(f"unknown Liu-Tarjan code {code!r}; options: {LT_CODES}")
        connect = {"c": "connect", "p": "parent", "e": "extended"}[code[0]]
        root_up = code[1] == "r"
        shortcut = {"s": "one", "f": "full"}[code[2]]
        alter = code.endswith("a") and len(code) == 4
        return cls(connect, root_up, shortcut, alter)


def _with_parents(E: DataFrame, P: DataFrame) -> DataFrame:
    """E's rows with the current parent of each endpoint as ``ps`` / ``pd``."""
    Ps = P.select(F.col("v").alias("sv"), F.col("p").alias("ps"))
    Pd = P.select(F.col("v").alias("dv"), F.col("p").alias("pd"))
    return E.join(Ps, E.src == F.col("sv")).join(Pd, E.dst == F.col("dv"))


def _min_update(P: DataFrame, cand: DataFrame, extra: Column | None = None) -> DataFrame:
    """writeMin: P[x] ← min(P[x], min c over the (x, c) candidates), only where
    ``extra`` holds; ``chg`` marks the rows it lowered."""
    agg = cand.groupBy("x").agg(F.min("c").alias("c"))
    upd = F.col("c").isNotNull() & (F.col("c") < F.col("p"))
    if extra is not None:
        upd = upd & extra
    joined = P.join(agg, P.v == agg.x, "left")
    return joined.select("v", F.when(upd, F.col("c")).otherwise(F.col("p")).alias("p"), upd.alias("chg"))


def _shortcut_once(P: DataFrame) -> DataFrame:
    """P[v] ← P[P[v]] for all v, synchronously; ``moved`` marks the rows this
    step lowered and is ORed into ``chg``."""
    Pp = P.select(F.col("v").alias("w"), F.col("p").alias("gp"))
    moved = F.col("gp") != F.col("p")
    return P.join(Pp, P.p == Pp.w).select(
        "v", F.col("gp").alias("p"), (F.col("chg") | moved).alias("chg"), moved.alias("moved")
    )


def _full_shortcut(P: DataFrame) -> DataFrame:
    """Shortcut until no row moves."""
    while True:
        P = _shortcut_once(P).localCheckpoint()
        if P.filter("moved").isEmpty():
            return P


def _iterate(
    spark: SparkSession, n: int, step: Callable[[DataFrame], DataFrame], name: str, budget: int = MAX_ROUNDS
) -> tuple[np.ndarray, int]:
    """Run synchronous rounds ``P = step(P)`` from the identity labeling until
    no row's ``chg`` flag is set. Labels only decrease and P[v] ≤ v holds
    throughout, so a set flag is exactly a label that differs from the
    round's start. Returns ``(labels, rounds)``."""
    P = spark.range(n).select(F.col("id").alias("v"), F.col("id").alias("p"), F.lit(True).alias("chg"))
    for rounds in range(1, budget + 1):
        P = step(P).localCheckpoint()
        if P.filter("chg").isEmpty():
            out = np.arange(n, dtype=np.int64)
            pdf = P.select("v", "p").toPandas()
            out[pdf["v"].to_numpy()] = pdf["p"].to_numpy()
            return out, rounds
    raise RuntimeError(f"{name} exceeded {budget} rounds")


def liu_tarjan(
    spark: SparkSession, edges_df: DataFrame, n: int, spec: LTSpec | str = "crfa"
) -> tuple[np.ndarray, int]:
    """Run one Liu-Tarjan variant to convergence."""
    if isinstance(spec, str):
        spec = LTSpec.from_code(spec)
    E = edges_df

    def step(P: DataFrame) -> DataFrame:
        nonlocal E
        if spec.alter:
            # Alter: rewrite edge endpoints to the labels the previous round
            # left (the identity in round 1, where it only drops duplicates).
            E = (
                _with_parents(E, P)
                .select(F.col("ps").alias("src"), F.col("pd").alias("dst"))
                .filter(F.col("src") != F.col("dst"))
                .distinct()
                .localCheckpoint()
            )
        if spec.connect == "connect":
            # Connect: the edge endpoints are candidates for each other
            # (requires Alter for correctness, as in Liu-Tarjan).
            cand = E.select(F.col("src").alias("x"), F.col("dst").alias("c"))
        else:
            # ParentConnect: P[dst] is a candidate for P[src] — the update
            # lands at the *parent*, which under RootUp is the round-start
            # root once trees are flat (Liu-Tarjan's P-* algorithms).
            both = _with_parents(E, P)
            cand = both.select(F.col("ps").alias("x"), F.col("pd").alias("c"))
            if spec.connect == "extended":  # P[dst] is also a candidate for src itself
                cand = cand.unionByName(both.select(F.col("src").alias("x"), F.col("pd").alias("c")))
        P = _min_update(P, cand, (F.col("p") == F.col("v")) if spec.root_up else None)
        return _full_shortcut(P) if spec.shortcut == "full" else _shortcut_once(P)

    return _iterate(spark, n, step, f"Liu-Tarjan {spec}")


def stergiou(spark: SparkSession, edges_df: DataFrame, n: int) -> tuple[np.ndarray, int]:
    """Stergiou et al.'s BSP algorithm: ParentConnect from a *previous* parents
    array, min-update into the current one, then Shortcut (paper B.2.5)."""
    prev = None  # the parents array one round back; round 1 reads the identity

    def step(P: DataFrame) -> DataFrame:
        nonlocal prev
        old, prev = (P if prev is None else prev), P
        prevd = old.select(F.col("v").alias("dv"), F.col("p").alias("dp"))
        cand = edges_df.join(prevd, edges_df.dst == F.col("dv")).select(F.col("src").alias("x"), F.col("dp").alias("c"))
        return _shortcut_once(_min_update(P, cand))

    return _iterate(spark, n, step, "Stergiou")


def shiloach_vishkin(spark: SparkSession, edges_df: DataFrame, n: int) -> tuple[np.ndarray, int]:
    """Shiloach-Vishkin with writeMin hooks on round-start roots and full
    pointer jumping per round (paper Algorithm 15)."""

    def step(P: DataFrame) -> DataFrame:
        # hook the larger endpoint parent x onto the smaller c, if x is a root
        lh = _with_parents(edges_df, P).select(
            F.least("ps", "pd").alias("c"), F.greatest("ps", "pd").alias("x")
        ).filter(F.col("c") != F.col("x"))
        roots = P.filter(F.col("p") == F.col("v")).select(F.col("v").alias("rv"))
        return _full_shortcut(_min_update(P, lh.join(roots, lh.x == F.col("rv"))))

    return _iterate(spark, n, step, "SV")


def label_propagation(spark: SparkSession, edges_df: DataFrame, n: int) -> tuple[np.ndarray, int]:
    """Folklore frontier-based min label propagation ((min, min)-SpMV): only
    the vertices lowered last round (all of them in round 1) send labels."""

    def step(P: DataFrame) -> DataFrame:
        frontier = P.filter("chg").select(F.col("v").alias("fv"), F.col("p").alias("fp"))
        cand = edges_df.join(frontier, edges_df.src == F.col("fv"))
        return _min_update(P, cand.select(F.col("dst").alias("x"), F.col("fp").alias("c")))

    return _iterate(spark, n, step, "Label-Propagation", budget=10 * MAX_ROUNDS)
