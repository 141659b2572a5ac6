"""Other min-based finish methods over a driver-held parents array.

Implements the full Liu-Tarjan framework (all 16 rule combinations of
Appendix D.4), Stergiou's two-array algorithm, Shiloach-Vishkin (which is
Liu-Tarjan PRF, so it runs that code), and Label-Propagation. Every
candidate rule of these algorithms is a per-vertex minimum over neighbours,
so each synchronous round is one ``_edge_map`` over the edge table (the
dataflow analog of Ligra's edgeMap), the only call that touches the edges.
The parents array P has n entries and lives on the driver as numpy, as the
BFS and LDD frontiers do: writeMin, RootUp, shortcutting and the stop test
run there, while the edges never move.

All functions take a *symmetric* edge table over vertices [0, n), in either
of ``_edge_map``'s substrates: a Spark DataFrame (an unsampled finish over the
graph's m edges; each round is one Spark query) or a driver ``(src, dst)``
pair of int64 arrays (the contracted edges of a sampled finish; no Spark job
runs). Every edge (u, v) is also present as (v, u). Symmetry lets a candidate
pair of an edge (s, d) be computed at d from d's minimum neighbour payload.
An endpoint outside [0, n) raises ValueError. Each returns
``(labels ndarray, rounds)``, the same on both substrates. Liu-Tarjan, and
so Shiloach-Vishkin, also returns the edges behind its hooks, which for the
six RootUp codes form a spanning forest. Sampling composes via contraction
in ``repro.core.framework`` (Theorem 5): the frequent component becomes
contracted vertex 0, the smallest possible ID, so it is never relabeled.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.dataflow.edgemap import Edges, _edge_map
from repro.unionfind import full_shortcut

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


def _write_min(P: np.ndarray, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """writeMin: a copy of P with P[x] ← min(P[x], c) for every pair."""
    P = P.copy()
    np.minimum.at(P, x, c)
    return P


def _iterate(
    n: int, step: Callable[[np.ndarray], np.ndarray], name: str, budget: int = MAX_ROUNDS
) -> tuple[np.ndarray, int]:
    """Run synchronous rounds ``P = step(P)`` from the identity labeling until
    a round leaves P as it found it. Labels only decrease and P[v] ≤ v holds
    throughout, so any writeMin or shortcut that moved a label shows in P.
    ``step`` returns a new array. Returns ``(labels, rounds)``."""
    P = np.arange(n, dtype=np.int64)
    for rounds in range(1, budget + 1):
        start, P = P, step(P)
        if np.array_equal(P, start):
            return P, rounds
    raise RuntimeError(f"{name} exceeded {budget} rounds")


def liu_tarjan(
    spark: SparkSession, edges: Edges, n: int, spec: LTSpec | str = "crfa"
) -> tuple[np.ndarray, int, np.ndarray]:
    """Run one Liu-Tarjan variant to convergence.

    Returns ``(labels, rounds, hooks)``. ``hooks`` is a ``(k, 2)`` int64
    array: per round, for every vertex ``x`` whose label some candidate
    lowers, the edge ``(s, d)`` behind its winning write, the one with the
    smallest candidate label ``m``, then the smallest ``d``. Writing only the
    winners is the writeMin of all the candidates.

    Under RootUp the hooks are a spanning forest (Algorithm 2, App. B.3).
    Only a round-start root ``x`` is written, once per round, onto a label
    ``m < x`` in the tree of ``s``, and ``x`` is the root of the tree of
    ``d``. The root of the tree of ``s`` is at most ``m``, since ``P[v] ≤ v``
    throughout, so every edge joins a round-start tree to one with a strictly
    smaller root. A root that hooked is never a root again, so each tree
    contributes at most one edge and the edges close no cycle.
    """
    if isinstance(spec, str):
        spec = LTSpec.from_code(spec)
    # Alter rewrites edge (s, d) to (f[s], f[d]) with f the composition of
    # every round-start P so far; f stays the identity without Alter. The
    # self-loops and duplicates Alter drops never change a writeMin.
    f = np.arange(n, dtype=np.int64)
    hooks = [np.empty((0, 2), dtype=np.int64)]

    def step(P: np.ndarray) -> np.ndarray:
        nonlocal f
        if spec.alter:
            f = P[f]
        if spec.connect == "connect":
            # Connect: the edge endpoints are candidates for each other
            # (requires Alter for correctness, as in Liu-Tarjan).
            d, m, s = _edge_map(spark, edges, n, np.arange(n, dtype=np.int64), f)
            x = f[d]
        else:
            # ParentConnect: P[dst] is a candidate for P[src] — the update
            # lands at the *parent*, which under RootUp is the round-start
            # root once trees are flat (Liu-Tarjan's P-* algorithms).
            d, m, s = _edge_map(spark, edges, n, np.arange(n, dtype=np.int64), P[f])
            x = P[f[d]]
            if spec.connect == "extended":  # P[dst] is also a candidate for src itself
                x = np.concatenate([x, f[d]])
                m, s, d = (np.concatenate([a, a]) for a in (m, s, d))
        lower = m < P[x]
        if spec.root_up:
            lower &= P[x] == x
        hook = np.flatnonzero(lower)
        # per x, the candidate with the smallest m (ties: smallest d) wins
        order = hook[np.lexsort((d[hook], m[hook], x[hook]))]
        win = order[np.unique(x[order], return_index=True)[1]]
        hooks.append(np.stack([s[win], d[win]], axis=1))
        P = _write_min(P, x[win], m[win])
        return full_shortcut(P) if spec.shortcut == "full" else P[P]

    labels, rounds = _iterate(n, step, f"Liu-Tarjan {spec}")
    return labels, rounds, np.concatenate(hooks)


def stergiou(spark: SparkSession, edges: Edges, n: int) -> tuple[np.ndarray, int]:
    """Stergiou et al.'s BSP algorithm: ParentConnect from a *previous* parents
    array, min-update into the current one, then Shortcut (paper B.2.5).

    A round that moves nothing over the previous array has not reached the
    fixpoint: a label lowered last round has not been read yet. That round
    reads its round-start array instead, and the run stops only if that moves
    nothing either.
    """
    # the round-start P one round back; rounds 1 and 2 both read the identity
    prev = np.arange(n, dtype=np.int64)

    def connect(P: np.ndarray, read: np.ndarray) -> np.ndarray:
        d, m, _ = _edge_map(spark, edges, n, np.arange(n, dtype=np.int64), read)
        P = _write_min(P, d, m)
        return P[P]

    def step(P: np.ndarray) -> np.ndarray:
        nonlocal prev
        old, prev = prev, P
        Q = connect(P, old)
        if np.array_equal(Q, P) and not np.array_equal(old, P):
            Q = connect(P, P)
        return Q

    return _iterate(n, step, "Stergiou")


def shiloach_vishkin(
    spark: SparkSession, edges: Edges, n: int
) -> tuple[np.ndarray, int, np.ndarray]:
    """Shiloach-Vishkin (paper Algorithm 15): writeMin hooks on round-start
    roots, then full pointer jumping. That is Liu-Tarjan PRF (ParentConnect,
    RootUp, FullShortcut, no Alter; App. D.4), so this runs it. Returns
    ``(labels, rounds, forest)``, with the forest of its root hooks."""
    return liu_tarjan(spark, edges, n, "prf")


def label_propagation(spark: SparkSession, edges: Edges, n: int) -> tuple[np.ndarray, int]:
    """Folklore frontier-based min label propagation ((min, min)-SpMV): only
    the vertices lowered last round (all of them in round 1) send labels."""
    frontier = np.arange(n, dtype=np.int64)

    def step(P: np.ndarray) -> np.ndarray:
        nonlocal frontier
        d, m, _ = _edge_map(spark, edges, n, frontier, P[frontier])
        Q = _write_min(P, d, m)
        frontier = np.flatnonzero(Q < P)
        return Q

    return _iterate(n, step, "Label-Propagation", budget=10 * MAX_ROUNDS)
