"""Correctness oracles that share no code with ``repro``.

Static labelings are compared, as partitions, with connected components that
networkx computes from the raw edge arrays. Streaming answers are compared with
a plain incremental union-find replay of the same stream. ``self_test`` shows
that both checks catch a corrupted labeling and a flipped answer.
"""
from __future__ import annotations

import networkx as nx
import numpy as np


def component_ids(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component index per vertex, computed by networkx."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(src.tolist(), dst.tolist()))
    comp = np.empty(n, dtype=np.int64)
    for i, members in enumerate(nx.connected_components(g)):
        comp[list(members)] = i
    return comp


def same_partition(labels, comp: np.ndarray) -> bool:
    """True when ``labels`` groups the vertices exactly as ``comp`` does.

    Label values are free: the (label, component) pairs must form a bijection.
    """
    labels = np.asarray(labels)
    if labels.shape != comp.shape:
        return False
    pairs = np.unique(np.stack([labels.astype(np.int64), comp], axis=1), axis=0)
    return len(pairs) == len(np.unique(labels)) == len(np.unique(comp))


def same_answers(got, expected: np.ndarray) -> bool:
    got = np.asarray(got)
    return got.shape == expected.shape and bool(np.array_equal(got.astype(bool), expected))


def replay(n: int, updates: list[np.ndarray], queries: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Expected answers per batch (updates applied before the batch's queries), and
    the final component root per vertex, from a union-find with path halving."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    answers = []
    for upd, qry in zip(updates, queries):
        for u, v in upd.tolist():
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        answers.append(np.fromiter((find(a) == find(b) for a, b in qry.tolist()), dtype=bool, count=len(qry)))
    return answers, np.fromiter((find(x) for x in range(n)), dtype=np.int64, count=n)


def self_test() -> list[str]:
    """Return the corruptions the checks failed to catch (empty when all are caught)."""
    src = np.array([0, 1, 3, 4, 6])
    dst = np.array([1, 2, 4, 5, 7])
    comp = component_ids(9, src, dst)  # {0,1,2} {3,4,5} {6,7} {8}
    good = np.array([0, 0, 0, 3, 3, 3, 6, 6, 8])
    missed = []
    if not same_partition(good, comp) or not same_partition(good * 7 + 1, comp):
        missed.append("a correct labeling was rejected")
    split = good.copy()
    split[2] = 2
    merged = good.copy()
    merged[8] = 6
    for name, bad in (("split component", split), ("merged components", merged), ("short labeling", good[:-1])):
        if same_partition(bad, comp):
            missed.append(name)

    updates = [np.array([[0, 1], [2, 3]]), np.array([[1, 2]])]
    queries = [np.array([[0, 1], [0, 3]]), np.array([[0, 3], [4, 5]])]
    answers, roots = replay(6, updates, queries)
    if [a.tolist() for a in answers] != [[True, False], [True, False]] or not same_partition(
        roots, np.array([0, 0, 0, 0, 1, 2])
    ):
        missed.append("replay gave wrong answers")
    flipped = answers[1].copy()
    flipped[0] = not flipped[0]
    if same_answers(flipped, answers[1]) or not same_answers(answers[1].copy(), answers[1]):
        missed.append("flipped answer")
    return missed
