"""STINGER-analog streaming connected components (McColl et al. [73]).

STINGER maintains a full dynamic graph structure so it can also serve edge
*deletions*; its streaming CC therefore pays, per insert, costs that
ConnectIt's parents-array-only algorithms never pay. This analog reproduces
that cost profile (DESIGN.md substitution table):

- batches are preprocessed the way STINGER preprocesses them: sorted by
  source vertex and deduplicated before application;
- every inserted edge is placed into a *sorted* adjacency structure in both
  directions (STINGER's edge blocks keep neighbor order and must be scanned
  for an existing entry to update its timestamp — here a bisect + insert),
  with per-edge timestamp bookkeeping;
- when an insert merges two components, the smaller component is fully
  re-traversed over the structure to relabel its members — the
  recomputation-ready bookkeeping a deletion-capable structure keeps.

ConnectIt's streaming algorithms touch only a parents array, which is the
source of the orders-of-magnitude gap in Table 5. (Both systems here share
the Python substrate, so the measured ratio is compressed relative to the
paper's C-vs-C measurement; the shape — ConnectIt faster at every batch
size, with throughput growing in batch size — is preserved.)
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque

import numpy as np


class StingerLike:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.timestamps: list[list[int]] = [[] for _ in range(n)]
        self.label = np.arange(n, dtype=np.int64)
        self.comp_size = np.ones(n, dtype=np.int64)
        self.clock = 0

    # -- structure maintenance --------------------------------------------
    def _add_directed(self, u: int, v: int) -> bool:
        """Insert v into u's sorted adjacency; returns False on duplicate
        (whose timestamp is still refreshed, as STINGER does)."""
        a = self.adj[u]
        i = bisect_left(a, v)
        if i < len(a) and a[i] == v:
            self.timestamps[u][i] = self.clock
            return False
        a.insert(i, v)
        self.timestamps[u].insert(i, self.clock)
        return True

    def insert(self, u: int, v: int) -> None:
        u, v = int(u), int(v)
        self.clock += 1
        if u == v:
            return
        self._add_directed(u, v)
        self._add_directed(v, u)
        lu, lv = int(self.label[u]), int(self.label[v])
        if lu == lv:
            return
        # relabel the smaller component by BFS over the structure
        if self.comp_size[lu] < self.comp_size[lv]:
            small_root, big_root, start = lu, lv, u
        else:
            small_root, big_root, start = lv, lu, v
        seen = {start}
        q = deque([start])
        while q:
            x = q.popleft()
            self.label[x] = big_root
            for y in self.adj[x]:
                if y not in seen and self.label[y] == small_root:
                    seen.add(y)
                    q.append(y)
        self.comp_size[big_root] += self.comp_size[small_root]

    def process_batch(self, updates: np.ndarray) -> None:
        updates = np.asarray(updates, dtype=np.int64).reshape(-1, 2)
        if len(updates) == 0:
            return
        # STINGER batch preprocessing: sort by source, deduplicate
        order = np.lexsort((updates[:, 1], updates[:, 0]))
        updates = updates[order]
        keep = np.ones(len(updates), dtype=bool)
        keep[1:] = (np.diff(updates[:, 0]) != 0) | (np.diff(updates[:, 1]) != 0)
        us, vs = updates[keep].T.tolist()  # flat id lists, as ConnectIt's kernel reads a batch
        for u, v in zip(us, vs):
            self.insert(u, v)

    def is_connected(self, u: int, v: int) -> bool:
        return bool(self.label[u] == self.label[v])

    def labels(self) -> np.ndarray:
        return self.label.copy()
