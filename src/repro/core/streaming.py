"""ConnectIt streaming: parallel batch-incremental connectivity (§3.5, B.4).

A :class:`StreamingConnectIt` instance owns a persistent parents array (the
driver-resident analog of the paper's shared memory) and processes batches of
``INSERT(u, v)`` updates and ``IsConnected(u, v)`` queries (Algorithm 3).

Three algorithm types, as in the paper:

- Type 1 — asynchronous union-find (all variants except Rem+SpliceAtomic):
  in the paper, updates and queries may interleave freely; linearizable.
- Type 2 — Shiloach-Vishkin and root-based Liu-Tarjan: batch-synchronous
  rounds over the batch's edges against the parents array.
- Type 3 — Rem's algorithms with SpliceAtomic: phase-concurrent; the batch is
  split into an update phase followed by a query phase.

Here every type applies all of a batch's updates and then answers all of its
queries. For Type 1 that order is one valid linearization (B.4); for Type 3
it is the required phase order.

Like the paper's one parallel pass over a batch's updates and one over its
queries, each batch is one kernel call per half: the variant's
``union(pairs)`` (or the Type 2 rounds) over the updates, then
``connected(pairs)`` over the queries, with the counters updated once per call.
Each half reaches its loop as two flat id lists (``id_pairs``), so a batch
allocates no garbage-collector-tracked object per pair.
"""
from __future__ import annotations

import numpy as np

from repro.unionfind import UFSpec, UFState, make_union
from repro.unionfind.core import READS, UNIONS, WRITES, as_batch, check_vertex_count, id_pairs
from repro.unionfind.finds import make_connected


class StreamingConnectIt:
    """Persistent incremental-connectivity state for one algorithm choice.

    ``algorithm`` is a :class:`UFSpec` (Type 1/3) or one of ``"sv"`` /
    ``"lt-root"`` (Type 2; ``lt-root`` is the CRFA-style root-up variant the
    paper finds fastest in streaming). Vertex ids are validated against
    ``[0, n)`` on every call; a bad id, or an ``n`` that is not a
    non-negative integer, raises ``ValueError``.
    """

    def __init__(self, n: int, algorithm: UFSpec | str = UFSpec()):
        check_vertex_count(n)
        self.n = n
        self.algorithm = algorithm
        self.state = UFState(n)
        if isinstance(algorithm, UFSpec):
            self.type = 3 if algorithm.splice == "splice" else 1
            self._union = make_union(algorithm, self.state)
        elif algorithm in ("sv", "lt-root"):
            self.type = 2
        else:
            raise KeyError(f"unknown streaming algorithm {algorithm!r}")
        self._connected = make_connected(self.state)

    # -- operations --------------------------------------------------------
    def insert(self, u: int, v: int) -> None:
        self.process_batch([[u, v]])

    def is_connected(self, u: int, v: int) -> bool:
        return bool(self.process_batch([], [[u, v]])[0])

    def process_batch(
        self, updates: np.ndarray, queries: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply one batch; returns boolean answers for the queries.

        Every type applies all updates first, then answers all queries with
        ``connected``: two naive finds per query. For Type 1, which may
        interleave the two, this order is one valid linearization w.r.t. the
        batch start (B.4's correctness notion); for Type 3 it is the required
        phase order.
        """
        updates, queries = as_batch(self.n, updates), as_batch(self.n, [] if queries is None else queries)
        if self.type == 2:
            self._batch_rounds(updates)
            self.state.c.a[UNIONS] += len(updates)
        else:
            self._union(id_pairs(updates))
        return np.array(self._connected(id_pairs(queries)), dtype=bool)

    def labels(self) -> np.ndarray:
        return self.state.compress_all()

    # -- Type 2: synchronous rounds over the batch -------------------------
    def _batch_rounds(self, edges: np.ndarray) -> None:
        """SV / root-up Liu-Tarjan rounds over the batch's edges.

        Python-loop substrate on purpose: all streaming variants share one
        substrate so relative throughput mirrors algorithmic work (see
        DESIGN.md measurement note). The rounds run on the parents list in
        place, as the Type 1 and 3 loops do; only the pointer jumping after a
        round that hooked runs on an array. SV hooks round-start roots only
        (writeMin against a copy of the round's start); root-up Liu-Tarjan
        hooks any current root. The parents are stars at every round's start
        (queries only read, and a round that hooked is fully shortcut) and a
        hook lowers a root's label, so a round that hooks nothing is the
        first to leave the parents unchanged, and the last.
        """
        if not len(edges):
            return
        p = self.state.parent
        sv = self.algorithm == "sv"
        us, vs = edges.T.tolist()  # flat id lists, reused by every round
        writes = 0
        rounds = 0
        while True:
            rounds += 1
            root = p.copy() if sv else p
            hooked = 0
            for u, v in zip(us, vs):
                pu, pv = p[u], p[v]
                l, h = (pu, pv) if pu < pv else (pv, pu)
                if l != h and root[h] == h and l < p[h]:
                    p[h] = l
                    hooked += 1
            if not hooked:
                break
            writes += hooked
            self.state.compress_all()
        c = self.state.c.a
        c[READS] += 2 * len(us) * rounds
        c[WRITES] += writes
