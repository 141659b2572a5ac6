"""Splice rules for Rem's algorithms (paper Algorithm 9)."""
from __future__ import annotations

from repro.unionfind.core import CAS_TRY, READS, WRITES, UFState


def make_splice(name: str, st: UFState):
    """Return ``splice(u, other) -> new_u`` used when the union loop sits at
    a non-root vertex (paper §3.3.1, Concurrent Rem's Algorithms). A splice
    reads two parents and makes at most one CAS, which run sequentially
    always succeeds, so it is counted as one attempt and one write."""
    P, c = st.parent, st.c.a

    def split_one(u: int, other: int) -> int:
        c[READS] += 2
        v = P[u]
        w = P[v]
        if v != w:  # CAS(&P[u], v, w)
            P[u] = w
            c[CAS_TRY] += 1
            c[WRITES] += 1
        return v

    def halve_one(u: int, other: int) -> int:
        split_one(u, other)
        return P[u]

    def splice(u: int, other: int) -> int:
        c[READS] += 2
        pu = P[u]
        P[u] = P[other]  # CAS(&P[u], pu, P[other])
        c[CAS_TRY] += 1
        c[WRITES] += 1
        return pu

    table = {"split-one": split_one, "halve-one": halve_one, "splice": splice}
    return table[name]
