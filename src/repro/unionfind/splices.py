"""Splice rules for Rem's algorithms (paper Algorithm 9)."""
from __future__ import annotations

from repro.unionfind.core import CAS_FAIL, CAS_TRY, READS, WRITES, UFState


def make_splice(name: str, st: UFState):
    """Return ``splice(u, other) -> new_u`` used when the union loop sits at
    a non-root vertex (paper §3.3.1, Concurrent Rem's Algorithms). A splice
    reads two parents and makes at most one CAS."""
    P, c = st.parent, st.c.a

    def _cas(i: int, old: int, new: int) -> None:
        c[CAS_TRY] += 1
        if P[i] == old:
            P[i] = new
            c[WRITES] += 1
        else:
            c[CAS_FAIL] += 1

    def split_one(u: int, other: int) -> int:
        c[READS] += 2
        v = P[u]
        w = P[v]
        if v != w:
            _cas(u, v, w)
        return v

    def halve_one(u: int, other: int) -> int:
        c[READS] += 2
        v = P[u]
        w = P[v]
        if v != w:
            _cas(u, v, w)
        return w

    def splice(u: int, other: int) -> int:
        c[READS] += 2
        pu = P[u]
        _cas(u, pu, P[other])
        return pu

    table = {"split-one": split_one, "halve-one": halve_one, "splice": splice}
    if name not in table:
        raise KeyError(f"unknown splice option {name!r}; options: {sorted(table)}")
    return table[name]
