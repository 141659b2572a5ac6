"""Find implementations (paper Algorithm 8 + UF-JTB's two-try split) and the
batched ``IsConnected`` query.

``make_find`` returns ``find(u) -> root`` as a closure over the state's
parents list, so the hot loop pays only local-variable lookups. A find adds
up its parent reads/writes, CAS attempts and path length in local variables
and adds them to the counters once, when it returns (TPL/MPL
instrumentation, §4.1.1). ``make_connected`` answers a whole batch of
queries in one loop and counts once per batch, exactly as two naive finds
per query would.
"""
from __future__ import annotations

from repro.unionfind.core import CAS_FAIL, CAS_TRY, FINDS, MPL, READS, TPL, WRITES, UFState


def make_find(name: str, st: UFState):
    P, c = st.parent, st.c.a

    def find_naive(u: int) -> int:
        steps = 0
        p = P[u]
        while p != u:
            u = p
            p = P[u]
            steps += 1
        c[READS] += steps + 1
        c[FINDS] += 1
        c[TPL] += steps
        if steps > c[MPL]:
            c[MPL] = steps
        return u

    def find_compress(u: int) -> int:
        r = u
        steps = 0
        p = P[r]
        while p != r:
            r = p
            p = P[r]
            steps += 1
        writes = 0
        while True:
            j = P[u]
            if j <= r:
                break
            P[u] = r
            writes += 1
            u = j
        c[READS] += steps + writes + 2
        c[WRITES] += writes
        c[FINDS] += 1
        c[TPL] += steps
        if steps > c[MPL]:
            c[MPL] = steps
        return r

    def make_split_or_halve(halve: bool):
        reads_per_step = 3 if halve else 2

        def find(u: int) -> int:
            steps = writes = 0
            v = P[u]
            w = P[v]
            while v != w:
                # CAS(&P[u], v, w) — sequentially always succeeds
                if P[u] == v:
                    P[u] = w
                    writes += 1
                u = P[u] if halve else v
                v = P[u]
                w = P[v]
                steps += 1
            c[READS] += 2 + reads_per_step * steps
            c[WRITES] += writes
            c[CAS_TRY] += steps
            c[CAS_FAIL] += steps - writes
            c[FINDS] += 1
            c[TPL] += steps
            if steps > c[MPL]:
                c[MPL] = steps
            return v

        return find

    find_split = make_split_or_halve(halve=False)
    table = {
        "naive": find_naive,
        "compress": find_compress,
        "split": find_split,
        "halve": make_split_or_halve(halve=True),
        # UF-JTB FindTwoTrySplit: path splitting where each pointer update is
        # attempted at most twice. Sequentially the first CAS succeeds, so it
        # is path splitting — the provable-work variant.
        "two-try": find_split,
    }
    if name not in table:
        raise KeyError(f"unknown find option {name!r}; options: {sorted(table)}")
    return table[name]


def make_connected(st: UFState):
    """Return ``connected(pairs) -> list[bool]``: ``IsConnected(u, v)`` for
    each pair of any iterable of ``(u, v)`` pairs (hot callers pass
    ``zip(us, vs)`` over two flat int lists, as for ``union``), by two naive
    (read-only) finds fused into one loop.

    ``FINDS``, ``READS``, ``TPL`` and ``MPL`` come out exactly as two
    ``find_naive`` calls per pair would leave them; they go into the counters
    once per call.
    """
    P, c = st.parent, st.c.a

    def connected(pairs) -> list[bool]:
        out = []
        tpl = mpl = 0
        for u, v in pairs:
            su = 0
            p = P[u]
            while p != u:
                u = p
                p = P[u]
                su += 1
            sv = 0
            p = P[v]
            while p != v:
                v = p
                p = P[v]
                sv += 1
            out.append(u == v)
            tpl += su + sv
            if su > mpl:
                mpl = su
            if sv > mpl:
                mpl = sv
        k = len(out)
        c[READS] += tpl + 2 * k
        c[FINDS] += 2 * k
        c[TPL] += tpl
        if mpl > c[MPL]:
            c[MPL] = mpl
        return out

    return connected
