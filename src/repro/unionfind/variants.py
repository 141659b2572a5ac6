"""The union-find variants (paper Algorithms 10–14 + UF-JTB).

All are min-based root-based algorithms: a hook links the root with the
*larger* value under the smaller one, so the final canonical root of a
component is its minimum vertex id (UF-JTB links by random priority instead
and is canonicalized afterwards). ``union(pairs)`` applies one batch of pairs
in order and returns the indices of the pairs that hooked; the hooked root is
where the spanning-forest edge is recorded (Definition B.2 requirement 3).

Run sequentially, every hook succeeds on its first attempt: a loop reads a
root and links it with nothing written in between, so no loop retries and
no CAS fails.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from repro.unionfind.core import (
    CAS_TRY, FIND_OPTIONS, HOOKS, READS, SPLICE_OPTIONS, UNIONS, VARIANTS, WRITES, UFSpec, UFState,
)
from repro.unionfind.finds import make_find
from repro.unionfind.splices import make_splice


def valid_specs() -> list[UFSpec]:
    """Every (variant, find, splice) combination that ``UFSpec`` accepts, once each."""
    specs: dict[UFSpec, None] = {}
    for v, f, s in product(VARIANTS, FIND_OPTIONS, (*SPLICE_OPTIONS, None)):
        try:
            specs[UFSpec(v, f, s)] = None
        except ValueError:
            continue
    return list(specs)


def make_union(spec: UFSpec, st: UFState):
    """Build ``union(pairs) -> hooked`` for one spec.

    ``pairs`` is any iterable of ``(u, v)`` vertex-id pairs, applied in
    order; ``hooked`` lists the indices of the pairs that hooked a root. Hot
    callers pass ``zip(us, vs)`` over two flat int lists: a list per pair is
    one garbage-collector-tracked object per pair, and a batch of those sets
    off CPython's cyclic collector. A call is one batch: its parent
    reads/writes, CAS attempts, hooks and unions (the pairs the loop
    consumed) add up in local variables and go into the counters once, when
    it returns. The finds and splices it calls stay per-element and count
    themselves. The hooked pairs are the spanning-forest edges, one per
    hooked root; ``union`` stores none of them (``run_components`` sets
    ``st.forest`` to its edges at ``hooked``).
    """
    c, P, variant = st.c.a, st.parent, spec.variant

    def _count(k, hooked, reads, writes, tries) -> list[int]:
        c[READS] += reads
        c[WRITES] += writes
        c[CAS_TRY] += tries
        c[HOOKS] += len(hooked)
        c[UNIONS] += k
        return hooked

    if variant in ("uf-async", "uf-hooks", "uf-jtb"):
        find = make_find(spec.find, st)
        # UF-JTB (Jayanti–Tarjan–Boix-Adserà) links the root of lower random
        # priority under the other (seed 0: every run links by the same
        # priorities); UF-Hooks CASes the root's slot of the auxiliary hooks
        # array, then writes its parent uncontended (paper Algorithm 11).
        prio = np.random.default_rng(0).permutation(len(P)).tolist() if variant == "uf-jtb" else None
        H = [-1] * len(P) if variant == "uf-hooks" else None
        writes_per_hook = 1 if H is None else 2

        def union(pairs) -> list[int]:
            hooked = []
            i = -1
            for i, (u, v) in enumerate(pairs):
                pu, pv = find(u), find(v)
                if pu == pv:
                    continue
                if (pu < pv) if prio is None else (prio[pu] > prio[pv]):
                    pu, pv = pv, pu
                if H is not None:
                    H[pu] = pv
                P[pu] = pv  # CAS(&P[pu], pu, pv)
                hooked.append(i)
            h = len(hooked)
            return _count(i + 1, hooked, h, writes_per_hook * h, h)

        return union

    compress = None if spec.find == "naive" else make_find(spec.find, st)

    if variant == "uf-early":

        def union(pairs) -> list[int]:
            # Walk up from both endpoints, eagerly hooking whichever current
            # vertex is a root (paper Algorithm 12, adapted: the published
            # pseudocode is abbreviated; this preserves its root-based
            # min-hooking semantics).
            hooked = []
            reads = 0
            i = -1
            for i, (u, v) in enumerate(pairs):
                ru, rv = u, v
                while ru != rv:
                    if ru < rv:
                        ru, rv = rv, ru
                    reads += 1
                    pu = P[ru]
                    if pu == ru:  # CAS(&P[ru], ru, rv)
                        P[ru] = rv
                        hooked.append(i)
                        break
                    ru = pu
                if compress is not None:
                    compress(u)
                    compress(v)
            h = len(hooked)
            return _count(i + 1, hooked, reads, h, h)

        return union

    splice = make_splice(spec.splice, st)
    # A hook is one CAS for UF-Rem-CAS; UF-Rem-Lock instead takes the root's
    # lock and re-reads both parents under it before a plain write.
    reads_per_hook, tries_per_hook = (2, 0) if variant == "uf-rem-lock" else (0, 1)

    def union(pairs) -> list[int]:
        hooked = []
        reads = 0
        i = -1
        for i, (u, v) in enumerate(pairs):
            ru, rv = u, v
            while True:
                reads += 2
                pu, pv = P[ru], P[rv]
                if pu == pv:
                    break
                if pu < pv:
                    ru, rv, pu, pv = rv, ru, pv, pu
                if ru == pu:  # ru is a root with larger value: hook it
                    P[ru] = pv
                    hooked.append(i)
                    break
                ru = splice(ru, rv)
            if compress is not None:
                compress(u)
                compress(v)
        h = len(hooked)
        return _count(i + 1, hooked, reads + reads_per_hook * h, h, tries_per_hook * h)

    return union
