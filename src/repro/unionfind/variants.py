"""The union-find variants (paper Algorithms 10–14 + UF-JTB).

All are min-based root-based algorithms: a hook links the root with the
*larger* value under the smaller one, so the final canonical root of a
component is its minimum vertex id (UF-JTB links by random priority instead
and is canonicalized afterwards). ``union(pairs)`` applies one batch of pairs
in order and returns the indices of the pairs that hooked; the hooked root is
where the spanning-forest edge is recorded (Definition B.2 requirement 3).
"""
from __future__ import annotations

from repro.unionfind.core import CAS_FAIL, CAS_TRY, HOOKS, READS, UNIONS, WRITES, UFSpec, UFState
from repro.unionfind.finds import make_find
from repro.unionfind.splices import make_splice

FINDS = ("naive", "split", "halve", "compress")
SPLICES = ("split-one", "halve-one", "splice")
VARIANTS = ("uf-async", "uf-hooks", "uf-early", "uf-rem-cas", "uf-rem-lock", "uf-jtb")


def valid_specs() -> list[UFSpec]:
    """Every valid (variant, find, splice) combination in the framework."""
    specs: list[UFSpec] = []
    for v in ("uf-async", "uf-hooks", "uf-early"):
        specs += [UFSpec(v, f) for f in FINDS]
    for v in ("uf-rem-cas", "uf-rem-lock"):
        for f in FINDS:
            for s in SPLICES:
                if s == "splice" and f == "compress":
                    continue  # incorrect combination (Appendix B.2.3)
                specs.append(UFSpec(v, f, s))
    specs += [UFSpec("uf-jtb", f) for f in ("naive", "two-try")]
    return specs


def make_union(spec: UFSpec, st: UFState):
    """Build ``union(pairs) -> hooked`` for one spec.

    ``pairs`` is any iterable of ``(u, v)`` vertex-id pairs, applied in
    order; ``hooked`` lists the indices of the pairs that hooked a root. Hot
    callers pass ``zip(us, vs)`` over two flat int lists: a list per pair is
    one garbage-collector-tracked object per pair, and a batch of those sets
    off CPython's cyclic collector. A call is one batch: its parent
    reads/writes, CAS attempts/failures, hooks and unions (the pairs the
    loop consumed) add up in local variables and go into the counters once,
    when it returns. The finds and splices it calls stay per-element and count
    themselves. The hooked pairs are the spanning-forest edges, one per
    hooked root; ``union`` stores none of them (``run_components`` sets
    ``st.forest`` to its edges at ``hooked``).
    """
    c, P = st.c.a, st.parent

    def _count(k, hooked, reads, writes, tries, fails) -> list[int]:
        c[READS] += reads
        c[WRITES] += writes
        c[CAS_TRY] += tries
        c[CAS_FAIL] += fails
        c[HOOKS] += len(hooked)
        c[UNIONS] += k
        return hooked

    if spec.variant == "uf-async":
        find = make_find(spec.find, st)

        def union(pairs) -> list[int]:
            hooked = []
            reads = tries = fails = 0
            i = -1
            for i, (u, v) in enumerate(pairs):
                while True:
                    pu, pv = find(u), find(v)
                    if pu == pv:
                        break
                    if pu < pv:
                        pu, pv = pv, pu
                    reads += 1
                    if P[pu] == pu:
                        tries += 1
                        if P[pu] == pu:  # CAS(&P[pu], pu, pv)
                            P[pu] = pv
                            hooked.append(i)
                            break
                        fails += 1
            return _count(i + 1, hooked, reads, tries - fails, tries, fails)

        return union

    if spec.variant == "uf-hooks":
        find = make_find(spec.find, st)
        H = st.ensure_hooks()

        def union(pairs) -> list[int]:
            hooked = []
            reads = tries = 0
            i = -1
            for i, (u, v) in enumerate(pairs):
                while True:
                    pu, pv = find(u), find(v)
                    if pu == pv:
                        break
                    if pu < pv:
                        pu, pv = pv, pu
                    reads += 1
                    # CAS on the auxiliary hooks array; the parents write is
                    # then uncontended (paper Algorithm 11).
                    tries += 1
                    if P[pu] == pu and H[pu] == -1:
                        H[pu] = pv
                        P[pu] = pv
                        hooked.append(i)
                        break
            hooks = len(hooked)
            return _count(i + 1, hooked, reads, 2 * hooks, tries, tries - hooks)

        return union

    if spec.variant == "uf-early":
        find = make_find(spec.find, st)
        do_compress = spec.find != "naive"

        def union(pairs) -> list[int]:
            # Walk up from both endpoints, eagerly trying to hook whichever
            # current vertex is a root (paper Algorithm 12, adapted: the
            # published pseudocode is abbreviated; this preserves its
            # root-based min-hooking semantics).
            hooked = []
            reads = tries = fails = 0
            i = -1
            for i, (u, v) in enumerate(pairs):
                ru, rv = u, v
                while ru != rv:
                    if ru < rv:
                        ru, rv = rv, ru
                    reads += 1
                    pu = P[ru]
                    if pu == ru:
                        tries += 1
                        if P[ru] == ru:  # CAS(&P[ru], ru, rv)
                            P[ru] = rv
                            hooked.append(i)
                            break
                        fails += 1
                    else:
                        ru = pu
                if do_compress:
                    find(u)
                    find(v)
            return _count(i + 1, hooked, reads, tries - fails, tries, fails)

        return union

    if spec.variant in ("uf-rem-cas", "uf-rem-lock"):
        splice = make_splice(spec.splice, st)
        compress = None if spec.find == "naive" else make_find(spec.find, st)
        lock_based = spec.variant == "uf-rem-lock"

        def union(pairs) -> list[int]:
            hooked = []
            reads = writes = tries = fails = 0
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
                        if lock_based:
                            # acquire L[ru]; re-check under the lock, plain write
                            reads += 2
                            pv2 = P[rv]
                            if P[ru] == ru and ru > pv2:
                                P[ru] = pv2
                                writes += 1
                                hooked.append(i)
                                break
                        else:
                            tries += 1
                            if P[ru] == ru:  # CAS(&P[ru], ru, pv)
                                P[ru] = pv
                                writes += 1
                                hooked.append(i)
                                break
                            fails += 1
                    else:
                        ru = splice(ru, rv)
                if compress is not None:
                    compress(u)
                    compress(v)
            return _count(i + 1, hooked, reads, writes, tries, fails)

        return union

    if spec.variant == "uf-jtb":
        if spec.find not in ("naive", "two-try"):
            raise ValueError("UF-JTB supports FindSimple (naive) or FindTwoTrySplit (two-try)")
        find = make_find(spec.find, st)
        prio = st.ensure_prio()

        def union(pairs) -> list[int]:
            # Randomized linking (Jayanti–Tarjan–Boix-Adserà): the root with
            # lower random priority is linked under the higher-priority root.
            hooked = []
            reads = tries = fails = 0
            i = -1
            for i, (u, v) in enumerate(pairs):
                while True:
                    pu, pv = find(u), find(v)
                    if pu == pv:
                        break
                    if prio[pu] > prio[pv]:
                        pu, pv = pv, pu
                    reads += 1
                    if P[pu] == pu:
                        tries += 1
                        if P[pu] == pu:  # CAS(&P[pu], pu, pv)
                            P[pu] = pv
                            hooked.append(i)
                            break
                        fails += 1
            return _count(i + 1, hooked, reads, tries - fails, tries, fails)

        return union

    raise KeyError(f"unknown union-find variant {spec.variant!r}; options: {VARIANTS}")
