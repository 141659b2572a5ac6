"""Approximate minimum spanning forest (paper §5.1).

Buckets edges by weight into (1+ε)-geometric ranges and grows a spanning
forest bucket by bucket with UF-Rem-CAS{SplitAtomicOne, FindNaive}, giving
W(F_OPT) ≤ W(F_APX) ≤ (1+ε)·W(F_OPT). Four variants, as in the paper:

- AMSF-EA:   sort all edges once into an edge array, walk bucket pointers.
- AMSF-F:    extract each bucket from the graph, filtering processed edges.
- AMSF-NF:   re-scan all edges every round (no filtering).
- AMSF-NF-S: AMSF-NF + the ConnectIt sampling optimization — skip vertices
  already inside the largest component of the current labeling.

The exact comparator is Borůvka's MSF (GBBS-MSF analog).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.unionfind import UFSpec, UFState, make_union

_SPEC = UFSpec("uf-rem-cas", "naive", "split-one")


def _buckets(w: np.ndarray, eps: float) -> np.ndarray:
    wmin = w.min()
    return np.floor(np.log(w / wmin) / np.log1p(eps)).astype(np.int64)


def _forest_pass(union, u: np.ndarray, v: np.ndarray) -> list[int]:
    """Apply one bucket's edges; returns indices of edges that hooked."""
    return union(zip(u.tolist(), v.tolist()))


def amsf(
    weighted: pd.DataFrame, n: int, eps: float = 0.25, variant: str = "nf-s"
) -> tuple[pd.DataFrame, dict]:
    """Run one AMSF variant over a weighted undirected edge list (u, v, w).

    Returns (forest edges with weights, info). ``variant`` is one of
    ``ea`` | ``f`` | ``nf`` | ``nf-s``.
    """
    if variant not in ("ea", "f", "nf", "nf-s"):
        raise KeyError(f"unknown AMSF variant {variant!r}")
    t0 = time.perf_counter()
    u = weighted["u"].to_numpy(dtype=np.int64)
    v = weighted["v"].to_numpy(dtype=np.int64)
    w = weighted["w"].to_numpy(dtype=np.float64)
    b = _buckets(w, eps)
    nb = int(b.max()) + 1 if len(b) else 0
    st = UFState(n)
    union = make_union(_SPEC, st, record_forest=False)
    out_u, out_v, out_w = [], [], []
    edges_scanned = 0

    if variant == "ea":
        order = np.lexsort((w,))  # one global sort of the edge array
        u, v, w, b = u[order], v[order], w[order], b[order]
        bounds = np.searchsorted(b, np.arange(nb + 1))
        for i in range(nb):
            lo, hi = bounds[i], bounds[i + 1]
            edges_scanned += hi - lo
            for j in _forest_pass(union, u[lo:hi], v[lo:hi]):
                out_u.append(u[lo + j]); out_v.append(v[lo + j]); out_w.append(w[lo + j])
    else:
        remaining = np.ones(len(u), dtype=bool)
        for i in range(nb):
            if variant == "f":
                pool = np.flatnonzero(remaining)
                edges_scanned += len(pool)
                sel = pool[b[pool] == i]
                remaining[sel] = False
            elif variant == "nf":
                edges_scanned += len(u)
                sel = np.flatnonzero(b == i)
            else:  # nf-s
                # sampling optimization: vertices inside the current largest
                # component (L_max) are skipped by the scan itself, so their
                # internal edges are neither scanned nor processed
                p = st.compress_all()
                vals, counts = np.unique(p, return_counts=True)
                lmax = int(vals[np.argmax(counts)])
                outside = ~((p[u] == lmax) & (p[v] == lmax))
                edges_scanned += int(outside.sum())
                sel = np.flatnonzero(outside & (b == i))
            for j in _forest_pass(union, u[sel], v[sel]):
                out_u.append(u[sel[j]]); out_v.append(v[sel[j]]); out_w.append(w[sel[j]])

    forest = pd.DataFrame({"u": out_u, "v": out_v, "w": out_w})
    return forest, {
        "variant": variant,
        "eps": eps,
        "buckets": nb,
        "edges_scanned": edges_scanned,
        "time_s": time.perf_counter() - t0,
    }


def boruvka_msf(weighted: pd.DataFrame, n: int) -> tuple[pd.DataFrame, dict]:
    """Exact MSF via vectorized Borůvka (the GBBS-MSF comparator)."""
    t0 = time.perf_counter()
    u = weighted["u"].to_numpy(dtype=np.int64)
    v = weighted["v"].to_numpy(dtype=np.int64)
    w = weighted["w"].to_numpy(dtype=np.float64)
    eidx = np.arange(len(u))
    p = np.arange(n, dtype=np.int64)
    chosen: list[int] = []
    rounds = 0
    while True:
        rounds += 1
        cu, cv = p[u], p[v]
        live = cu != cv
        if not live.any():
            break
        # per-component minimum incident edge (by (w, eidx) for determinism)
        key = w[live] + 0.0
        comp = np.concatenate([cu[live], cv[live]])
        kk = np.concatenate([key, key])
        ee = np.concatenate([eidx[live], eidx[live]])
        order = np.lexsort((ee, kk))
        comp_o, ee_o = comp[order], ee[order]
        first = np.unique(comp_o, return_index=True)[1]
        winners = np.unique(ee_o[first])
        chosen.extend(winners.tolist())
        # hook: for each winner edge, link larger comp root to smaller
        a, bb = p[u[winners]], p[v[winners]]
        lo, hi = np.minimum(a, bb), np.maximum(a, bb)
        # resolve conflicts min-first, then pointer-jump
        np.minimum.at(p, hi, lo)
        while True:
            pp = p[p]
            if np.array_equal(pp, p):
                break
            p = pp
    chosen_idx = sorted(set(chosen))
    forest = pd.DataFrame({"u": u[chosen_idx], "v": v[chosen_idx], "w": w[chosen_idx]})
    # Borůvka with simultaneous hooks can select a redundant edge on ties;
    # prune to a forest with an exact Kruskal pass over the chosen edges.
    forest = _kruskal(forest, n)
    return forest, {"rounds": rounds, "time_s": time.perf_counter() - t0}


def _kruskal(edges: pd.DataFrame, n: int) -> pd.DataFrame:
    order = np.lexsort((edges["u"].to_numpy(), edges["w"].to_numpy()))
    p = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while p[x] != x:
            p[x] = p[p[x]]
            x = int(p[x])
        return x

    keep = []
    for i in order:
        a, b = find(int(edges["u"].iloc[i])), find(int(edges["v"].iloc[i]))
        if a != b:
            p[max(a, b)] = min(a, b)
            keep.append(i)
    return edges.iloc[sorted(keep)].reset_index(drop=True)


def kruskal_msf(weighted: pd.DataFrame, n: int) -> pd.DataFrame:
    """Exact MSF by Kruskal — the test oracle for forest weight."""
    return _kruskal(weighted, n)
