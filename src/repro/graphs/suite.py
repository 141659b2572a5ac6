"""The 8-graph evaluation suite (stand-ins for the paper's Table 2 inputs).

Each entry maps a paper graph to a synthetic family reproducing the property
that drives the paper's results for it:

- RO  (road_usa)      → 2-D grid: high diameter, degree 2–4, one component.
- LJ  (LiveJournal)   → RMAT power-law + many small extra components.
- CO  (com-Orkut)     → dense RMAT, single component, low diameter.
- TW  (Twitter)       → RMAT, heavier skew.
- FR  (Friendster)    → Barabási–Albert, uniform-ish social degrees.
- CW  (ClueWeb)       → web_like clusters (lexicographic-local order) + many
                        small components.
- HL14/HL12 (Hyperlink)→ larger web_like graphs, massive component ≈ 93 %.

Scales: ``test`` (~10² vertices, unit tests), ``mini`` (~10³–10⁴, sweep
benchmarks), ``bench`` (~10⁴–10⁵, headline benchmarks).
"""
from __future__ import annotations

from functools import lru_cache

from repro.graphs import generators as gen
from repro.graphs.generators import Graph

GRAPH_NAMES = ["RO", "LJ", "CO", "TW", "FR", "CW", "HL14", "HL12"]


def _ro(s: int) -> Graph:
    rows = {0: 20, 1: 60, 2: 300}[s]
    cols = {0: 15, 1: 40, 2: 200}[s]
    return gen.grid(rows, cols, name="RO")


def _ring_connected_rmat(name: str, n: int, m: int, *, a=0.5, b=0.1, c=0.1, seed=0) -> Graph:
    """RMAT core plus a ring over all ids: power-law skew, one component.

    The real social graphs (LJ/CO/TW/FR) have a single massive component;
    raw RMAT leaves isolated vertices, so a degree-2 ring ties them in
    without changing the degree distribution's shape.
    """
    import numpy as np

    g = gen.rmat(n, m, a=a, b=b, c=c, seed=seed, name=name)
    ids = np.arange(n)
    half = g.src < g.dst
    return gen.from_pairs(
        name,
        n,
        np.concatenate([g.src[half], ids]),
        np.concatenate([g.dst[half], (ids + 1) % n]),
    )


def _lj(s: int) -> Graph:
    n = {0: 300, 1: 6_000, 2: 40_000}[s]
    m = {0: 1_200, 1: 40_000, 2: 400_000}[s]
    g = _ring_connected_rmat("LJ", n, m, seed=11)
    extras = {0: 4, 1: 12, 2: 40}[s]
    comps = [g] + [gen.path_graph(5) for _ in range(extras)]
    return gen.disjoint_union("LJ", comps)


def _co(s: int) -> Graph:
    n = {0: 200, 1: 4_000, 2: 25_000}[s]
    m = {0: 1_600, 1: 60_000, 2: 600_000}[s]
    return _ring_connected_rmat("CO", n, m, a=0.45, b=0.15, c=0.15, seed=12)


def _tw(s: int) -> Graph:
    n = {0: 512, 1: 8_000, 2: 50_000}[s]
    m = {0: 2_000, 1: 80_000, 2: 800_000}[s]
    return _ring_connected_rmat("TW", n, m, a=0.57, b=0.19, c=0.19, seed=13)


def _fr(s: int) -> Graph:
    n = {0: 600, 1: 10_000, 2: 60_000}[s]
    mper = {0: 3, 1: 5, 2: 8}[s]
    return gen.barabasi_albert(n, mper, seed=14, name="FR")


def _web(name: str, s: int, seed: int, scale: tuple[tuple[int, int, int], ...]) -> Graph:
    nc, cs, extra = scale[s]
    return gen.web_like(
        n_clusters=nc,
        cluster_size=cs,
        intra_per_vertex=4,
        extra_components=extra,
        seed=seed,
        name=name,
    )


def _cw(s: int) -> Graph:
    return _web("CW", s, 15, ((12, 40, 6), (120, 60, 20), (500, 150, 40)))


def _hl14(s: int) -> Graph:
    return _web("HL14", s, 16, ((16, 50, 4), (160, 80, 16), (600, 180, 30)))


def _hl12(s: int) -> Graph:
    return _web("HL12", s, 17, ((20, 50, 5), (200, 90, 18), (700, 200, 35)))


_BUILDERS = {
    "RO": _ro,
    "LJ": _lj,
    "CO": _co,
    "TW": _tw,
    "FR": _fr,
    "CW": _cw,
    "HL14": _hl14,
    "HL12": _hl12,
}

_SCALES = {"test": 0, "mini": 1, "bench": 2}


@lru_cache(maxsize=64)
def get(name: str, scale: str = "test") -> Graph:
    """Build (and memoize) one suite graph at the given scale."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown suite graph {name!r}; options: {GRAPH_NAMES}")
    return _BUILDERS[name](_SCALES[scale])


@lru_cache(maxsize=8)
def streaming_graph(kind: str, scale: str = "test") -> Graph:
    """RMAT (RM) and Barabási–Albert (BA) inputs for the streaming tables."""
    s = _SCALES[scale]
    if kind == "RM":
        n = {0: 1_000, 1: 20_000, 2: 100_000}[s]
        return gen.rmat(n, 10 * n, a=0.5, b=0.1, c=0.1, seed=30, name="RM")
    if kind == "BA":
        n = {0: 1_000, 1: 20_000, 2: 100_000}[s]
        return gen.barabasi_albert(n, 10, seed=31, name="BA")
    raise KeyError(kind)
