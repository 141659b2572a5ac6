"""Parents-array state, instrumentation counters, and the edge-array boundary."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# counter slots: indices into the plain-list ``Counters.a``
READS, WRITES, CAS_TRY, CAS_FAIL, FINDS, UNIONS, HOOKS, TPL, MPL = range(9)
N_COUNTERS = 9

_COUNTER_NAMES = [
    "parent_reads",
    "parent_writes",
    "cas_attempts",
    "cas_failures",
    "finds",
    "unions",
    "hooks",
    "total_path_length",
    "max_path_length",
]


class Counters:
    """Work metrics standing in for the paper's hardware counters (§4.1.1).

    TPL/MPL are exactly the paper's Total/Max Path Length; parent reads and
    writes proxy memory-controller traffic; CAS attempts proxy contention.
    """

    __slots__ = ("a",)

    def __init__(self) -> None:
        self.a = [0] * N_COUNTERS

    def as_dict(self) -> dict[str, int]:
        return dict(zip(_COUNTER_NAMES, self.a))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self.as_dict()})"


@dataclass(frozen=True)
class UFSpec:
    """One union-find algorithm instantiation.

    variant: uf-async | uf-hooks | uf-early | uf-rem-cas | uf-rem-lock | uf-jtb
    find:    naive | split | halve | compress | two-try (uf-jtb only)
    splice:  split-one | halve-one | splice (Rem's algorithms only)

    The invalid SpliceAtomic + FindCompress combination (paper B.2.3) is
    rejected at construction.
    """

    variant: str = "uf-rem-cas"
    find: str = "naive"
    splice: str = "split-one"

    def __post_init__(self) -> None:
        if self.variant in ("uf-rem-cas", "uf-rem-lock") and self.splice == "splice" and self.find == "compress":
            raise ValueError("SpliceAtomic + FindCompress is incorrect (paper Appendix B.2.3)")

    @property
    def key(self) -> str:
        s = f"{self.variant}/{self.find}"
        if self.variant in ("uf-rem-cas", "uf-rem-lock"):
            s += f"/{self.splice}"
        return s


class UFState:
    """Shared-memory state: parents list + hooks/priorities as needed.

    ``parent`` (and ``hooks``/``prio``) are plain Python lists that live as
    long as the state: the kernel's closures hold references to them, so they
    are only ever updated in place. Numpy arrays appear only at the edges
    (``compress_all``, ``forest``). ``forest`` is the ``(k, 2)`` int64 array
    of the edges that hooked a root, in hook order; ``run_components`` fills
    it, and a state driven through ``make_union`` directly keeps it empty.
    """

    __slots__ = ("parent", "hooks", "prio", "c", "forest")

    def __init__(self, n: int, labels: np.ndarray | None = None, seed: int = 0):
        if labels is None:
            self.parent = list(range(n))
        else:
            self.parent = np.asarray(labels, dtype=np.int64).tolist()
        self.hooks: list[int] | None = None  # UF-Hooks
        self.prio: list[int] | None = None  # UF-JTB random priorities
        self.c = Counters()
        self.forest = np.empty((0, 2), dtype=np.int64)

    def ensure_hooks(self) -> list[int]:
        if self.hooks is None:
            self.hooks = [-1] * len(self.parent)
        return self.hooks

    def ensure_prio(self, seed: int = 0) -> list[int]:
        if self.prio is None:
            g = np.random.default_rng(seed)
            self.prio = g.permutation(len(self.parent)).tolist()
        return self.prio

    def compress_all(self) -> np.ndarray:
        """Vectorized full path compression (used after sampling / at exit).

        Returns the compressed labeling as a new numpy array and writes it
        back into the parents list in place.
        """
        p = np.array(self.parent, dtype=np.int64)
        while True:
            pp = p[p]
            if np.array_equal(pp, p):
                break
            p = pp
        self.parent[:] = p.tolist()
        return p


def as_batches(n: int, *batches) -> tuple[np.ndarray, ...]:
    """Validate batches of vertex-id pairs together, vectorized, at the API boundary.

    Returns one ``(k, 2)`` int64 array per batch. Raises ``ValueError`` on a
    non-integer dtype, a shape that is not pairs, or an id outside ``[0, n)``
    in any batch, so a bad batch is rejected before any of them is used; a
    list index would otherwise wrap a negative id into a silently wrong
    partition. Empty input of any dtype is the empty batch. The range check
    is one reduction over every id at once: viewed as unsigned, a negative
    id exceeds every valid one.
    """
    arrays = []
    for edges in batches:
        a = np.asarray(edges)
        if a.size == 0:
            a = np.empty((0, 2), dtype=np.int64)
        elif a.dtype.kind not in "iu":
            raise ValueError(f"vertex ids must be integers, got dtype {a.dtype}")
        elif a.shape[-1:] != (2,):
            raise ValueError(f"expected (u, v) pairs, got shape {a.shape}")
        arrays.append(a.reshape(-1, 2).astype(np.int64, copy=False))
    ids = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    if len(ids) and int(ids.view(np.uint64).max()) >= n:
        lo, hi = ids.min(), ids.max()
        raise ValueError(f"vertex id {lo if lo < 0 else hi} outside [0, {n})")
    return tuple(arrays)


def id_pairs(edges: np.ndarray):
    """Iterate a ``(k, 2)`` id array as ``(u, v)`` pairs of Python ints.

    The pairs come from two flat int lists, so no garbage-collector-tracked
    object outlives its pair. ``edges.tolist()`` would build a list per pair,
    and a batch of those sets off CPython's cyclic collector about once per
    700 pairs, each run rescanning the lists still alive.
    """
    us, vs = edges.T.tolist()
    return zip(us, vs)


def run_components(
    n: int,
    edges: np.ndarray,
    spec: UFSpec,
    labels: np.ndarray | None = None,
    skip_label: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, UFState]:
    """Run a union-find variant over an edge array ((k,2) integer ids in [0, n)).

    ``labels`` seeds the parents array (e.g. from a sampling phase);
    ``skip_label`` skips edges whose *source's initial label* equals the
    most-frequent sampled component (Algorithm 7's filter). Returns the fully
    compressed labeling and the state: its counters, and in ``st.forest``
    the edges (after the filter) that hooked a root, in hook order.
    """
    from repro.unionfind.variants import make_union

    (edges,) = as_batches(n, edges)
    st = UFState(n, labels, seed=seed)
    union = make_union(spec, st)
    if skip_label is not None and labels is not None:
        init = np.asarray(labels, dtype=np.int64)
        edges = edges[init[edges[:, 0]] != skip_label]
    # Python ints, not numpy rows: iterating numpy rows costs ~5x more per edge
    st.forest = edges[union(id_pairs(edges))]
    return st.compress_all(), st
