"""Parents-array state, instrumentation counters, and the edge-array boundary."""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# counter slots: indices into the plain-list ``Counters.a``; slot 3,
# ``cas_failures``, is never written (see ``Counters``)
READS, WRITES, CAS_TRY, _, FINDS, UNIONS, HOOKS, TPL, MPL = range(9)
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
    ``cas_failures`` is always 0: the kernel runs sequentially, so every CAS
    succeeds on its first attempt and none is retried. ``as_dict`` keeps the
    key so that every reader of the nine counters sees the same keys.
    """

    __slots__ = ("a",)

    def __init__(self) -> None:
        self.a = [0] * N_COUNTERS

    def as_dict(self) -> dict[str, int]:
        return dict(zip(_COUNTER_NAMES, self.a))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self.as_dict()})"


# The union-find option space (paper §3.3.1): the finds and splices each
# variant takes, its §4.1 default first. UF-JTB links with FindNaive or
# FindTwoTrySplit only, and only Rem's algorithms splice.
_FINDS = ("naive", "split", "halve", "compress")
SPLICE_OPTIONS = ("split-one", "halve-one", "splice")
OPTIONS = {
    "uf-async": (_FINDS, (None,)),
    "uf-hooks": (_FINDS, (None,)),
    "uf-early": (_FINDS, (None,)),
    "uf-rem-cas": (_FINDS, SPLICE_OPTIONS),
    "uf-rem-lock": (_FINDS, SPLICE_OPTIONS),
    "uf-jtb": (("two-try", "naive"), (None,)),
}
VARIANTS = tuple(OPTIONS)
FIND_OPTIONS = (*_FINDS, "two-try")


@dataclass(frozen=True)
class UFSpec:
    """One union-find algorithm instantiation, checked when it is built.

    variant: uf-async | uf-hooks | uf-early | uf-rem-cas | uf-rem-lock | uf-jtb
    find:    naive | split | halve | compress; UF-JTB: two-try | naive
    splice:  split-one | halve-one | splice, Rem's algorithms only

    ``OPTIONS`` is the whole space. A find or splice left out takes the
    variant's §4.1 default (``naive``; ``split-one`` for Rem's algorithms;
    ``two-try`` for UF-JTB), so ``UFSpec(v)`` is the paper's recommended
    option for variant v and ``UFSpec()`` is UF-Rem-CAS's. An unknown name
    raises ``KeyError``; a known option the variant does not take raises
    ``ValueError``, as does SpliceAtomic with FindCompress (paper B.2.3).
    """

    variant: str = "uf-rem-cas"
    find: str | None = None
    splice: str | None = None

    def __post_init__(self) -> None:
        if self.variant not in OPTIONS:
            raise KeyError(f"unknown union-find variant {self.variant!r}; options: {VARIANTS}")
        for kind, name, known in (("find", self.find, FIND_OPTIONS), ("splice", self.splice, SPLICE_OPTIONS)):
            if name is not None and name not in known:
                raise KeyError(f"unknown {kind} option {name!r}; options: {known}")
        finds, splices = OPTIONS[self.variant]
        find = finds[0] if self.find is None else self.find
        splice = splices[0] if self.splice is None else self.splice
        if find not in finds:
            raise ValueError(f"{self.variant} takes find {', '.join(finds)}; not {find!r}")
        if splice not in splices:
            raise ValueError(f"{self.variant} takes no splice ({splice!r}): only Rem's algorithms splice")
        if splice == "splice" and find == "compress":
            raise ValueError("SpliceAtomic + FindCompress is incorrect (paper Appendix B.2.3)")
        object.__setattr__(self, "find", find)
        object.__setattr__(self, "splice", splice)

    @property
    def key(self) -> str:
        return "/".join(o for o in (self.variant, self.find, self.splice) if o is not None)


class UFState:
    """Shared-memory state: the parents list and the counters.

    ``parent`` is a plain Python list that lives as long as the state: the
    kernel's closures hold references to it, so it is only ever updated in
    place. Numpy arrays appear only at the edges
    (``compress_all``, ``forest``). ``forest`` is the ``(k, 2)`` int64 array
    of the edges that hooked a root, in hook order; ``run_components`` fills
    it, and a state driven through ``make_union`` directly keeps it empty.
    """

    __slots__ = ("parent", "c", "forest")

    def __init__(self, n: int, labels: np.ndarray | None = None):
        if labels is None:
            self.parent = list(range(n))
        else:
            self.parent = np.asarray(labels, dtype=np.int64).tolist()
        self.c = Counters()
        self.forest = np.empty((0, 2), dtype=np.int64)

    def compress_all(self) -> np.ndarray:
        """Vectorized full path compression (used after sampling / at exit).

        Returns the compressed labeling as a new numpy array and writes it
        back into the parents list in place.
        """
        p = full_shortcut(np.array(self.parent, dtype=np.int64))
        self.parent[:] = p.tolist()
        return p


def full_shortcut(p: np.ndarray) -> np.ndarray:
    """Pointer jumping: P ← P[P] until no entry moves. Returns P, or a new
    array if any entry moved."""
    while not np.array_equal(q := p[p], p):
        p = q
    return p


def check_vertex_count(n) -> None:
    """Raise ``ValueError`` unless ``n`` is a non-negative integer: a negative
    or fractional count would pass every id range check and yield a wrong
    or empty parents array."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"vertex count must be a non-negative integer, got {n!r}")


def as_batch(n: int, edges) -> np.ndarray:
    """Validate one batch of vertex-id pairs, vectorized, at the API boundary.

    Returns it as a ``(k, 2)`` int64 array. Raises ``ValueError`` on a
    non-integer dtype, a shape that is not pairs, or an id outside ``[0, n)``;
    a list index would otherwise wrap a negative id into a silently wrong
    partition. Empty input of any dtype is the empty batch. The range check
    is one reduction over every id at once: viewed as unsigned, a negative
    id exceeds every valid one.
    """
    a = np.asarray(edges)
    if a.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if a.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got dtype {a.dtype}")
    if a.shape[-1:] != (2,):
        raise ValueError(f"expected (u, v) pairs, got shape {a.shape}")
    a = a.reshape(-1, 2).astype(np.int64, copy=False)
    if int(a.view(np.uint64).max()) >= n:
        lo, hi = a.min(), a.max()
        raise ValueError(f"vertex id {lo if lo < 0 else hi} outside [0, {n})")
    return a


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
) -> tuple[np.ndarray, UFState]:
    """Run a union-find variant over an edge array ((k,2) integer ids in [0, n)).

    ``labels`` seeds the parents array (e.g. from a sampling phase);
    ``skip_label`` skips edges whose *source's initial label* equals the
    most-frequent sampled component (Algorithm 7's filter). Returns the fully
    compressed labeling and the state: its counters, and in ``st.forest``
    the edges (after the filter) that hooked a root, in hook order.
    """
    from repro.unionfind.variants import make_union

    edges = as_batch(n, edges)
    st = UFState(n, labels)
    union = make_union(spec, st)
    if skip_label is not None and labels is not None:
        init = np.asarray(labels, dtype=np.int64)
        edges = edges[init[edges[:, 0]] != skip_label]
    # Python ints, not numpy rows: iterating numpy rows costs ~5x more per edge
    st.forest = edges[union(id_pairs(edges))]
    return st.compress_all(), st
