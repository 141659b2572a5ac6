"""Union-find variant sweep: every valid (variant, find, splice) combination
must compute correct components on every graph, under adversarial operation
orders, with seeded labels, with skip filters, and while emitting valid
spanning-forest hooks."""
import gc

import numpy as np
import pytest

from repro.core.streaming import StreamingConnectIt
from repro.graphs import generators as gen
from repro.graphs.ground_truth import canonicalize, cc_labels, num_components, same_partition
from repro.unionfind import UFSpec, make_union, run_components
from repro.unionfind.core import UFState
from repro.unionfind.variants import valid_specs

SPECS = valid_specs()
SPEC_IDS = [s.key for s in SPECS]

GRAPHS = {
    "grid": gen.grid(5, 8),
    "rmat": gen.rmat(120, 480, seed=3),
    "multi": gen.disjoint_union("m", [gen.cycle(7), gen.path_graph(9), gen.star(6), gen.complete(5)]),
}


def _edges(g):
    return np.stack([g.src, g.dst], axis=1)


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_correct_components(spec, gname):
    g = GRAPHS[gname]
    truth = cc_labels(g.n, g.src, g.dst)
    labels, _ = run_components(g.n, _edges(g), spec)
    assert same_partition(labels, truth)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_adversarial_orders(spec):
    """Permuted operation orders — the observable effect of scheduling."""
    g = GRAPHS["rmat"]
    truth = cc_labels(g.n, g.src, g.dst)
    e = _edges(g)
    rng = np.random.default_rng(hash(spec.key) % 2**32)
    for _ in range(2):
        labels, _ = run_components(g.n, e[rng.permutation(len(e))], spec)
        assert same_partition(labels, truth)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_forest_size(spec):
    g = GRAPHS["multi"]
    truth = cc_labels(g.n, g.src, g.dst)
    labels, st = run_components(g.n, _edges(g), spec, record_forest=True)
    assert len(st.forest) == g.n - num_components(truth)
    # forest edges are real edges and contracting them reproduces the labels
    pairs = set(zip(g.src.tolist(), g.dst.tolist()))
    fe = list(st.forest.values())
    assert all((u, v) in pairs for u, v in fe)
    fl = cc_labels(
        g.n,
        np.array([u for u, _ in fe] + [v for _, v in fe], dtype=np.int64),
        np.array([v for _, v in fe] + [u for u, _ in fe], dtype=np.int64),
    )
    assert same_partition(fl, truth)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_hooked_indices_are_forest(spec):
    """``union(pairs)`` returns, in order, the indices of the pairs that the
    forest records, one per hook."""
    g = GRAPHS["rmat"]
    pairs = _edges(g).tolist()
    st = UFState(g.n)
    hooked = make_union(spec, st, record_forest=True)(pairs)
    assert [tuple(pairs[i]) for i in hooked] == list(st.forest.values())
    assert len(hooked) == st.c.as_dict()["hooks"] == g.n - num_components(cc_labels(g.n, g.src, g.dst))
    assert hooked == sorted(set(hooked))


def test_invalid_combination_rejected():
    with pytest.raises(ValueError, match="SpliceAtomic"):
        UFSpec("uf-rem-cas", "compress", "splice")
    with pytest.raises(ValueError, match="SpliceAtomic"):
        UFSpec("uf-rem-lock", "compress", "splice")


def test_unknown_names_rejected():
    from repro.unionfind import make_union
    from repro.unionfind.core import UFState

    st = UFState(4)
    with pytest.raises(KeyError):
        make_union(UFSpec("uf-nope"), st)
    from repro.unionfind.finds import make_find

    with pytest.raises(KeyError):
        make_find("bogus", st)
    from repro.unionfind.splices import make_splice

    with pytest.raises(KeyError):
        make_splice("bogus", st)


def test_jtb_find_restriction():
    from repro.unionfind import make_union
    from repro.unionfind.core import UFState

    with pytest.raises(ValueError):
        make_union(UFSpec("uf-jtb", "compress"), UFState(4))


@pytest.mark.parametrize("spec", [UFSpec("uf-rem-cas", "naive", "split-one"), UFSpec("uf-async", "compress")], ids=["rem-cas", "async"])
def test_seeded_labels(spec):
    """Seeding with a height-1 partial labeling must finish correctly."""
    g = GRAPHS["grid"]
    truth = cc_labels(g.n, g.src, g.dst)
    seed = np.arange(g.n, dtype=np.int64)
    seed[1::2] = seed[1::2] - 1  # pair up consecutive vertices (height-1)
    labels, _ = run_components(g.n, _edges(g), spec, labels=seed)
    assert same_partition(labels, truth)


def test_skip_label_skips_edges():
    """With skip_label, edges sourced in the frequent component are not
    processed — but symmetry still completes the labeling (Theorem 3)."""
    g = gen.disjoint_union("two", [gen.complete(6), gen.path_graph(5)])
    truth = cc_labels(g.n, g.src, g.dst)
    seed = truth.copy()  # fully sampled: labels are already correct
    labels, st = run_components(
        g.n, _edges(g), UFSpec("uf-rem-cas", "naive", "split-one"), labels=seed, skip_label=0
    )
    assert same_partition(labels, truth)
    # all edges of the complete(6) component were skipped: no unions ran on it
    assert st.c.as_dict()["unions"] == (g.m_directed - 30)


def test_counters_populated():
    g = GRAPHS["rmat"]
    _, st = run_components(g.n, _edges(g), UFSpec("uf-rem-cas", "split", "split-one"))
    c = st.c.as_dict()
    assert c["unions"] == g.m_directed
    assert c["parent_reads"] > 0
    assert c["hooks"] == g.n - num_components(cc_labels(g.n, g.src, g.dst))
    assert c["total_path_length"] >= c["max_path_length"]


def test_tpl_orders_variants():
    """FindCompress keeps trees shallower than FindNaive on a path-heavy
    input — the TPL signal the paper's §4.1.1 analysis rests on."""
    g = gen.path_graph(400)
    e = _edges(g)
    _, naive = run_components(g.n, e, UFSpec("uf-async", "naive"))
    _, comp = run_components(g.n, e, UFSpec("uf-async", "compress"))
    assert comp.c.as_dict()["total_path_length"] <= naive.c.as_dict()["total_path_length"]


def test_canonical_roots_min_id():
    """Min-based variants converge to min-id roots even pre-canonicalization."""
    g = GRAPHS["multi"]
    labels, _ = run_components(g.n, _edges(g), UFSpec("uf-rem-cas", "naive", "halve-one"))
    assert np.array_equal(labels, canonicalize(labels))


def test_jtb_random_roots_canonicalize():
    g = GRAPHS["multi"]
    truth = cc_labels(g.n, g.src, g.dst)
    labels, _ = run_components(g.n, _edges(g), UFSpec("uf-jtb", "two-try"))
    assert same_partition(labels, truth)


def test_empty_edge_list():
    labels, st = run_components(7, np.empty((0, 2), np.int64), UFSpec("uf-async", "naive"))
    assert np.array_equal(labels, np.arange(7))


BAD_EDGES = {
    "negative": [[0, -1]],
    "too-large": [[0, 3]],
    "float": [[0.0, 1.9]],
}


@pytest.mark.parametrize("case", sorted(BAD_EDGES))
def test_run_components_rejects_bad_ids(case):
    """A negative id would wrap through list indexing into a wrong partition."""
    with pytest.raises(ValueError):
        run_components(3, np.array(BAD_EDGES[case]), UFSpec())


@pytest.mark.parametrize("n", [0, 3])
def test_run_components_empty(n):
    """Empty edge arrays of any dtype are valid, including on n = 0."""
    labels, st = run_components(n, np.empty((0, 2)), UFSpec())
    assert labels.tolist() == list(range(n))
    assert st.c.as_dict()["unions"] == 0


def _gen0_collections(fn) -> int:
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    fn()
    return gc.get_stats()[0]["collections"] - before


@pytest.mark.parametrize("path", ["run_components", "process_batch"])
def test_batch_builds_no_object_per_pair(path):
    """A batch reaches the kernel loop as flat id lists: 100k pairs run at
    most a few gen-0 collections, where one tracked object per pair would
    run about k / threshold0 (~140) of them."""
    assert gc.isenabled()
    k, n = 100_000, 1 << 14
    assert k // gc.get_threshold()[0] >= 50  # the guard can see a per-pair object
    edges = np.random.default_rng(5).integers(0, n, size=(k, 2))
    spec = UFSpec("uf-rem-cas", "naive", "split-one")
    if path == "run_components":
        runs = _gen0_collections(lambda: run_components(n, edges, spec))
    else:
        s = StreamingConnectIt(n, spec)
        runs = _gen0_collections(lambda: s.process_batch(edges, edges[::-1]))
    assert runs <= 3
