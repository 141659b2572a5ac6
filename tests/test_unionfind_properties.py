"""Property-based tests (hypothesis) for the union-find substrate."""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.streaming import StreamingConnectIt
from repro.graphs.ground_truth import cc_labels, same_partition
from repro.unionfind import UFSpec, UFState, make_union, run_components
from repro.unionfind.finds import make_connected
from repro.unionfind.variants import valid_specs

edge_lists = st.lists(
    st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=0, max_size=120
)

SPECS = [
    UFSpec("uf-rem-cas", "naive", "split-one"),
    UFSpec("uf-rem-cas", "halve", "splice"),
    UFSpec("uf-rem-lock", "split", "halve-one"),
    UFSpec("uf-async", "compress"),
    UFSpec("uf-hooks", "halve"),
    UFSpec("uf-early", "naive"),
    UFSpec("uf-jtb", "two-try"),
]


def _sym(pairs):
    e = np.array([(u, v) for u, v in pairs if u != v], dtype=np.int64).reshape(-1, 2)
    return np.concatenate([e, e[:, ::-1]]) if len(e) else e


@given(pairs=edge_lists, data=st.data())
@settings(max_examples=60, deadline=None)
def test_random_graphs_all_specs(pairs, data):
    e = _sym(pairs)
    truth = cc_labels(30, e[:, 0], e[:, 1]) if len(e) else np.arange(30)
    spec = data.draw(st.sampled_from(SPECS))
    labels, _ = run_components(30, e, spec)
    assert same_partition(labels, truth)


@given(pairs=edge_lists, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_order_invariance(pairs, seed):
    """Any operation order linearizes to the same partition."""
    e = _sym(pairs)
    if len(e) == 0:
        return
    rng = np.random.default_rng(seed)
    a, _ = run_components(30, e, UFSpec("uf-rem-cas", "naive", "splice"))
    b, _ = run_components(30, e[rng.permutation(len(e))], UFSpec("uf-rem-cas", "naive", "splice"))
    assert same_partition(a, b)


@given(pairs=edge_lists)
@settings(max_examples=40, deadline=None)
def test_monotone_prefix(pairs):
    """Monotonicity (Definition 3.2): applying a prefix of the operations
    yields a coarsening chain — components only ever merge."""
    e = _sym(pairs)
    if len(e) < 4:
        return
    half = len(e) // 2
    l1, _ = run_components(30, e[:half], UFSpec("uf-async", "naive"))
    l2, _ = run_components(30, e, UFSpec("uf-async", "naive"))
    # every component of l1 is contained in one component of l2
    for lab in np.unique(l1):
        members = np.flatnonzero(l1 == lab)
        assert len(np.unique(l2[members])) == 1


def _cuts(data, length: int) -> list[int]:
    return sorted(data.draw(st.lists(st.integers(0, length), max_size=6)))


@given(pairs=edge_lists, data=st.data())
@settings(max_examples=80, deadline=None)
def test_batch_split_invariance(pairs, data):
    """A union call is one loop over its pairs: splitting the same update
    sequence into batches leaves the hooked pairs, the forest, the labels and
    every counter as the one-batch run has them."""
    e = _sym(pairs).tolist()
    spec = data.draw(st.sampled_from(valid_specs()))
    cuts = _cuts(data, len(e))
    one, many = UFState(30), UFState(30)
    hooked = make_union(spec, one, record_forest=True)(e)
    union = make_union(spec, many, record_forest=True)
    split = []
    for lo, hi in zip([0, *cuts], [*cuts, len(e)]):
        split += [lo + i for i in union(e[lo:hi])]
    assert split == hooked
    assert many.c.as_dict() == one.c.as_dict()
    assert many.forest == one.forest
    assert many.compress_all().tolist() == one.compress_all().tolist()


@given(pairs=edge_lists, queries=edge_lists, data=st.data())
@settings(max_examples=80, deadline=None)
def test_iterator_input_matches_list_input(pairs, queries, data):
    """``union`` and ``connected`` take any iterable of pairs: a ``zip`` over
    two flat id lists gives the hooked indices, forest, labels, answers and
    every counter that the list of pairs gives, including for an empty
    iterator, from which the counters count no union and no find."""
    spec = data.draw(st.sampled_from(valid_specs()))
    by_list, by_zip = UFState(30), UFState(30)
    hooked = make_union(spec, by_list, record_forest=True)(pairs)
    union = make_union(spec, by_zip, record_forest=True)
    assert union(iter(())) == []
    assert by_zip.c.as_dict() == UFState(30).c.as_dict()
    assert union(zip([u for u, _ in pairs], [v for _, v in pairs])) == hooked
    assert by_zip.c.as_dict() == by_list.c.as_dict()
    assert by_zip.forest == by_list.forest
    answers = make_connected(by_list)(queries)
    connected = make_connected(by_zip)
    assert connected(iter(())) == []
    assert connected(zip([u for u, _ in queries], [v for _, v in queries])) == answers
    assert by_zip.c.as_dict() == by_list.c.as_dict()
    assert by_zip.compress_all().tolist() == by_list.compress_all().tolist()


STREAM_ALGOS = [
    UFSpec("uf-rem-cas", "naive", "split-one"),
    UFSpec("uf-rem-lock", "compress", "halve-one"),
    UFSpec("uf-rem-cas", "naive", "splice"),
    UFSpec("uf-async", "split"),
    UFSpec("uf-hooks", "naive"),
    UFSpec("uf-early", "halve"),
    UFSpec("uf-jtb", "two-try"),
    "sv",
    "lt-root",
]


@given(pairs=edge_lists, queries=edge_lists, data=st.data())
@settings(max_examples=80, deadline=None)
def test_streaming_matches_replay(pairs, queries, data):
    """At every batch boundary the answers equal an independent replay: a
    plain label array, relabelled on each insert that joins two labels."""
    algo = data.draw(st.sampled_from(STREAM_ALGOS))
    updates = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    asked = np.array(queries, dtype=np.int64).reshape(-1, 2)
    ucuts = _cuts(data, len(updates))
    qcuts = sorted(data.draw(st.lists(st.integers(0, len(asked)), min_size=len(ucuts), max_size=len(ucuts))))
    s = StreamingConnectIt(30, algo)
    label = list(range(30))
    for ub, qb in zip(np.split(updates, ucuts), np.split(asked, qcuts)):
        for u, v in ub.tolist():
            a, b = label[u], label[v]
            if a != b:
                label = [a if x == b else x for x in label]
        assert s.process_batch(ub, qb).tolist() == [label[u] == label[v] for u, v in qb.tolist()]
    assert same_partition(s.labels(), np.array(label))
