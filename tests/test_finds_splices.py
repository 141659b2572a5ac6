"""Unit tests for find and splice primitives over hand-built trees."""
import numpy as np
import pytest

from repro.unionfind.core import UFState
from repro.unionfind.finds import make_connected, make_find
from repro.unionfind.splices import make_splice


def chain_state(n=8):
    """Path tree: i -> i-1, root 0."""
    st = UFState(n)
    st.parent[1:] = np.arange(n - 1)
    return st


@pytest.mark.parametrize("name", ["naive", "split", "halve", "compress", "two-try"])
def test_find_returns_root(name):
    st = chain_state()
    f = make_find(name, st)
    assert f(7) == 0
    assert f(0) == 0


def test_find_naive_no_writes():
    st = chain_state()
    make_find("naive", st)(7)
    assert st.c.as_dict()["parent_writes"] == 0
    assert np.array_equal(st.parent, chain_state().parent)


def test_find_compress_flattens():
    st = chain_state()
    make_find("compress", st)(7)
    assert (np.asarray(st.parent) == 0).all() or (np.asarray(st.parent[1:]) == 0).all()


def test_find_split_shortens():
    st = chain_state()
    make_find("split", st)(7)
    # path splitting: every other pointer jumps to grandparent
    assert st.parent[7] < 6


def test_find_halve_shortens():
    st = chain_state()
    make_find("halve", st)(7)
    assert st.parent[7] < 6


def test_find_accounts_path_length():
    st = chain_state()
    make_find("naive", st)(7)
    c = st.c.as_dict()
    assert c["total_path_length"] == 7
    assert c["max_path_length"] == 7
    assert c["finds"] == 1


def test_splice_split_one():
    st = chain_state()
    sp = make_splice("split-one", st)
    new_u = sp(7, 3)
    assert new_u == 6  # returns old parent
    assert st.parent[7] == 5  # one split applied


def test_splice_halve_one():
    st = chain_state()
    sp = make_splice("halve-one", st)
    new_u = sp(7, 3)
    assert new_u == 5  # returns grandparent
    assert st.parent[7] == 5


def test_splice_splice_links_to_other_tree():
    st = UFState(6)
    st.parent[:] = [0, 0, 1, 3, 3, 4]  # two trees: {0,1,2}, {3,4,5}
    sp = make_splice("splice", st)
    old = sp(2, 5)
    assert old == 1
    assert st.parent[2] == st.parent[5]  # spliced onto the other path


def test_root_find_is_noop():
    st = UFState(4)
    for name in ("naive", "split", "halve", "compress"):
        assert make_find(name, st)(2) == 2


def test_counters_cas_accounting():
    st = chain_state()
    make_find("split", st)(7)
    c = st.c.as_dict()
    assert c["cas_attempts"] >= 1
    assert c["cas_failures"] == 0  # sequential: every CAS succeeds


def _root_and_hops(P, u):
    """Reference naive find: the root of u and the parent hops to reach it."""
    hops = 0
    while P[u] != u:
        u = P[u]
        hops += 1
    return u, hops


@pytest.mark.parametrize("seed", range(4))
def test_connected_matches_two_naive_finds(seed):
    """``connected`` answers and counts exactly as two naive finds per query,
    across calls of different sizes (MPL is a running maximum)."""
    rng = np.random.default_rng(seed)
    n = 300
    st = UFState(n)
    # a random forest with long paths: each vertex is a root or points a few ids down
    st.parent[:] = [i if i == 0 or rng.random() < 0.02 else int(rng.integers(max(0, i - 4), i)) for i in range(n)]
    before = list(st.parent)
    connected = make_connected(st)
    mpl = 0
    for k in (0, 1, 50, 7):
        pairs = rng.integers(0, n, size=(k, 2)).tolist()
        ref = [(_root_and_hops(before, u), _root_and_hops(before, v)) for u, v in pairs]
        hops = [h for (_, hu), (_, hv) in ref for h in (hu, hv)]
        c0 = st.c.as_dict()
        assert connected(pairs) == [ru == rv for (ru, _), (rv, _) in ref]
        c1 = st.c.as_dict()
        mpl = max([mpl, *hops])
        assert c1["finds"] - c0["finds"] == 2 * k
        assert c1["parent_reads"] - c0["parent_reads"] == sum(hops) + 2 * k
        assert c1["total_path_length"] - c0["total_path_length"] == sum(hops)
        assert c1["max_path_length"] == mpl
        assert c1["parent_writes"] == c1["cas_attempts"] == 0
    assert st.parent == before
