"""Exact outputs of the dataflow kernels, pinned by SHA-256 digest.

Each BFS/LDD digest covers the kernel's rows sorted by ``v`` (as int64) plus its
round count, so any change to a BFS parent, a distance, an LDD center or
tie-break, or a round count shows. The digests were captured from the earlier
DataFrame-resident kernels (``tree``/``labels`` as Spark DataFrames, no ``n``
argument to ``bfs_tree``); the helpers below accept both forms, so the file
re-checks either implementation.

Each min-based digest covers the finish's int64 label array plus its round
count; they were captured from the earlier Catalyst implementation (a parents
DataFrame joined and min-aggregated every round).
"""
import hashlib
import inspect

import numpy as np
import pytest

from repro.core.framework import _minbased_runner
from repro.dataflow.bfs import bfs_tree
from repro.dataflow.ldd import ldd_labels
from repro.graphs import generators as gen
from repro.graphs import suite

GRAPHS = {
    "grid": lambda: gen.grid(6, 9),
    "RO": lambda: suite.get("RO", "test"),
    "CW": lambda: suite.get("CW", "test"),
    "path120": lambda: gen.path_graph(120),
    "small": lambda: gen.disjoint_union("small", [gen.cycle(6), gen.path_graph(7), gen.star(5)]),
    "rmat80": lambda: gen.rmat(80, 320, seed=9),
    "path64": lambda: gen.path_graph(64),
}

BFS_GOLDENS = {
    ("grid", 0): "3a4527de36a63d42e92c4276cf163c104eea0c162dcf1a2eacb9328060b3c936",
    ("grid", 5): "3f775f4a355de020dcfb4bb35a03a004186955a9811b124d61d941918b445f3d",
    ("RO", 0): "1b0793d15646eaf4d512462453e4b32a3e1a111f81f70b057e93d3bbadeed733",
    ("CW", 0): "4926c6eb4e185d3ff443c0e808a6d55add28bf8c2be62f083b7a337ce19b8f83",
}

LDD_GOLDENS = {  # (graph, beta, seed, permute)
    ("grid", 0.4, 2, False): "b4b81646ab399667638f0f71cebec54695353c44e51d2187a9a543988ca5f679",
    ("grid", 0.3, 3, False): "2d1069ac1b120a6f18f90e4f244836f276de0f60eda0703be621de7762acc4f8",
    ("path120", 0.05, 4, False): "a1d8400483dc028a3fbc10f61678b102e10e2bf620c736308b5db2921148964c",
    ("path120", 0.9, 4, False): "0cf8b89be193f596cfe4e5bc0dc0018a698d77a0c2336cbedf4f53d020f7ca58",
    ("CW", 0.2, 0, False): "7266bb9ca9e48f45a9f89c4ef41a0ee74919fb299e2f226913ec68c3c578fe4f",
    ("CW", 0.2, 0, True): "71030eefd7102964c577f3ff892fb7fab4dd0f971193000de9f582a8b951ea83",
}


MINBASED_GOLDENS = {  # (graph, finish)
    ("small", "sv"): "d86c0d1d1a19f6c05d4dabb929e1d8fc4d89403c1036171b745fdc853583fbaf",
    ("small", "stergiou"): "c46317fb9d5e1c9ea2e36e2ed2fb85045c47bb3be198a38718c878062107e4ec",
    ("small", "labelprop"): "b0cee9d68b3082d81a2285a1ee836b280f9b3959a33e4ad4a1c4c63587cb5c50",
    ("small", "lt-cusa"): "c46317fb9d5e1c9ea2e36e2ed2fb85045c47bb3be198a38718c878062107e4ec",
    ("small", "lt-crsa"): "c46317fb9d5e1c9ea2e36e2ed2fb85045c47bb3be198a38718c878062107e4ec",
    ("small", "lt-pusa"): "c46317fb9d5e1c9ea2e36e2ed2fb85045c47bb3be198a38718c878062107e4ec",
    ("small", "lt-prsa"): "c46317fb9d5e1c9ea2e36e2ed2fb85045c47bb3be198a38718c878062107e4ec",
    ("small", "lt-pus"): "c46317fb9d5e1c9ea2e36e2ed2fb85045c47bb3be198a38718c878062107e4ec",
    ("small", "lt-prs"): "c46317fb9d5e1c9ea2e36e2ed2fb85045c47bb3be198a38718c878062107e4ec",
    ("small", "lt-eusa"): "c46317fb9d5e1c9ea2e36e2ed2fb85045c47bb3be198a38718c878062107e4ec",
    ("small", "lt-eus"): "7fe279cbb0d5a0c6d48d5f431cbb423a314fbb0f4282fb435d07e721d0da195b",
    ("small", "lt-cufa"): "d86c0d1d1a19f6c05d4dabb929e1d8fc4d89403c1036171b745fdc853583fbaf",
    ("small", "lt-crfa"): "d86c0d1d1a19f6c05d4dabb929e1d8fc4d89403c1036171b745fdc853583fbaf",
    ("small", "lt-pufa"): "d86c0d1d1a19f6c05d4dabb929e1d8fc4d89403c1036171b745fdc853583fbaf",
    ("small", "lt-prfa"): "d86c0d1d1a19f6c05d4dabb929e1d8fc4d89403c1036171b745fdc853583fbaf",
    ("small", "lt-puf"): "d86c0d1d1a19f6c05d4dabb929e1d8fc4d89403c1036171b745fdc853583fbaf",
    ("small", "lt-prf"): "d86c0d1d1a19f6c05d4dabb929e1d8fc4d89403c1036171b745fdc853583fbaf",
    ("small", "lt-eufa"): "d86c0d1d1a19f6c05d4dabb929e1d8fc4d89403c1036171b745fdc853583fbaf",
    ("small", "lt-euf"): "d86c0d1d1a19f6c05d4dabb929e1d8fc4d89403c1036171b745fdc853583fbaf",
    ("rmat80", "sv"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "stergiou"): "bc09bc49714b37df4bbc28b4e6c73aeb9c951bcb3c7de7fbc490a3ad47ce1ac6",
    ("rmat80", "labelprop"): "bc09bc49714b37df4bbc28b4e6c73aeb9c951bcb3c7de7fbc490a3ad47ce1ac6",
    ("rmat80", "lt-cusa"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-crsa"): "bc09bc49714b37df4bbc28b4e6c73aeb9c951bcb3c7de7fbc490a3ad47ce1ac6",
    ("rmat80", "lt-pusa"): "bc09bc49714b37df4bbc28b4e6c73aeb9c951bcb3c7de7fbc490a3ad47ce1ac6",
    ("rmat80", "lt-prsa"): "bc09bc49714b37df4bbc28b4e6c73aeb9c951bcb3c7de7fbc490a3ad47ce1ac6",
    ("rmat80", "lt-pus"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-prs"): "bc09bc49714b37df4bbc28b4e6c73aeb9c951bcb3c7de7fbc490a3ad47ce1ac6",
    ("rmat80", "lt-eusa"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-eus"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-cufa"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-crfa"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-pufa"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-prfa"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-puf"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-prf"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-eufa"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("rmat80", "lt-euf"): "b95781f05b038c88b9d6c921b0d83551c949c87b204017a07eb88fe82e98eb59",
    ("path64", "sv"): "dd52ad2de6bc8ce48d11c800383463a3d1103abdb3f2499cf2aa79714105327b",
    ("path64", "stergiou"): "ce68819da283819c623d63f009133799cff72d8f1a8abacc9698c75a59070b94",
    ("path64", "labelprop"): "ac1a2127ce81445c9df20834ef896928b6eff1d3e3ab020e5ce24ac27b8c2eff",
    ("path64", "lt-cusa"): "ce68819da283819c623d63f009133799cff72d8f1a8abacc9698c75a59070b94",
    ("path64", "lt-crsa"): "ce68819da283819c623d63f009133799cff72d8f1a8abacc9698c75a59070b94",
    ("path64", "lt-pusa"): "ce68819da283819c623d63f009133799cff72d8f1a8abacc9698c75a59070b94",
    ("path64", "lt-prsa"): "ce68819da283819c623d63f009133799cff72d8f1a8abacc9698c75a59070b94",
    ("path64", "lt-pus"): "ce68819da283819c623d63f009133799cff72d8f1a8abacc9698c75a59070b94",
    ("path64", "lt-prs"): "ce68819da283819c623d63f009133799cff72d8f1a8abacc9698c75a59070b94",
    ("path64", "lt-eusa"): "ce68819da283819c623d63f009133799cff72d8f1a8abacc9698c75a59070b94",
    ("path64", "lt-eus"): "ce68819da283819c623d63f009133799cff72d8f1a8abacc9698c75a59070b94",
    ("path64", "lt-cufa"): "dd52ad2de6bc8ce48d11c800383463a3d1103abdb3f2499cf2aa79714105327b",
    ("path64", "lt-crfa"): "dd52ad2de6bc8ce48d11c800383463a3d1103abdb3f2499cf2aa79714105327b",
    ("path64", "lt-pufa"): "dd52ad2de6bc8ce48d11c800383463a3d1103abdb3f2499cf2aa79714105327b",
    ("path64", "lt-prfa"): "dd52ad2de6bc8ce48d11c800383463a3d1103abdb3f2499cf2aa79714105327b",
    ("path64", "lt-puf"): "dd52ad2de6bc8ce48d11c800383463a3d1103abdb3f2499cf2aa79714105327b",
    ("path64", "lt-prf"): "dd52ad2de6bc8ce48d11c800383463a3d1103abdb3f2499cf2aa79714105327b",
    ("path64", "lt-eufa"): "dd52ad2de6bc8ce48d11c800383463a3d1103abdb3f2499cf2aa79714105327b",
    ("path64", "lt-euf"): "dd52ad2de6bc8ce48d11c800383463a3d1103abdb3f2499cf2aa79714105327b",
}


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


def _digest(frame, cols, rounds) -> str:
    if hasattr(frame, "toPandas"):
        frame = frame.toPandas()
    rows = frame[cols].to_numpy(dtype=np.int64)
    rows = rows[np.argsort(rows[:, 0])]
    h = hashlib.sha256(rows.tobytes())
    h.update(str(rounds).encode())
    return h.hexdigest()


def _bfs(spark, g, source):
    if "n" in inspect.signature(bfs_tree).parameters:
        return bfs_tree(spark, g.df(spark), g.n, source)
    return bfs_tree(spark, g.df(spark), source)


@pytest.mark.parametrize("key", list(BFS_GOLDENS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_bfs_tree_golden(spark, graphs, key):
    name, source = key
    tree, rounds = _bfs(spark, graphs[name], source)
    assert _digest(tree, ["v", "parent", "dist"], rounds) == BFS_GOLDENS[key]


@pytest.mark.parametrize("key", list(LDD_GOLDENS), ids=lambda k: "-".join(map(str, k)))
def test_ldd_labels_golden(spark, graphs, key):
    name, beta, seed, permute = key
    g = graphs[name]
    labels, rounds = ldd_labels(spark, g.df(spark), g.n, beta=beta, seed=seed, permute=permute)
    assert _digest(labels, ["v", "center", "parent"], rounds) == LDD_GOLDENS[key]


@pytest.mark.parametrize("key", list(MINBASED_GOLDENS), ids=lambda k: f"{k[0]}-{k[1]}")
def test_minbased_labels_golden(spark, graphs, key):
    name, finish = key
    g = graphs[name]
    labels, rounds = _minbased_runner(finish)(spark, g.df(spark), g.n)
    h = hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes())
    h.update(str(rounds).encode())
    assert h.hexdigest() == MINBASED_GOLDENS[key]
