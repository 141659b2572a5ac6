"""Exact outputs of the BFS and LDD dataflow kernels, pinned by SHA-256 digest.

Each digest covers the kernel's rows sorted by ``v`` (as int64) plus its round
count, so any change to a BFS parent, a distance, an LDD center or tie-break,
or a round count shows. The digests were captured from the earlier
DataFrame-resident kernels (``tree``/``labels`` as Spark DataFrames, no ``n``
argument to ``bfs_tree``); the helpers below accept both forms, so the file
re-checks either implementation.
"""
import hashlib
import inspect

import numpy as np
import pytest

from repro.dataflow.bfs import bfs_tree
from repro.dataflow.ldd import ldd_labels
from repro.graphs import generators as gen
from repro.graphs import suite

GRAPHS = {
    "grid": lambda: gen.grid(6, 9),
    "RO": lambda: suite.get("RO", "test"),
    "CW": lambda: suite.get("CW", "test"),
    "path120": lambda: gen.path_graph(120),
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
