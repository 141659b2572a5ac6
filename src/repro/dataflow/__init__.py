"""Frontier kernels over a Spark edgeMap: BFS and low-diameter decomposition."""
from repro.dataflow.bfs import bfs_tree  # noqa: F401
from repro.dataflow.ldd import ldd_labels  # noqa: F401
