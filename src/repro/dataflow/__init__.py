"""Frontier kernels over a Spark edgeMap: BFS and low-diameter decomposition."""
