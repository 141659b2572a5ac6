"""PatwaryRM [84]: the lock-based concurrent Rem's algorithm, run standalone
over all edges (no sampling). The paper characterizes it as ConnectIt's
UF-Rem-Lock with SpliceAtomic, so it is that ConnectIt configuration."""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.framework import connectivity
from repro.graphs.generators import Graph
from repro.unionfind import UFSpec


def patwary_rm(spark: SparkSession, g: Graph) -> tuple[np.ndarray, dict]:
    return connectivity(spark, g, "none", "uf-rem-lock", uf_spec=UFSpec("uf-rem-lock", "naive", "splice"))
