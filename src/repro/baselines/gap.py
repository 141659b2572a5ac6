"""GAP Benchmark Suite comparators [12]: Shiloach-Vishkin and Afforest [104].

Both are ConnectIt configurations. GAP-SV is the unsampled Shiloach-Vishkin
finish on the dataflow substrate, ``connectivity(none, sv)``. GAP-Afforest is
the Sutton et al. algorithm: kout-afforest sampling (first k neighbors, no
randomness) followed by a UF-Rem-CAS finish that skips the most frequent
component on the driver, ``connectivity(kout, uf-rem-cas)`` with the afforest
variant.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.framework import connectivity
from repro.graphs.generators import Graph


def gap_sv(spark: SparkSession, g: Graph) -> tuple[np.ndarray, dict]:
    return connectivity(spark, g, "none", "sv")


def gap_afforest(spark: SparkSession, g: Graph) -> tuple[np.ndarray, dict]:
    return connectivity(spark, g, "kout", "uf-rem-cas", sampling_opts={"variant": "afforest"})
