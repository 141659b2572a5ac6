"""Union-find finish methods: partitioned Spark execution + driver merge.

The dataflow realization of the paper's concurrent union-find finish phase
(repro hint: *union-find style linking across partitions*):

1. Edges are repartitioned across Spark tasks; each task runs the chosen
   union-find variant over its local edges (``mapInPandas``), seeded with the
   sampled labeling, and emits only the edges that performed successful hooks
   (≤ n−1 per partition — a local spanning forest).
2. The driver runs the *same* union-find variant over the union of the
   per-partition hook edges, which merges components across partitions.

This is exactly the two-level structure of a work-stealing shared-memory
union-find: local linking plus cross-boundary merge. The driver-only finish
calls ``run_components`` directly, through this module's name for it.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.unionfind import UFSpec, UFState, run_components


def uf_components_spark(
    spark: SparkSession,
    edges_df: DataFrame,
    n: int,
    spec: UFSpec,
    init_labels: np.ndarray | None = None,
    skip_label: int | None = None,
    record_forest: bool = False,
    num_partitions: int = 8,
) -> tuple[np.ndarray, UFState]:
    """Partitioned union-find: local UF per edge partition, driver merge."""
    init = None if init_labels is None else np.asarray(init_labels, dtype=np.int64)
    spec_tuple = (spec.variant, spec.find, spec.splice)

    def local_uf(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.unionfind import UFSpec as _Spec
        from repro.unionfind import run_components as _run

        parts = [b[["src", "dst"]].to_numpy(dtype=np.int64) for b in batches]
        if not parts:
            return
        edges = np.concatenate(parts)
        _, st = _run(
            n,
            edges,
            _Spec(*spec_tuple),
            labels=init,
            skip_label=skip_label,
            record_forest=True,
        )
        hooks = list(st.forest.values())
        if hooks:
            yield pd.DataFrame(hooks, columns=["src", "dst"])

    hooks_pdf = (
        edges_df.repartition(num_partitions)
        .mapInPandas(local_uf, "src long, dst long")
        .toPandas()
    )
    hook_edges = hooks_pdf.to_numpy(dtype=np.int64) if len(hooks_pdf) else np.empty((0, 2), np.int64)
    # Cross-partition merge: the union of local forests carries exactly the
    # connectivity each partition proved, so one more UF pass links them.
    return run_components(
        n, hook_edges, spec, labels=init, skip_label=skip_label, record_forest=record_forest
    )
