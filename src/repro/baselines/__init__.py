"""Re-implemented comparator systems from the paper's evaluation (§4.3, C.2.1).

Each baseline is built in the same substrate as the matching ConnectIt path
so ratios are meaningful: the dataflow baselines (BFSCC, WorkeffCC,
MultiStep) run as Spark iterations like the min-based finishes. GAP-SV,
GAP-Afforest and PatwaryRM are ConnectIt configurations, so they are no
modules here but entries of ``harness.tables.SYSTEMS``.
"""
