"""ConnectIt core: sampling methods, finish methods, the two-phase framework,
spanning forest, and batch-incremental streaming."""
