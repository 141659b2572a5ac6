"""Simulated shared-memory concurrent union-find (paper §3.3.1, Appendix D).

The paper's algorithms are written against a shared parents array with atomic
compare-and-swap. This package reproduces them as deterministic executions of
the *same code paths* over a parents array kept as a plain Python list for the
life of a :class:`UFState`, with a modelled CAS and exact instrumentation
(parent reads/writes, CAS attempts/failures, total/max path length). The
unit of work of a union or a query is one batch: ``make_union`` builds
``union(pairs)`` and ``finds.make_connected`` builds ``connected(pairs)``, each
one loop over its pairs that adds its counts up in local variables and adds
them to the counters once per call; finds and splices stay per-element and
count the same way. Numpy arrays appear only at the edges (``run_components``
input and forest, ``UFState.compress_all`` output). Vertex ids are validated once per
batch at that boundary (``core.as_batches``: one range check, which covers a
streaming batch's updates and queries together), and a batch reaches the loop as two
flat int lists zipped into pairs (``core.id_pairs``): a Python object per
pair would set off CPython's cyclic garbage collector every ~700 pairs. Scheduling
nondeterminism is exercised in tests by permuting the operation order — the
observable effect of interleavings for these linearizably-monotone algorithms.
"""
from repro.unionfind.core import UFSpec, UFState, Counters, run_components  # noqa: F401
from repro.unionfind.variants import make_union, VARIANTS, FINDS, SPLICES  # noqa: F401
