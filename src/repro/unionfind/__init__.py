"""Simulated shared-memory concurrent union-find (paper §3.3.1, Appendix D).

The option space, variant × find × splice, and the paper's recommended
option per variant (§4.1) live in one place, :class:`UFSpec`, which checks
a spec when it is built; ``variants.valid_specs()`` lists the combinations
it accepts.

The paper's algorithms are written against a shared parents array with
atomic compare-and-swap. This package reproduces them as deterministic sequential
executions over a parents array kept as a plain Python list for the life of a
:class:`UFState`, with exact instrumentation (parent reads/writes, CAS
attempts, total/max path length). Each CAS is counted as one attempt and,
run sequentially, succeeds on it: no CAS failure or retry is simulated, and
``cas_failures`` is reported as 0. The unit of work of a union or a query is
one batch: ``make_union`` builds ``union(pairs)`` and
``finds.make_connected`` builds ``connected(pairs)``, each
one loop over its pairs that adds its counts up in local variables and adds
them to the counters once per call; finds and splices stay per-element and
count the same way. Numpy arrays appear only at the edges (``run_components``
input and forest, ``UFState.compress_all`` output). Vertex ids are validated once per
array at that boundary (``core.as_batch``: one range check per array; a
streaming batch checks its updates and its queries before it applies
either), and a batch reaches the loop as two
flat int lists zipped into pairs (``core.id_pairs``): a Python object per
pair would set off CPython's cyclic garbage collector every ~700 pairs. Scheduling
nondeterminism is exercised in tests by permuting the operation order — the
observable effect of interleavings for these linearizably-monotone algorithms.
"""
from repro.unionfind.core import (  # noqa: F401
    FIND_OPTIONS, SPLICE_OPTIONS, VARIANTS, Counters, UFSpec, UFState, full_shortcut, run_components,
)
from repro.unionfind.variants import make_union  # noqa: F401
