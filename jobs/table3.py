"""spark-submit entrypoint reproducing paper Table 3 (see DESIGN.md index).

    python jobs/table3.py <scale> [minimal|reduced]

With no preset, every cell of ``table3`` runs. The presets cut the sweep:

- ``minimal``: none + k-out on all graphs, all algorithm families, no system
  baselines (the BFS/LDD columns of the full matrix are covered by the CW
  exhibit and by Tables 6/7's sampling costs). ``results/table3_test.md``
  is ``python jobs/table3.py test minimal``.
- ``reduced``: every shape-relevant cell, skipping the cells whose cost is
  pure dataflow-round latency already reported elsewhere (BFS sampling on
  RO appears in Table 6; system baselines run on four representative
  graphs).
"""
import functools
import sys

from _common import run_table
from repro.harness.tables import table3

PRESETS = {
    "minimal": dict(minbased_nosample_graphs=(), schemes=("none", "kout"), include_systems=False),
    "reduced": dict(minbased_nosample_graphs=("LJ", "CO", "CW", "RO"), systems_graphs=("LJ", "CO", "CW")),
}

if __name__ == "__main__":
    if len(sys.argv) <= 2:
        run_table(table3, "table3")
    elif sys.argv[2] not in PRESETS:
        sys.exit(f"unknown Table 3 preset {sys.argv[2]!r}; options: {sorted(PRESETS)}")
    else:
        run_table(functools.partial(table3, **PRESETS[sys.argv[2]]), "table3", shuffle_partitions=8)
