"""Compare two sets of benchmark results, flagging machine noise through the floor controls.

Each argument is a directory of result files that ``run.py`` wrote (a copy of
``.perfbench_work/results`` taken after running one commit). For every workload and
metric it prints the median and quartiles of each side. The ``primitives.*`` floor
controls run code that no change to the algorithms touches, so when their median
moves by more than ``FLOOR_DRIFT`` between the sides, the machine changed speed
and the comparison is flagged as noisy.

    python3 perfbench/compare.py parent-results/ change-results/
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

FLOOR = ("primitives.map_edges_s", "primitives.gather_edges_s", "primitives.driver_uf_s")
FLOOR_DRIFT = 0.05


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """{workload: {metric: values}} over every result file in ``directory``."""
    out: dict[str, dict[str, list[float]]] = {}
    for f in sorted(directory.glob("*.json")):
        rec = json.loads(f.read_text())
        per = out.setdefault(rec["fingerprint"]["workload"], {})
        for name, m in rec["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    parent, change = load(args.parent), load(args.change)
    noisy = False
    for workload in sorted(set(parent) & set(change)):
        print(workload)
        for name in sorted(set(parent[workload]) & set(change[workload])):
            a, b = parent[workload][name], change[workload][name]
            pm = statistics.median(a)
            delta = statistics.median(b) / pm - 1 if pm else 0.0
            print(f"  {name:36} {summary(a):44} -> {summary(b):44} {delta:+.1%}")
            if name in FLOOR and pm and abs(delta) > FLOOR_DRIFT:
                noisy = True
                print(f"  ! floor control {name} moved {delta:+.1%}: machine speed changed between the sides")
    print("machine noise flagged" if noisy else "floor controls steady")
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
