"""Check the layer-coverage record and that every count repeats exactly for a fixed seed.

Runs each workload's traced run twice with the same seed and checks that:

- every count metric is identical across the two runs;
- ``static-bfs-sv`` makes no union-find calls;
- ``static-kout-uf`` runs no dataflow or min-based rounds;
- ``stream-b100`` starts no Spark context, so runs no Spark jobs.

Usage, from the repository root (about five minutes on 4 cores):

    python3 perfbench/verify_counts.py [--seed 1]
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = (
    "cc_spark_jobs", "graphs.df_calls", "sampling.spark_jobs", "sampling.edges_processed",
    "dataflow.rounds", "dataflow.spark_jobs", "minbased.rounds", "minbased.spark_jobs",
    "framework.finish_edges", "framework.contracted_n", "unionfind.calls", "unionfind.edges",
    "unionfind.hooks", "unionfind.parent_reads", "unionfind.parent_writes", "unionfind.tpl",
    "unionfind.mpl", "streaming.hooks", "streaming.parent_reads_per_update", "streaming.tpl_per_find",
)
BYPASS = {
    "static-kout-uf": ("dataflow.rounds", "minbased.rounds"),
    "static-bfs-sv": ("unionfind.calls",),
}


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "10", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip().splitlines()
    result = json.loads(out[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} operations failed")
    return {k: v["value"] for k, v in result["metrics"].items()}, json.loads(out[-2])["fingerprint"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = []
    for workload in ("static-kout-uf", "static-bfs-sv", "stream-b100"):
        (a, fp), (b, _) = (traced_run(workload, args.seed) for _ in range(2))
        problems += [f"{workload}: {k} {a[k]} then {b[k]}" for k in COUNTS if a[k] != b[k]]
        problems += [f"{workload}: {k} = {a[k]}, expected 0" for k in BYPASS.get(workload, ()) if a[k] != 0]
        if workload == "stream-b100" and "spark" in fp:
            problems.append("stream-b100 started a Spark context")
        print(workload, {k: a[k] for k in COUNTS if a[k]})
    print("\n".join(problems) or "every count repeated exactly and every bypass held")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
