"""Repository benchmark: ConnectIt connectivity and streaming, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload static-kout-uf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Workloads (each a closed loop: one caller waits for every operation before the next):

- ``static-kout-uf``: ``connectivity(kout hybrid k=2, uf-rem-cas{naive,split-one})`` on
  an HL12-mini web graph. Runs no dataflow or min-based rounds.
- ``static-bfs-sv``: ``connectivity(bfs, sv)`` on an LJ-mini graph. Bound by Spark
  round overhead; makes no union-find calls.
- ``stream-b100``: ``StreamingConnectIt(uf-rem-cas{naive,split-one})`` over an RMAT
  stream of ~1.0 M edges in batches of 100 updates plus 100 queries. No Spark.

Set-up starts the Spark session (static workloads), then runs ``SETUP_PASSES``
set-up passes, each building the inputs from the seed and computing the oracle,
then warms up: ``WARMUP_OPS`` operations (500 batches on the stream).

``--trace 0`` measures untraced operations for ``--seconds`` and reports the
end-to-end metrics. A static op starts only if one of median length still ends in
time (at least one op runs); the stream runs batches until the deadline, and at
least one whole pass. ``setup_s`` is the time from process start to the session
being ready, plus the median set-up pass, plus the warm-up; ``op_p50_ms`` is the
median operation time and ``edges_per_s`` the input edges per second of operation
time. Both are scaled by a host-speed probe: on ``static-bfs-sv`` by fixed
Spark work timed before and after the operations (``SparkProbe``), on
``stream-b100`` by fixed driver work timed every 50 batches (``HostProbe``). The
raw figures go to the result file and, from ``--trace 1``, to ``cc_p50_s``,
``batch_p50_ms`` and ``stream_updates_per_s``.

``--trace 1`` alternates untraced and traced operations (whole passes on the
stream), reports the per-layer metrics from the traced ones, the raw untraced
figures under the names ``cc_p50_s``, ``batch_p50_ms`` and so on, and the floor
controls; it writes the spans to the result file in ``.perfbench_work/results``.

Every operation is checked, outside its timed region, against an oracle that
shares no code with ``repro`` (see ``oracles.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import time

T_PROCESS = time.perf_counter()  # set-up is timed from here, before the heavy imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import substrate  # noqa: E402
from spans import Tracer, instrumented, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("static-kout-uf", "static-bfs-sv", "stream-b100")
SETUP_PASSES = 3
WARMUP_OPS = 2  # static operations run once, after the set-up passes
WARMUP_BATCHES = 500
PROBE_EVERY = 50  # stream batches between host-speed probes
PRIMITIVE_REPS = 3


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


class Checks:
    """Every checked operation; an exception or a wrong output is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


class HostProbe:
    """Fixed driver-side work, timed outside every timed region.

    This host's speed swings by up to 1.7x over minutes with the load of other
    tenants, and every measured time swings with it. The probe is 4000 random scalar
    reads of a 2**17-element int64 array, the access path of the streaming
    union-find; it calls nothing in ``repro``, so no program change moves it, and
    ``measure`` keeps the fastest of three runs. Dividing a time by the probe time
    measured just before it removes most of the swing from the stream's batches
    (IQR/median of ``op_p50_ms`` over ten runs on a 4-core shared host: 0.03 scaled
    against 0.13 raw, and up to 0.42 raw when the host is busier). It does not track
    the static workloads, whose time goes to the Spark JVM (``SparkProbe`` serves
    ``static-bfs-sv``), nor set-up: scaling widened their spreads.
    """

    REF_S = 0.5e-3  # times are scaled to a host where the probe takes this long

    def __init__(self) -> None:
        self.array = np.arange(1 << 17, dtype=np.int64)
        self.idx = np.random.default_rng(0).integers(0, 1 << 17, 4000).tolist()
        self.samples: list[float] = []

    def measure(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            total = 0
            for i in self.idx:
                total += self.array[i]
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best

    def scale(self, seconds: float, probe_s: float) -> float:
        """``seconds`` on a host where the probe takes ``REF_S``."""
        return seconds * self.REF_S / probe_s


class SparkProbe:
    """Fixed Spark work, timed outside every timed region: the probe of ``static-bfs-sv``.

    The ``static-bfs-sv`` operation spends its time in about 100 small Spark jobs,
    and its times follow the host's speed and the driver JVM's warm-up. The probe
    runs ``ROUNDS`` frontier rounds of a BFS-like dataflow (join, min aggregation,
    ``localCheckpoint``, ``isEmpty``) on a fixed 500-vertex table, with PySpark
    alone, so no program change moves it. It runs ``REPS`` times before the timed
    operations and ``REPS`` times after them, and times are divided by the median
    of those runs. On a 4-core shared host the IQR/median of ``op_p50_ms`` over ten
    seeds was 0.05 scaled against 0.19 raw, and 0.15 against 0.79 while the host
    ran up to 2.5x slower than usual.
    """

    REF_S = 0.65  # times are scaled to a host where one probe run takes this long
    ROUNDS = 3
    REPS = 3

    def __init__(self, spark) -> None:
        from pyspark.sql import functions as F

        self.spark, self.F = spark, F
        ids = F.col("id")
        self.edges = spark.range(4000).select((ids % 500).alias("src"), (ids * 7 % 500).alias("dst")).localCheckpoint()
        self.samples: list[float] = []
        self._run()  # untimed, so the first timed run does not plan the queries

    def _run(self) -> float:
        F, edges = self.F, self.edges
        t0 = time.perf_counter()
        frontier = self.spark.range(50).select(F.col("id").alias("v")).localCheckpoint()
        for _ in range(self.ROUNDS):
            cand = edges.join(frontier, edges.src == frontier.v).groupBy(edges.dst.alias("v")).agg(F.min("src"))
            cand = cand.localCheckpoint()
            cand.isEmpty()
            frontier = cand.select("v")
        return time.perf_counter() - t0

    def measure(self) -> None:
        self.samples += [self._run() for _ in range(self.REPS)]

    def scale(self, seconds: float) -> float:
        """``seconds`` on a host where one probe run takes ``REF_S``."""
        return seconds * self.REF_S / _median(self.samples)


class Static:
    """One static workload: a ``connectivity`` call per operation."""

    def __init__(self, name: str, seed: int, spark, checks: Checks):
        import inputs
        from repro.unionfind import UFSpec

        # Sampling runs with its defaults (kout: hybrid, k=2; both: seed 0), so the
        # workload seed changes the graph only, not where BFS starts.
        # Only static-bfs-sv is scaled by the Spark probe: with two busy processes
        # beside it, the kout op slowed about 1.2x and the probe 1.5x, so scaling
        # the kout op overcorrected.
        self.build, self.sampling, self.finish, self.probed = {
            "static-kout-uf": (inputs.web_graph, "kout", "uf-rem-cas", False),
            "static-bfs-sv": (inputs.lj_graph, "bfs", "sv", True),
        }[name]
        self.uf_spec = UFSpec("uf-rem-cas", "naive", "split-one")
        self.seed, self.spark, self.checks = seed, spark, checks

    def jobs(self) -> int:
        return substrate.spark_jobs(self.spark)

    def setup_pass(self) -> None:
        self.g = self.build(self.seed)
        half = self.g.src < self.g.dst
        self.comp = oracles.component_ids(self.g.n, self.g.src[half], self.g.dst[half])

    def warm_up(self) -> None:
        self.probe = SparkProbe(self.spark) if self.probed else None
        self.warm_s = 0.0
        for _ in range(WARMUP_OPS):
            if r := self.op():
                self.warm_s = r[0]

    def op(self, tracer=None, sampling=None, finish=None) -> tuple[float, int] | None:
        """One checked call; returns (seconds, Spark jobs), or None when it failed."""
        from repro.core.framework import connectivity

        span = tracer.span("op", "connectivity", new_op=True) if tracer else contextlib.nullcontext()
        j0 = self.jobs()
        t0 = time.perf_counter()
        try:
            with span:
                labels, _ = connectivity(
                    self.spark, self.g, sampling or self.sampling, finish or self.finish, uf_spec=self.uf_spec
                )
        except Exception:
            traceback.print_exc()
            self.checks.record(False)
            return None
        dt = time.perf_counter() - t0
        jobs = self.jobs() - j0
        return (dt, jobs) if self.checks.record(oracles.same_partition(labels, self.comp)) else None

    def _more(self, t_end: float, done: int, times: list[float], need: int = 1) -> bool:
        """Start another op only if one of median length still ends by ``t_end``."""
        est = _median(times) if times else self.warm_s
        return done < need or time.perf_counter() + est <= t_end

    def measure(self, seconds: float) -> dict:
        times, probe = [], self.probe
        if probe:
            probe.measure()
        t_end = time.perf_counter() + seconds
        attempts = 0
        while self._more(t_end, attempts, times):
            attempts += 1
            if r := self.op():
                times.append(r[0])
        if probe:
            probe.measure()
        scaled = [probe.scale(t) for t in times] if probe else times
        return {
            "op_p50_ms": _median(scaled) * 1e3,
            "edges_per_s": self.g.m * len(scaled) / sum(scaled) if scaled else 0.0,
            "op_p50_raw_ms": _median(times) * 1e3,
            "edges_per_raw_s": self.g.m * len(times) / sum(times) if times else 0.0,
            "op_s": times,
            "probe_ms": [p * 1e3 for p in probe.samples] if probe else [],
        }

    def measure_traced(self, seconds: float, tracer: Tracer) -> dict:
        plain, traced, jobs = [], [], []
        t_end = time.perf_counter() + seconds
        i = 0
        while self._more(t_end, i, plain + traced, need=2):
            if i % 2:
                with instrumented(tracer):
                    r = self.op(tracer)
                if r:
                    traced.append(r[0])
            elif r := self.op():
                plain.append(r[0])
                jobs.append(r[1])
            i += 1
        return {
            "cc_p50_s": _median(plain),
            "cc_spark_jobs": _median(jobs),
            "trace.overhead_frac": _median(traced) / _median(plain) - 1 if plain and traced else 0.0,
        } | self.primitives()

    def primitives(self) -> dict:
        """Floor controls on this graph: MapEdges, GatherEdges and the no-Spark driver union-find."""
        from repro.baselines.primitives import gather_edges, map_edges

        edges_df = self.g.df(self.spark)
        map_s = [map_edges(edges_df)[1] for _ in range(PRIMITIVE_REPS)]
        gather_s = [gather_edges(self.spark, edges_df, self.g.n)[1] for _ in range(PRIMITIVE_REPS)]
        uf_s = [r[0] for _ in range(PRIMITIVE_REPS) if (r := self.op(sampling="none", finish="uf-rem-cas"))]
        return {
            "primitives.map_edges_s": _median(map_s),
            "primitives.gather_edges_s": _median(gather_s),
            "primitives.driver_uf_s": _median(uf_s),
        }


class Streaming:
    """The streaming workload: one ``process_batch`` (updates plus queries) per operation."""

    def __init__(self, seed: int, checks: Checks):
        from repro.unionfind import UFSpec

        self.seed, self.checks, self.probe = seed, checks, HostProbe()
        self.uf_spec = UFSpec("uf-rem-cas", "naive", "split-one")

    def setup_pass(self) -> None:
        import inputs

        self.s = inputs.stream(self.seed)
        self.expected, self.roots = oracles.replay(self.s.n, self.s.updates, self.s.queries)

    def warm_up(self) -> None:
        state = self.new_state()
        for b in range(WARMUP_BATCHES):
            self.batch(state, b)

    def new_state(self):
        from repro.core.streaming import StreamingConnectIt

        return StreamingConnectIt(self.s.n, self.uf_spec)

    def batch(self, state, b: int, tracer: Tracer | None = None) -> float | None:
        """One checked batch; returns its seconds, or None when it failed."""
        t0 = time.perf_counter()
        try:
            if tracer:
                answers = self._traced_batch(state, b, tracer)
            else:
                answers = state.process_batch(self.s.updates[b], self.s.queries[b])
        except Exception:
            traceback.print_exc()
            self.checks.record(False)
            return None
        dt = time.perf_counter() - t0
        return dt if self.checks.record(oracles.same_answers(answers, self.expected[b])) else None

    def _traced_batch(self, state, b: int, tracer: Tracer) -> np.ndarray:
        """The update and query halves of one batch as two public calls, each a span."""
        with tracer.span("op", "batch", new_op=True):
            c0 = state.state.c.as_dict()
            with tracer.span("streaming.update", "StreamingConnectIt.process_batch") as up:
                state.process_batch(self.s.updates[b])
            c1 = state.state.c.as_dict()
            with tracer.span("streaming.query", "StreamingConnectIt.process_batch") as qu:
                answers = state.process_batch(np.empty((0, 2), dtype=np.int64), self.s.queries[b])
            c2 = state.state.c.as_dict()
        up["counters"] = {
            "updates": len(self.s.updates[b]),
            "parent_reads": c1["parent_reads"] - c0["parent_reads"],
            "hooks": c1["hooks"] - c0["hooks"],
        }
        qu["counters"] = {"finds": c2["finds"] - c1["finds"], "tpl": c2["total_path_length"] - c1["total_path_length"]}
        return answers

    def run_pass(self, t_end: float | None, tracer: Tracer | None = None) -> dict:
        """Batches of one pass, stopping at ``t_end`` if given. A whole pass ends with a
        check of the labeling, one more checked operation."""
        state = self.new_state()
        out = {"times": [], "scaled": [], "updates": 0, "hooks": None}
        for b in range(len(self.s.updates)):
            if t_end is not None and time.perf_counter() >= t_end:
                return out
            if b % PROBE_EVERY == 0:
                probe_s = self.probe.measure()
            if (dt := self.batch(state, b, tracer)) is not None:
                out["times"].append(dt)
                out["scaled"].append(self.probe.scale(dt, probe_s))
                out["updates"] += len(self.s.updates[b])
        self.checks.record(oracles.same_partition(state.labels(), self.roots))
        out["hooks"] = state.state.c.as_dict()["hooks"]
        return out

    def measure(self, seconds: float) -> dict:
        t_end = time.perf_counter() + seconds
        passes = [self.run_pass(None)]
        while time.perf_counter() < t_end:
            passes.append(self.run_pass(t_end))
        times = [t for p in passes for t in p["times"]]
        scaled = [t for p in passes for t in p["scaled"]]
        updates = sum(p["updates"] for p in passes)
        return {
            "op_p50_ms": _median(scaled) * 1e3,
            "edges_per_s": updates / sum(scaled) if scaled else 0.0,
            "op_p50_raw_ms": _median(times) * 1e3,
            "edges_per_raw_s": updates / sum(times) if times else 0.0,
            "probe_ms": [p * 1e3 for p in self.probe.samples],
        }

    def measure_traced(self, seconds: float, tracer: Tracer) -> dict:
        t_end = time.perf_counter() + seconds
        plain, traced = [], []
        while not plain or time.perf_counter() < t_end:
            plain.append(self.run_pass(None))
            traced.append(self.run_pass(None, tracer))
        times = [t for p in plain for t in p["times"]]
        traced_times = [t for p in traced for t in p["times"]]
        return {
            "stream_updates_per_s": sum(p["updates"] for p in plain) / sum(times) if times else 0.0,
            "batch_p50_ms": _median(times) * 1e3,
            "batch_p99_ms": float(np.percentile(times, 99)) * 1e3 if times else 0.0,
            "streaming.hooks": _median([p["hooks"] for p in traced if p["hooks"] is not None]),
            "trace.overhead_frac": _median(traced_times) / _median(times) - 1 if times and traced_times else 0.0,
            "host.probe_ms": _median(self.probe.samples) * 1e3,
        }


def _declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check that the oracles catch corrupted outputs")
    args = ap.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    missed = oracles.self_test()
    if missed or args.self_test:
        print(f"perfbench: oracle self-test {'missed: ' + ', '.join(missed) if missed else 'caught every corruption'}",
              file=sys.stderr)
        return 3 if missed else 0
    if args.workload is None:
        ap.error("--workload is required")
    end_to_end, per_layer = _declared_metrics()

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    ignored_env = substrate.pin_environment(tmp)
    checks = Checks()
    spark = None
    try:
        if args.workload == "stream-b100":
            import repro.core.streaming  # noqa: F401  (imports are part of set-up)

            work = Streaming(args.seed, checks)
            jobs_fn = lambda: 0  # noqa: E731
        else:
            spark = substrate.start_spark(tmp)
            work = Static(args.workload, args.seed, spark, checks)
            jobs_fn = work.jobs
        session_s = time.perf_counter() - T_PROCESS
        passes = []
        for _ in range(SETUP_PASSES):
            t0 = time.perf_counter()
            work.setup_pass()
            passes.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        work.warm_up()
        warm_up_s = time.perf_counter() - t0
        setup_s = session_s + statistics.median(passes) + warm_up_s

        tracer = Tracer(jobs_fn) if args.trace else None
        if tracer:
            values = {name: 0.0 for name in per_layer} | work.measure_traced(args.seconds, tracer)
            tracer.resolve_counters()
            values |= layer_metrics(tracer.spans)
            values["error_rate"] = checks.failed / max(1, checks.attempted)
            values["jvm_rss_mb"] = substrate.peak_rss_mb(substrate.jvm_pid(spark)) if spark else 0.0
            declared = per_layer
        else:
            values = work.measure(args.seconds) | {"setup_s": setup_s, "driver_rss_mb": substrate.peak_rss_mb()}
            declared = end_to_end
        fp = substrate.fingerprint(ROOT, spark, args, ignored_env)
    finally:
        if spark is not None:
            substrate.stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)

    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 4
    if checks.attempted == checks.failed:
        print("perfbench: every operation failed", file=sys.stderr)
        return 1
    metrics = {k: {"value": float(values[k]), "unit": u} for k, u in declared.items()}
    record = {
        "fingerprint": fp,
        "setup": {"session_s": session_s, "passes_s": passes, "warm_up_s": warm_up_s},
        "extra": {k: v for k, v in values.items() if k not in declared},
        "metrics": metrics,
        "spans": tracer.spans if tracer else [],
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"fingerprint": fp}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
