"""The pinned Spark substrate, the run fingerprint, and process memory readings.

Every Spark setting the benchmark depends on is set here, and none is taken from
the environment: ``SPARK_MASTER``, ``SPARK_SHUFFLE_PARTITIONS`` and
``PYSPARK_SUBMIT_ARGS`` are overridden (and listed in the fingerprint when set),
and ``SPARK_CONF_DIR`` points at an empty directory so no ``spark-defaults.conf``
is read. Spark's scratch files go under the run's work directory.
"""
from __future__ import annotations

import hashlib
import os
import platform
import resource
import shlex
import subprocess
import sys
from pathlib import Path

CORES = 4  # local[k] with k = min(CORES, usable cores)
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
IGNORED_ENV = ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS", "PYSPARK_SUBMIT_ARGS")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment(tmp: Path) -> dict:
    """Point every temporary file of this process and its children at ``tmp``.

    Returns the overridden Spark variables that were set, for the fingerprint.
    """
    ignored = {k: os.environ[k] for k in IGNORED_ENV if k in os.environ}
    conf_dir = tmp / "conf"
    conf_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_CONF_DIR"] = str(conf_dir)
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    # Every JVM started from here (spark-submit's launcher too) keeps its files in tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={shlex.quote(str(tmp))}"
    return ignored


def start_spark(tmp: Path):
    """Launch the driver JVM and return a SparkSession with every setting pinned."""
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{min(CORES, usable_cores())}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.adaptive.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def spark_jobs(spark) -> int:
    """Spark jobs submitted so far in this context.

    This is the job-id sequence that ``statusTracker()`` reports, read from the
    scheduler itself: the tracker is filled by the asynchronous listener bus, so a
    read right after an action can miss that action's last job.
    """
    return spark.sparkContext._jsc.sc().dagScheduler().numTotalJobs()


def jvm_pid(spark) -> int:
    return spark.sparkContext._gateway.proc.pid


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident memory of this process (``pid`` None) or of process ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def stop_spark(spark) -> None:
    """Stop the context, then end the driver JVM and wait for it to exit."""
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    proc.stdin.close()  # the gateway server exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _java_version(spark) -> str:
    if spark is not None:
        return spark.sparkContext._jvm.System.getProperty("java.version")
    try:
        out = subprocess.run(["java", "-version"], capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return next((line for line in out.stderr.splitlines() if "version" in line), "unavailable")


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=60)
    return out.stdout.strip() or "unknown"


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(root: Path, spark, args, ignored_env: dict) -> dict:
    import networkx
    import numpy
    import pyspark

    with open("/proc/meminfo") as f:
        mem_kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    fp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": usable_cores(),
        "mem_total_mb": mem_kb // 1024,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "pyspark": pyspark.__version__,
        "java": _java_version(spark),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "ignored_env": ignored_env,
    }
    if spark is not None:
        sc = spark.sparkContext
        fp["spark"] = {
            "master": sc.master,
            "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
            "driver_memory": DRIVER_MEMORY,
            "default_parallelism": sc.defaultParallelism,
        }
    return fp
