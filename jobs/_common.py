"""Shared SparkSession bootstrap for spark-submit entrypoints.

Jobs run standalone (not under pytest), so they create their own local
session with the same settings as conftest.py's fixture.

The ``repro`` package is used from the checkout, not installed: importing
this module puts the checkout's ``src`` on the driver's ``sys.path`` and, via
``PYTHONPATH`` before the JVM starts, on the path of the Python workers it
launches (``connectivity(..., spark_uf=True)`` imports ``repro`` inside
``mapInPandas`` tasks).
"""
import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
    "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(shuffle_partitions: int = 16) -> SparkSession:
    s = (
        SparkSession.builder.appName("connectit-repro")
        .config("spark.sql.shuffle.partitions", shuffle_partitions)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def run_table(fn, name: str, scale: str | None = None):
    from repro.harness.tables import df_to_markdown, to_markdown

    scale = scale or (sys.argv[1] if len(sys.argv) > 1 else "mini")
    spark = get_spark()
    df = fn(spark, scale)
    path = to_markdown(df, f"{name}_{scale}")
    print(df_to_markdown(df))
    print(f"\nwrote {path}")
    spark.stop()
    return df
