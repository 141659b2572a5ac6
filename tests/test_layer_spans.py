"""Tooling guard: the benchmark's layer spans still fire.

``perfbench/spans.py`` traces each layer by replacing module attributes at
run time (``SITES``). A refactor that binds one of those functions early,
say by importing it into another module or building a table of them at
import, leaves the wrapper unseen and silently empties that layer of the
benchmark's trace. This test fails instead.
"""
import importlib.util
from pathlib import Path

from repro.core.framework import connectivity
from repro.graphs import suite

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_layer_span_fires(spark, spark_jobs):
    spans = _load_spans()
    g = suite.get("CW", "test")
    tracer = spans.Tracer(spark_jobs)
    with spans.instrumented(tracer):
        connectivity(spark, g, "kout", "uf-rem-cas")
        connectivity(spark, g, "bfs", "sv")
    fired = {s["name"] for s in tracer.spans}
    assert fired == {f"{module}.{attr}" for module, attr, _, _ in spans.SITES}
    assert len(spans.SITES) == 9
