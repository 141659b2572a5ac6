"""The library calls ``perfbench/run.py`` makes, pinned here so that a change
that would break the benchmark run fails the test suite instead."""
import numpy as np

from repro.core.framework import connectivity
from repro.core.streaming import StreamingConnectIt
from repro.graphs import generators as gen
from repro.graphs import suite
from repro.graphs.ground_truth import canonicalize, cc_labels, same_partition
from repro.unionfind import Counters, UFSpec


def test_benchmark_spec_is_the_default():
    assert UFSpec("uf-rem-cas", "naive", "split-one") == UFSpec()


def test_non_union_find_finish_ignores_uf_spec(spark):
    """``static-bfs-sv`` passes its union-find spec with the SV finish."""
    g = suite.get("CW", "test")
    labels, info = connectivity(spark, g, "bfs", "sv", uf_spec=UFSpec())
    assert same_partition(labels, canonicalize(cc_labels(g.n, g.src, g.dst)))
    assert info["finish"] == "sv"


def test_streaming_batch_call_forms():
    """A whole batch, then its update and query halves as two calls, as the
    plain and traced ``stream-b100`` batches make them."""
    g = gen.rmat(64, 200, seed=2)
    edges = np.stack([g.src, g.dst], axis=1)
    truth = canonicalize(cc_labels(g.n, g.src, g.dst))
    s = StreamingConnectIt(g.n, UFSpec())
    answers = s.process_batch(edges[:100], edges[:100])
    assert answers.dtype == bool and answers.all()
    s.process_batch(edges[100:])
    assert s.process_batch(np.empty((0, 2), dtype=np.int64), edges[100:]).all()
    assert same_partition(canonicalize(s.labels()), truth)
    assert s.state.c.as_dict()["hooks"] == g.n - len(np.unique(truth))


def test_counter_keys():
    assert list(Counters().as_dict()) == [
        "parent_reads", "parent_writes", "cas_attempts", "cas_failures", "finds",
        "unions", "hooks", "total_path_length", "max_path_length",
    ]
