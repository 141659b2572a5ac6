"""Exact goldens for the union-find kernel: counters, labels, forests, answers.

``snapshot()`` runs every spec of ``valid_specs()`` on two tiny suite graphs
(a plain run and a run seeded with a partial labeling plus the frequent-label
skip, both recording the forest) and every streaming algorithm on one fixed
20-batch stream. Counters are kept exactly; labels, forests and query answers
as SHA-256 digests of their exact values. ``data/uf_goldens.json`` holds a
snapshot; regenerate it only for an intended change in the kernel's work:

    PYTHONPATH=src python tests/test_uf_goldens.py > tests/data/uf_goldens.json
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.streaming import StreamingConnectIt
from repro.graphs import suite
from repro.graphs.ground_truth import cc_labels
from repro.unionfind import run_components
from repro.unionfind.variants import valid_specs

GOLDENS = Path(__file__).parent / "data" / "uf_goldens.json"
GRAPHS = ("RO", "CW")
STREAM_ALGOS = [*valid_specs(), "sv", "lt-root"]
N_BATCHES, BATCH = 20, 50
COUNTERS = (
    "parent_reads", "parent_writes", "cas_attempts", "cas_failures",
    "finds", "unions", "hooks", "total_path_length", "max_path_length",
)


def _digest(rows) -> str:
    return hashlib.sha256(np.asarray(rows, dtype=np.int64).tobytes()).hexdigest()[:16]


def _counts(d: dict) -> list[int]:
    return [int(d[k]) for k in COUNTERS]


def _static_case(n: int, edges: np.ndarray, spec, **seed) -> list:
    labels, st = run_components(n, edges, spec, record_forest=True, **seed)
    forest = [(r, u, v) for r, (u, v) in st.forest.items()]
    return [_digest(labels), _digest(forest), _counts(st.c.as_dict())]


def _stream_input() -> tuple[int, list[np.ndarray], list[np.ndarray]]:
    g = suite.streaming_graph("RM", "test")
    rng = np.random.default_rng(7)
    e = np.stack([g.src, g.dst], axis=1)
    e = e[e[:, 0] < e[:, 1]]
    e = e[rng.permutation(len(e))[: N_BATCHES * BATCH]]
    q = rng.integers(0, g.n, size=(N_BATCHES * BATCH, 2))
    return g.n, np.split(e, N_BATCHES), np.split(q, N_BATCHES)


def _stream_case(n: int, updates: list, queries: list, algo) -> dict:
    """Update and query halves of each batch as separate calls, with the
    counter deltas of each half summed over the stream."""
    s = StreamingConnectIt(n, algo)
    up, qu, answers = np.zeros(9, np.int64), np.zeros(9, np.int64), []
    for u, q in zip(updates, queries):
        c0 = _counts(s.state.c.as_dict())
        s.process_batch(u)
        c1 = _counts(s.state.c.as_dict())
        answers.append(s.process_batch(np.empty((0, 2), np.int64), q))
        c2 = _counts(s.state.c.as_dict())
        up += np.subtract(c1, c0)
        qu += np.subtract(c2, c1)
    mpl = COUNTERS.index("max_path_length")
    up[mpl] = qu[mpl] = 0  # a running maximum, not a sum: kept whole below
    return {
        "answers": _digest(np.concatenate(answers)),
        "labels": _digest(s.labels()),
        "update": up.tolist(),
        "query": qu.tolist(),
        "mpl": _counts(s.state.c.as_dict())[mpl],
    }


def _key(algo) -> str:
    return algo if isinstance(algo, str) else algo.key


def snapshot() -> dict:
    static = {}
    for name in GRAPHS:
        g = suite.get(name, "test")
        edges = np.stack([g.src, g.dst], axis=1)
        half = np.random.default_rng(3).random(len(edges)) < 0.5
        seed = cc_labels(g.n, g.src[half], g.dst[half])
        vals, counts = np.unique(seed, return_counts=True)
        skip = int(vals[np.argmax(counts)])
        for spec in valid_specs():
            static[f"{name}/{spec.key}"] = _static_case(g.n, edges, spec)
            static[f"{name}/{spec.key}/seeded"] = _static_case(
                g.n, edges, spec, labels=seed, skip_label=skip
            )
    n, updates, queries = _stream_input()
    stream = {_key(a): _stream_case(n, updates, queries, a) for a in STREAM_ALGOS}
    return {"counters": list(COUNTERS), "static": static, "stream": stream}


def _dump(snap: dict) -> str:
    """One line per case, so a diff names the case that moved."""
    lines = ["{", f' "counters": {json.dumps(snap["counters"])},']
    for part in ("static", "stream"):
        items = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(snap[part].items())]
        lines += [f' "{part}": {{', ",\n".join(items), " }" + ("," if part == "static" else "")]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.fixture(scope="module")
def pair():
    return json.loads(GOLDENS.read_text()), snapshot()


def test_counter_names_unchanged(pair):
    gold, now = pair
    assert now["counters"] == gold["counters"]


@pytest.mark.parametrize("graph", GRAPHS)
def test_static_goldens(pair, graph):
    gold, now = pair
    keys = [k for k in gold["static"] if k.startswith(graph + "/")]
    assert len(keys) == 2 * len(valid_specs())
    assert {k: now["static"][k] for k in keys} == {k: gold["static"][k] for k in keys}


@pytest.mark.parametrize("algo", [_key(a) for a in STREAM_ALGOS])
def test_stream_goldens(pair, algo):
    gold, now = pair[0]["stream"][algo], pair[1]["stream"][algo]
    unions, finds, reads, tpl = (COUNTERS.index(k) for k in ("unions", "finds", "parent_reads", "total_path_length"))
    assert now["answers"] == gold["answers"]
    assert now["labels"] == gold["labels"]
    # Known difference: streaming counts one union per update, as
    # run_components does; the goldens were captured when it counted none.
    assert gold["update"][unions] == 0 and now["update"][unions] == N_BATCHES * BATCH
    assert now["update"][:unions] + now["update"][unions + 1:] == gold["update"][:unions] + gold["update"][unions + 1:]
    if algo in ("sv", "lt-root"):
        # Known difference: Type 2 queries now run the kernel's counted naive
        # find; the goldens were captured when they walked the array uncounted.
        assert gold["query"] == [0] * len(COUNTERS) and gold["mpl"] == 0
        q = now["query"]
        assert q[finds] == 2 * N_BATCHES * BATCH
        assert q[reads] == q[finds] + q[tpl]
        assert sum(q) == q[finds] + q[reads] + q[tpl]
    else:
        assert now["query"] == gold["query"]
        assert now["mpl"] == gold["mpl"]


if __name__ == "__main__":
    sys.stdout.write(_dump(snapshot()))
