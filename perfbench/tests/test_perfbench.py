"""Tests of the benchmark itself: input generation, gates, tracing."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bench
import tracing
from ngramspec import cli, decode_loop
from ngramspec.cache_table import LruCacheTable
from ngramspec.draft_tree import DraftNode, DraftTree
from ngramspec.frozen_table import FrozenTable
from workloads import WORKLOADS, write_inputs

BENCH_DIR = Path(bench.__file__).resolve().parent


def small(name: str) -> bench.Workload:
    """The named workload shrunk to a few tasks and a small corpus."""
    return dataclasses.replace(WORKLOADS[name], tasks=6, corpus_docs=600)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    w = small(name)
    a = write_inputs(w, 7, tmp_path / "a")
    b = write_inputs(w, 7, tmp_path / "b")
    c = write_inputs(w, 8, tmp_path / "c")
    for x, y, z in zip(a, b, c):
        assert x.read_bytes() == y.read_bytes()
        assert x.read_bytes() != z.read_bytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_passes_every_gate(name, tmp_path):
    w = small(name)
    corpus, tasks = write_inputs(w, 3, tmp_path)
    tally = bench.Tally()
    result = bench.untraced_run(w, corpus, tasks, tmp_path, 0.01, tally)
    assert tally.failed == 0 and tally.attempted > 2 * w.tasks
    assert set(result.metrics) == set(bench.ENDPOINT_UNITS)
    assert all(value > 0 for value in result.metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_recomputes_mat(name, tmp_path):
    w = small(name)
    corpus, tasks = write_inputs(w, 3, tmp_path)
    tally = bench.Tally()
    result = bench.traced_run(w, corpus, tasks, tmp_path, 0.01, tally)
    assert tally.failed == 0
    assert set(result.metrics) == set(tracing.LAYER_UNITS)
    assert result.metrics["decode_loop.verifier_calls_per_step"] >= 1
    assert 0 < result.metrics["draft_tree.reachable_ratio"] <= 1
    if w.frozen:
        assert result.metrics["frozen_table.hit_ratio"] > 0
    with np.load(tmp_path / "spans.npz") as spans:
        assert len(spans["start_ns"]) == result.samples["spans"]


def test_instrument_restores_the_pipeline():
    before = (decode_loop.decode_step, cli.tokenize, LruCacheTable.query, FrozenTable.__dict__["load"])
    with tracing.instrument(tracing.Tracer()):
        assert decode_loop.decode_step is not before[0]
    after = (decode_loop.decode_step, cli.tokenize, LruCacheTable.query, FrozenTable.__dict__["load"])
    assert after == before


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))
    middle = tracer.wrap("middle", lambda: (inner(), inner()))
    outer = tracer.wrap("outer", lambda: (middle(), time.sleep(0.003)))
    outer()
    spans = tracer.arrays()
    assert list(spans["parent"]) == [-1, 0, 1, 1]
    outer_dur = tracer.durations("outer")[0]
    middle_dur = tracer.durations("middle")[0]
    assert tracer.self_times("outer")[0] == outer_dur - middle_dur
    assert tracer.self_times("middle")[0] == middle_dur - tracer.durations("inner").sum()
    assert list(tracer.self_times("inner")) == list(tracer.durations("inner"))


def test_reachable_nodes_skips_shadowed_siblings_and_their_subtrees():
    nodes = [
        DraftNode(5, None, 1),  # 0 reachable
        DraftNode(6, 0, 2),  # 1 reachable
        DraftNode(5, None, 1),  # 2 shadowed by node 0
        DraftNode(7, 2, 2),  # 3 below a shadowed node
        DraftNode(8, None, 1),  # 4 reachable
        DraftNode(6, 0, 2),  # 5 shadowed by node 1
    ]
    assert tracing.reachable_nodes(DraftTree(pending=(1,), nodes=nodes)) == 3


def test_row_totals_cut_the_last_step_at_max_new_tokens():
    rows = [
        tracing.StepRow(task=t, pending=1, drafted=4, reachable=4, accepted=a, emitted=a + 1,
                        verifier_calls=5, tdl=8)
        for t, a in ((0, 3), (0, 3), (1, 1), (1, 6))
    ]
    # task 0 emits 4 + 4 -> cut to 6; task 1 emits 2 + 7 -> cut to 6
    assert tracing.row_totals(rows, 6) == (4, 12)


def test_vocabulary_guard_fails_when_tasks_are_tokenized_without_the_sidecar(tmp_path):
    w = small("ws-cold")
    corpus, tasks = write_inputs(w, 3, tmp_path)
    ready = bench.setup(w, corpus, tasks, tmp_path)
    ok = bench.Tally()
    bench.setup_gates(w, ready, ok)
    assert ok.failed == 0
    vocab = cli.Vocab()  # not the table's: ids by first use in the task file
    docs = [cli.tokenize(text, w.tokenizer, vocab) for text in cli.read_documents([tasks], "line")]
    fresh = dataclasses.replace(ready, prompts=[doc[: max(1, len(doc) // 2)] for doc in docs])
    assert any(tuple(p[:1]) in ready.frozen.entries for p in fresh.prompts)  # leaders still hit
    bad = bench.Tally()
    bench.setup_gates(w, fresh, bad)
    assert bad.failed == 1


def test_wrong_output_counts_as_a_failed_task(tmp_path):
    w = small("ws-bursty")
    corpus, tasks = write_inputs(w, 3, tmp_path)
    ready = bench.setup(w, corpus, tasks, tmp_path)
    refs = bench.references(w, ready)
    refs[2] = refs[2][:-1] + [refs[2][-1] + 1]
    tally = bench.Tally()
    bench.decode_pass(w, ready, refs, tally)
    assert (tally.attempted, tally.failed) == (w.tasks, 1)


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    argv = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *argv[1:], "--workload", "ws-bursty", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
