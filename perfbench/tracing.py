"""Spans and counters for the benchmark's traced run.

Tracing wraps the public functions of each ngramspec module from outside:
``instrument`` swaps wrappers into the module namespaces and classes the
pipeline looks them up in, and restores the originals on exit, so nothing
under ``src/`` changes.  Each wrapped call records one span (name, start,
end, parent span, task id) into flat in-memory arrays; the spans are written
out once, when the run ends.  A layer's self time is its span's duration
minus the durations of its child spans.

Counters that need a call's result (cache hits, evictions, the drafted tree)
are taken right after the span closes, and the work per step that would
otherwise inflate a span's self time (reachability of the drafted tree) is
done after ``decode_step`` returns.
"""

from __future__ import annotations

import math
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ngramspec import cli, decode_loop
from ngramspec.cache_table import LruCacheTable
from ngramspec.draft_tree import DraftTree
from ngramspec.frozen_table import FrozenTable


@dataclass(frozen=True)
class StepRow:
    """One traced decode step, as seen at the ``decode_step`` boundary."""

    task: int
    pending: int
    drafted: int
    reachable: int
    accepted: int
    emitted: int
    verifier_calls: int
    tdl: int


class Tracer:
    """In-memory span store plus the per-call and per-step counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.task = array("q")
        self._open: list[int] = []
        self.current_task = -1
        self.counts: dict[str, int] = {}
        self.verifier_calls = 0
        self.rows: list[StepRow] = []
        self._last_tree: tuple[int, DraftTree] | None = None

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, object], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call; ``observe``
        sees the call's arguments and result after the span has closed."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns
        spans_open = self._open

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(spans_open[-1] if spans_open else -1)
            self.task.append(self.current_task)
            self.end.append(0)
            spans_open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                spans_open.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- observers -------------------------------------------------------

    def _on_query(self, prefix: str) -> Callable[[tuple, object], None]:
        def observe(_args: tuple, followers) -> None:
            self.count(f"{prefix}.query.calls")
            if followers:
                self.count(f"{prefix}.query.hits")
                self.count(f"{prefix}.query.followers", len(followers))

        return observe

    def _on_insert(self, _args: tuple, evicted) -> None:
        self.count("cache_table.insert.calls")
        if evicted is not None:
            self.count("cache_table.insert.evictions")

    def _on_draft(self, args: tuple, tree: DraftTree) -> None:
        self._last_tree = (args[4].tdl, tree)

    # -- spans as arrays ---------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (the recording arrays stay growable)."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "task": np.array(self.task, dtype=np.int64),
        }

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations (ns) of every span named ``name``."""
        a = self.arrays()
        return (a["end_ns"] - a["start_ns"])[a["name_id"] == self._name_ids.get(name, -1)]

    def self_times(self, name: str) -> np.ndarray:
        """Self times (ns) of every span named ``name``: duration minus the
        durations of its direct children."""
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        mine = a["name_id"] == self._name_ids.get(name, -1)
        return dur[mine] - covered[mine].astype(np.int64)

    def save(self, path: Path) -> None:
        """Write every span (and the name table) to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def reachable_nodes(tree: DraftTree) -> int:
    """Nodes the greedy acceptance walk can reach: a node is unreachable if
    an earlier sibling carries the same token, or if its parent is."""
    ok = [False] * len(tree.nodes)
    seen: dict[int | None, set[int]] = {}
    count = 0
    for i, node in enumerate(tree.nodes):
        if node.parent is not None and not ok[node.parent]:
            continue
        tokens = seen.setdefault(node.parent, set())
        if node.token in tokens:
            continue
        tokens.add(node.token)
        ok[i] = True
        count += 1
    return count


class CountingVerifier:
    """Verifier wrapper that counts ``greedy_next`` calls on a tracer."""

    def __init__(self, inner: decode_loop.Verifier, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.eos_token = inner.eos_token
        self.vocab_size = inner.vocab_size

    def greedy_next(self, prefix: Sequence[int]) -> int:
        self._tracer.verifier_calls += 1
        return self._inner.greedy_next(prefix)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Swap span-recording wrappers into the pipeline for the ``with`` body.

    Module-level functions are replaced in the module the caller resolves
    them from (``decode_step`` finds ``build_draft_tree`` in ``decode_loop``,
    ``cmd_build_table`` finds ``count_ngrams`` in ``cli``); methods are
    replaced on their class.
    """
    step_fn = tracer.wrap("decode_loop.decode_step", decode_loop.decode_step)

    def decode_step(*args, **kwargs):
        calls_before = tracer.verifier_calls
        step = step_fn(*args, **kwargs)
        tdl, tree = tracer._last_tree
        tracer.rows.append(
            StepRow(
                task=tracer.current_task,
                pending=len(tree.pending),
                drafted=len(tree.nodes),
                reachable=reachable_nodes(tree),
                accepted=step.accepted,
                emitted=step.emitted,
                verifier_calls=tracer.verifier_calls - calls_before,
                tdl=tdl,
            )
        )
        return step

    module_patches = [
        (cli, "cmd_build_table", tracer.wrap("cli.cmd_build_table", cli.cmd_build_table)),
        (cli, "tokenize", tracer.wrap("cli.tokenize", cli.tokenize)),
        (cli, "count_ngrams", tracer.wrap("frozen_table.count_ngrams", cli.count_ngrams)),
        (cli, "build_frozen", tracer.wrap("frozen_table.build_frozen", cli.build_frozen)),
        (decode_loop, "KGramVerifier",
         tracer.wrap("decode_loop.KGramVerifier", decode_loop.KGramVerifier)),
        (decode_loop, "run_decode", tracer.wrap("decode_loop.run_decode", decode_loop.run_decode)),
        (decode_loop, "decode_step", decode_step),
        (decode_loop, "build_draft_tree",
         tracer.wrap("draft_tree.build_draft_tree", decode_loop.build_draft_tree, tracer._on_draft)),
        (decode_loop, "update_tables",
         tracer.wrap("decode_loop.update_tables", decode_loop.update_tables)),
    ]
    class_patches = [
        (LruCacheTable, "query",
         tracer.wrap("cache_table.query", LruCacheTable.query, tracer._on_query("cache_table"))),
        (LruCacheTable, "insert",
         tracer.wrap("cache_table.insert", LruCacheTable.insert, tracer._on_insert)),
        (FrozenTable, "query",
         tracer.wrap("frozen_table.query", FrozenTable.query, tracer._on_query("frozen_table"))),
        (FrozenTable, "save", tracer.wrap("frozen_table.save", FrozenTable.save)),
        (FrozenTable, "load", staticmethod(tracer.wrap("frozen_table.load", FrozenTable.load))),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in module_patches + class_patches]
    try:
        for owner, attr, replacement in module_patches + class_patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


LAYER_UNITS = {
    "cache_table.query_calls_per_step": "count",
    "cache_table.query_us": "us",
    "cache_table.hit_ratio": "ratio",
    "cache_table.followers_returned_per_query": "count",
    "cache_table.insert_calls_per_step": "count",
    "cache_table.insert_us": "us",
    "cache_table.evict_ratio": "ratio",
    "frozen_table.count_s": "s",
    "frozen_table.build_s": "s",
    "frozen_table.save_s": "s",
    "frozen_table.load_s": "s",
    "frozen_table.bytes": "B",
    "frozen_table.query_calls_per_step": "count",
    "frozen_table.query_us": "us",
    "frozen_table.hit_ratio": "ratio",
    "draft_tree.build_us_p50": "us",
    "draft_tree.build_us_p99": "us",
    "draft_tree.nodes_per_step": "count",
    "draft_tree.budget_fill": "ratio",
    "draft_tree.reachable_ratio": "ratio",
    "decode_loop.verify_us": "us",
    "decode_loop.verifier_calls_per_step": "count",
    "decode_loop.useful_verify_ratio": "ratio",
    "decode_loop.update_us": "us",
    "decode_loop.accept_ratio": "ratio",
    "cli.tokenize_s": "s",
    "trace.overhead": "ratio",
}


def row_totals(rows: Sequence[StepRow], max_new_tokens: int) -> tuple[int, int]:
    """Steps and emitted tokens recomputed from the per-step rows, with the
    last step of a task cut at ``max_new_tokens`` as ``run_decode`` does."""
    produced: dict[int, int] = {}
    emitted = 0
    for row in rows:
        before = produced.get(row.task, 0)
        emitted += max(0, min(row.emitted, max_new_tokens - before))
        produced[row.task] = before + row.emitted
    return len(rows), emitted


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule (a value that occurred)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, table_bytes: int, untraced_step_us: float, traced_step_us: float
) -> dict[str, float]:
    """Per-layer metrics from the spans, counters and per-step rows.

    Per-call times are means over every call; set-up times are totals over
    one set-up.  A layer the workload bypasses reads 0.
    """
    rows = tracer.rows
    steps = len(rows)
    c = tracer.counts.get
    drafted = sum(r.drafted for r in rows)
    accepted = sum(r.accepted for r in rows)
    calls = sum(r.verifier_calls for r in rows)

    def mean_us(name: str) -> float:
        d = tracer.durations(name)
        return float(d.mean()) / 1e3 if len(d) else 0.0

    def total_s(name: str) -> float:
        return float(tracer.durations(name).sum()) / 1e9

    build_us = (tracer.durations("draft_tree.build_draft_tree") / 1e3).tolist()
    verify_ns = tracer.self_times("decode_loop.decode_step")
    return {
        "cache_table.query_calls_per_step": _ratio(c("cache_table.query.calls", 0), steps),
        "cache_table.query_us": mean_us("cache_table.query"),
        "cache_table.hit_ratio": _ratio(c("cache_table.query.hits", 0), c("cache_table.query.calls", 0)),
        "cache_table.followers_returned_per_query": _ratio(
            c("cache_table.query.followers", 0), c("cache_table.query.calls", 0)
        ),
        "cache_table.insert_calls_per_step": _ratio(c("cache_table.insert.calls", 0), steps),
        "cache_table.insert_us": mean_us("cache_table.insert"),
        "cache_table.evict_ratio": _ratio(
            c("cache_table.insert.evictions", 0), c("cache_table.insert.calls", 0)
        ),
        "frozen_table.count_s": total_s("frozen_table.count_ngrams"),
        "frozen_table.build_s": total_s("frozen_table.build_frozen"),
        "frozen_table.save_s": total_s("frozen_table.save"),
        "frozen_table.load_s": total_s("frozen_table.load"),
        "frozen_table.bytes": table_bytes,
        "frozen_table.query_calls_per_step": _ratio(c("frozen_table.query.calls", 0), steps),
        "frozen_table.query_us": mean_us("frozen_table.query"),
        "frozen_table.hit_ratio": _ratio(
            c("frozen_table.query.hits", 0), c("frozen_table.query.calls", 0)
        ),
        "draft_tree.build_us_p50": nearest_rank(build_us, 0.50) if build_us else 0.0,
        "draft_tree.build_us_p99": nearest_rank(build_us, 0.99) if build_us else 0.0,
        "draft_tree.nodes_per_step": _ratio(drafted, steps),
        "draft_tree.budget_fill": _ratio(sum((r.pending + r.drafted) / r.tdl for r in rows), steps),
        "draft_tree.reachable_ratio": _ratio(sum(r.reachable for r in rows), drafted),
        "decode_loop.verify_us": float(verify_ns.mean()) / 1e3 if len(verify_ns) else 0.0,
        "decode_loop.verifier_calls_per_step": _ratio(calls, steps),
        "decode_loop.useful_verify_ratio": _ratio(accepted + steps, calls),
        "decode_loop.update_us": mean_us("decode_loop.update_tables"),
        "decode_loop.accept_ratio": _ratio(accepted, drafted),
        "cli.tokenize_s": total_s("cli.tokenize"),
        "trace.overhead": _ratio(traced_step_us, untraced_step_us),
    }
