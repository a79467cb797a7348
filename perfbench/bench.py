"""Set-up, timed decode passes, correctness gates and metrics.

The benchmark drives ngramspec only through its public entry points:
``cli.cmd_build_table`` (read, tokenize, count, build, CBFT save and the
``.vocab.json`` sidecar), ``FrozenTable.load``, ``cli.tokenize``,
``KGramVerifier`` and ``run_decode``.  Functions are looked up on their
module at call time, so the traced run's wrappers (see ``tracing``) see
every call.

Each task document is split in half; the first half is the prompt.  Each
task gets its own k-gram verifier trained on its document, so the tasks'
continuations are independent draws and the aggregate MAT of a few hundred
tasks barely moves between seeds.
"""

from __future__ import annotations

import gc
import io
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ngramspec import cli, decode_loop
from ngramspec.cache_table import CacheTableConfig
from ngramspec.decode_loop import DecodeState, greedy_decode, reset
from ngramspec.draft_tree import DraftConfig
from ngramspec.frozen_table import FrozenTable

from tracing import (
    LAYER_UNITS,
    CountingVerifier,
    Tracer,
    instrument,
    layer_metrics,
    nearest_rank,
    row_totals,
)
from workloads import Workload

# Table shape, chaining reserve and verifier order shared by every workload
# (the CLI's defaults; pinned here so that the workloads stay fixed).
LL, FL, LC, CRT = 1, 3, 2**20, 16
KGRAM_ORDER = 3

# Set-up is repeated until both floors are met and its median is reported.
# One set-up takes 0.1-0.2 s on ws-bursty and byte-evict (so 25-50 repeats)
# and 2-3 s on ws-cold (so 7).
SETUP_MIN_REPEATS = 7
SETUP_MIN_SECONDS = 5.0
SETUP_MAX_REPEATS = 100

# The tasks' windows found in the frozen table: 25-45 % with the table's
# vocabulary, about 0.1 % with any other (see ``window_share``).
MIN_WINDOW_SHARE = 0.05

ENDPOINT_UNITS = {
    "mat": "tok/step",
    "tokens_per_s": "tok/s",
    "step_us": "us",
    "task_ms_p50": "ms",
    "task_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def table_config(w: Workload) -> CacheTableConfig:
    return CacheTableConfig(ll=LL, fl=FL, lc=LC, fc=w.fc)


def draft_config(w: Workload) -> DraftConfig:
    return DraftConfig(tdl=w.tdl, crt=CRT)


@dataclass
class Ready:
    """Everything decoding needs, as loaded from the workload's files."""

    frozen: FrozenTable | None
    table_path: Path | None
    prompts: list[list[int]]
    verifiers: list[decode_loop.KGramVerifier]


@dataclass
class Tally:
    """Checks made and failed; every failure is also reported on stderr."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
                print(f"FAIL: {message}", file=sys.stderr)
        return ok


def setup(w: Workload, corpus: Path, tasks: Path, workdir: Path) -> Ready:
    """From the workload's files to a ready state (the span ``setup_s`` times)."""
    frozen = table_path = None
    vocab = cli.Vocab() if w.tokenizer == "whitespace" else None
    if w.frozen:
        table_path = cli.cmd_build_table([corpus], workdir / "table.cbft", table_config(w), w.tokenizer)
        frozen = FrozenTable.load(table_path)
        if vocab is not None:
            # Task ids must be the table's ids: tokenize with its sidecar.
            vocab = cli.Vocab.load(f"{table_path}.vocab.json")
    docs = [cli.tokenize(text, w.tokenizer, vocab) for text in cli.read_documents([tasks], "line")]
    verifiers = [decode_loop.KGramVerifier(KGRAM_ORDER, [doc]) for doc in docs]
    prompts = [doc[: max(1, len(doc) // 2)] for doc in docs]
    return Ready(frozen=frozen, table_path=table_path, prompts=prompts, verifiers=verifiers)


def timed_setup(w: Workload, corpus: Path, tasks: Path, workdir: Path, times: list[float]) -> Ready:
    """``setup``, with its wall time appended to ``times``."""
    t0 = time.perf_counter()
    ready = setup(w, corpus, tasks, workdir)
    times.append(time.perf_counter() - t0)
    return ready


def setup_due(times: Sequence[float], progress: float) -> bool:
    """Whether a set-up is due once ``progress`` (0 to 1) of the timed passes
    have run: the floors grow with it, so set-ups spread over the passes."""
    return len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_MIN_REPEATS * progress or sum(times) < SETUP_MIN_SECONDS * progress
    )


def window_share(frozen: FrozenTable, prompts: Sequence[list[int]]) -> float:
    """Share of the prompts' (leader, follower) windows that the frozen table
    holds.  Tasks tokenized with the table's sidecar share whole phrases with
    the corpus; tasks tokenized with any other vocabulary still hit leaders
    (with ``ll=1`` nearly every small id is one) but almost never a window."""
    ll, fl = frozen.config.ll, frozen.config.fl
    windows = hits = 0
    for p in prompts:
        for i in range(len(p) - ll - fl + 1):
            windows += 1
            hits += tuple(p[i + ll : i + ll + fl]) in frozen.entries.get(tuple(p[i : i + ll]), ())
    return hits / max(1, windows)


def setup_gates(w: Workload, ready: Ready, tally: Tally) -> None:
    """CBFT save -> load -> save is byte-identical, and the tasks' token ids
    are the frozen table's (see ``window_share``)."""
    if ready.frozen is None:
        return
    saved = ready.table_path.read_bytes()
    again = io.BytesIO()
    ready.frozen.save(again)
    tally.check(again.getvalue() == saved, "CBFT save -> load -> save is not byte-identical")
    share = window_share(ready.frozen, ready.prompts)
    tally.check(
        share >= MIN_WINDOW_SHARE,
        f"only {share:.2%} of the task windows are in the frozen table: vocabulary mismatch",
    )


def references(w: Workload, ready: Ready) -> list[list[int]]:
    """Plain greedy decoding of every task: what each speculative run must emit."""
    return [
        greedy_decode(prompt, verifier, w.max_new_tokens)
        for prompt, verifier in zip(ready.prompts, ready.verifiers)
    ]


@dataclass
class Pass:
    """One decode of every task; ``walls[i]`` is task i's ``run_decode`` time."""

    walls: list[float]
    steps: int
    emitted: int

    @property
    def wall(self) -> float:
        return sum(self.walls)


def decode_pass(
    w: Workload,
    ready: Ready,
    refs: Sequence[list[int]],
    tally: Tally,
    tracer: Tracer | None = None,
) -> Pass:
    """Decode every task once, timing each ``run_decode`` call and checking
    its output against greedy decoding and its step accounting."""
    state = DecodeState.fresh(table_config(w), draft_config(w), frozen=ready.frozen)
    walls: list[float] = []
    steps = emitted = 0
    for i, (prompt, verifier) in enumerate(zip(ready.prompts, ready.verifiers)):
        if tracer is not None:
            tracer.current_task = i
            verifier = CountingVerifier(verifier, tracer)
        reset(state)
        t0 = time.perf_counter()
        try:
            out, run = decode_loop.run_decode(state, prompt, verifier, w.max_new_tokens)
        except Exception as exc:  # a raising task is a failed task; keep going
            walls.append(time.perf_counter() - t0)
            tally.check(False, f"task {i} raised {exc!r}")
            continue
        walls.append(time.perf_counter() - t0)
        steps += run.steps
        emitted += run.total_emitted
        tally.check(
            out == refs[i] and run.total_emitted == len(out),
            f"task {i}: output differs from greedy decoding or from the emitted count",
        )
    if tracer is not None:
        tracer.current_task = -1
    return Pass(walls=walls, steps=steps, emitted=emitted)


def timed_passes(
    w: Workload,
    ready: Ready,
    refs: Sequence[list[int]],
    tally: Tally,
    seconds: float,
    first: Pass,
    between: Callable[[float], None] = lambda progress: None,
) -> list[Pass]:
    """Decode passes until they have taken ``seconds`` (at least one),
    calling ``between`` after each with the share of ``seconds`` used.
    Every pass must repeat the first pass's step and token counts exactly."""
    passes: list[Pass] = []
    spent = 0.0
    while not passes or spent < seconds:
        t0 = time.perf_counter()
        p = decode_pass(w, ready, refs, tally)
        spent += time.perf_counter() - t0
        tally.check(
            (p.steps, p.emitted) == (first.steps, first.emitted),
            f"pass {len(passes)} took {p.steps} steps for {p.emitted} tokens, "
            f"the first took {first.steps} for {first.emitted}",
        )
        passes.append(p)
        between(min(1.0, spent / seconds))
    return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def endpoint_metrics(first: Pass, passes: Sequence[Pass], setup_times: Sequence[float]) -> dict[str, float]:
    """End-to-end metrics.

    A task's latency is its fastest ``run_decode`` over the timed passes:
    on a shared host the speed of the same code drifts by up to 1.8x for
    seconds at a time (in CPU time as much as in wall time), and the best of
    many passes filters that drift out where a mean or median does not.
    Throughput and step time are taken over the same per-task latencies; the
    latency percentiles are over tasks.  Set-up time is the median of the
    set-ups spread over the passes.
    """
    best = [min(walls) for walls in zip(*(p.walls for p in passes))]
    return {
        "mat": first.emitted / first.steps,
        "tokens_per_s": first.emitted / sum(best),
        "step_us": 1e6 * sum(best) / first.steps,
        "task_ms_p50": 1e3 * statistics.median(best),
        "task_ms_p95": 1e3 * nearest_rank(best, 0.95),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


@dataclass
class Result:
    metrics: dict[str, float]
    units: dict[str, str]
    samples: dict[str, int]


def untraced_run(w: Workload, corpus: Path, tasks: Path, workdir: Path, seconds: float, tally: Tally) -> Result:
    """End-to-end metrics: a set-up, one warm-up pass, then timed passes.

    More set-ups run between the timed passes, so that their median samples
    the same stretch of time as the passes; a burst of set-ups up front
    would take the host's speed of a single moment.
    """
    setup_times: list[float] = []
    ready = timed_setup(w, corpus, tasks, workdir, setup_times)
    setup_gates(w, ready, tally)
    refs = references(w, ready)
    first = decode_pass(w, ready, refs, tally)

    def more_setups(progress: float) -> None:
        while setup_due(setup_times, progress):
            timed_setup(w, corpus, tasks, workdir, setup_times)

    gc.collect()
    passes = timed_passes(w, ready, refs, tally, seconds, first, more_setups)
    more_setups(1.0)
    return Result(
        metrics=endpoint_metrics(first, passes, setup_times),
        units=ENDPOINT_UNITS,
        samples={
            "tasks": len(ready.prompts),
            "steps_per_pass": first.steps,
            "tokens_per_pass": first.emitted,
            "passes": len(passes),
            "task_samples": sum(len(p.walls) for p in passes),
            "setups": len(setup_times),
        },
    )


def traced_run(w: Workload, corpus: Path, tasks: Path, workdir: Path, seconds: float, tally: Tally) -> Result:
    """Per-layer metrics: untraced passes for half the time, then one traced
    pass whose spans and per-step rows give the layers; the spans go to
    ``workdir/spans.npz``."""
    setup(w, corpus, tasks, workdir)  # warms the process; the traced set-up follows
    tracer = Tracer()
    with instrument(tracer):
        ready = setup(w, corpus, tasks, workdir)
    setup_gates(w, ready, tally)
    refs = references(w, ready)
    first = decode_pass(w, ready, refs, tally)
    gc.collect()
    untraced = timed_passes(w, ready, refs, tally, seconds / 2, first)
    with instrument(tracer):
        traced = decode_pass(w, ready, refs, tally, tracer)
    tracer.save(workdir / "spans.npz")

    rows = tracer.rows
    tally.check(
        row_totals(rows, w.max_new_tokens) == (first.steps, first.emitted),
        f"per-step rows give {row_totals(rows, w.max_new_tokens)} (steps, tokens), "
        f"the untraced run {(first.steps, first.emitted)}",
    )
    over = sum(r.pending + r.drafted > r.tdl for r in rows)
    tally.check(over == 0, f"{over} steps drafted past the budget: pending + drafted > tdl")
    untraced_step_us = statistics.median(1e6 * p.wall / p.steps for p in untraced)
    metrics = layer_metrics(
        tracer,
        ready.table_path.stat().st_size if ready.table_path else 0,
        untraced_step_us,
        1e6 * traced.wall / traced.steps,
    )
    if w.frozen:
        tally.check(
            metrics["frozen_table.hit_ratio"] > 0,
            "frozen_table.hit_ratio is 0: task token ids do not match the table",
        )
    return Result(
        metrics=metrics,
        units=LAYER_UNITS,
        samples={"tasks": len(ready.prompts), "traced_steps": len(rows), "spans": len(tracer.start)},
    )
