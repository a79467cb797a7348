"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected values marked
as pinned were computed once with the independent simulators in oracles.py
and are asserted exactly.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from ngramspec.cache_table import CacheTableConfig, LruCacheTable
from ngramspec.cli import RunConfig, Vocab, cmd_build_table, run_bench, tokenize
from ngramspec.decode_loop import DecodeState, KGramVerifier, run_decode
from ngramspec.draft_tree import DraftConfig, build_draft_tree
from ngramspec.frozen_table import FrozenTable, build_frozen, count_ngrams

from corpus import background_texts, eval_texts
from oracles import (
    RefLruTable,
    SimDecoder,
    greedy_reference,
    naive_frozen_map,
    snapshot,
)

# Pinned by the brute-force step simulator on the desk corpus
# (ll=1 fl=3 lc=4096 fc=32 tdl=48 crt=8, kgram order 3, 200 new tokens/task).
TREND_CONFIG = dict(ll=1, fl=3, lc=4096, fc=32, tdl=48, crt=8)
TREND_PINNED = {
    "dual": (123, 1200),
    "dynamic": (181, 1200),
    "frozen": (702, 1200),
}


def _gate(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _random_docs(rng: random.Random) -> list[list[int]]:
    vocab = rng.randint(3, 10)
    docs = []
    for _ in range(rng.randint(1, 4)):
        base = [rng.randrange(vocab) for _ in range(rng.randint(2, 9))]
        doc: list[int] = []
        for _ in range(rng.randint(1, 6)):
            doc.extend(base if rng.random() < 0.7 else [rng.randrange(vocab) for _ in range(4)])
        docs.append(doc)
    return docs


def _random_config(rng: random.Random):
    ll = rng.randint(1, 2)
    fl = rng.randint(1, 3)
    lc = rng.randint(2, 32)
    fc = rng.randint(1, 6)
    tdl = rng.randint(max(2, fl + 1), 24)
    crt = rng.randint(0, tdl - 1)
    return CacheTableConfig(ll, fl, lc, fc), DraftConfig(tdl, crt)


def _random_run(rng: random.Random):
    docs = _random_docs(rng)
    verifier = KGramVerifier(rng.randint(1, 3), docs)
    tcfg, dcfg = _random_config(rng)
    frozen = build_frozen(count_ngrams(docs, tcfg), tcfg) if rng.random() < 0.5 else None
    prompt = docs[0][: rng.randint(1, len(docs[0]))]
    max_new = rng.randint(1, 50)
    state = DecodeState.fresh(tcfg, dcfg, frozen=frozen)
    output, metrics = run_decode(state, prompt, verifier, max_new)
    return prompt, verifier, max_new, output, metrics


def test_losslessness():
    """>= 100 randomized cases: speculative output == plain greedy output."""
    t0 = time.perf_counter()
    rng = random.Random(20240)
    cases = 110
    mismatches = 0
    for _ in range(cases):
        prompt, verifier, max_new, output, _ = _random_run(rng)
        if output != greedy_reference(prompt, verifier, max_new):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _gate(
        "losslessness",
        mismatches == 0 and elapsed < 60.0,
        f"{cases} cases, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_lru_oracle_equivalence():
    """1e5 random ops vs the naive reference; full state compared every 100th."""
    rng = random.Random(7_771)
    total_ops = 100_000
    checked = 0
    per_config = total_ops // 4
    for _ in range(4):
        ll, fl = rng.randint(1, 2), rng.randint(1, 3)
        lc, fc = rng.randint(1, 8), rng.randint(1, 4)
        real = LruCacheTable(CacheTableConfig(ll, fl, lc, fc))
        ref = RefLruTable(ll, fl, lc, fc)
        pool = rng.randint(2, 8)
        for i in range(per_config):
            leader = tuple(rng.randrange(pool) for _ in range(ll))
            if rng.random() < 0.45:
                assert list(real.query(leader)) == ref.query(leader)
            else:
                follower = tuple(rng.randrange(pool) for _ in range(fl))
                real.insert(leader, follower)
                ref.insert(leader, follower)
            if i % 100 == 0:
                assert snapshot(real) == ref.state()
                checked += 1
    _gate("lru-oracle-equivalence", True, f"{total_ops} ops, {checked} state checks")


def test_step_bound():
    """Every recorded step emits between 1 and 1 + longest branch tokens."""
    rng = random.Random(90_125)
    violations = 0
    steps_seen = 0
    for _ in range(80):
        _, _, _, _, metrics = _random_run(rng)
        for step in metrics.step_log:
            steps_seen += 1
            if not (1 <= step.emitted <= 1 + step.longest_branch or (step.longest_branch == 0 and step.emitted == 1)):
                violations += 1
    # Include the trend corpus runs.
    vocab = Vocab()
    bg = [tokenize(t, "whitespace", vocab) for t in background_texts()]
    ev = [tokenize(t, "whitespace", vocab) for t in eval_texts()]
    cfg = RunConfig(**TREND_CONFIG, verifier="kgram", kgram_order=3, max_new_tokens=200)
    frozen = build_frozen(count_ngrams(bg, cfg.table_config()), cfg.table_config())
    for mode in ("dual", "dynamic", "frozen"):
        report = run_bench(cfg, ev, frozen, mode=mode)
        for task in report.rows:
            for step in task["step_log"]:
                steps_seen += 1
                if not (1 <= step.emitted <= 1 + step.longest_branch or (step.longest_branch == 0 and step.emitted == 1)):
                    violations += 1
    _gate("step-bound", violations == 0, f"{steps_seen} steps, {violations} violations")


def test_budget_bound():
    """>= 1e4 fuzzed trees: pending + nodes <= tdl and the depth-1 reserve."""
    rng = random.Random(55_410)
    trees = 10_000
    violations = 0
    for _ in range(trees):
        tcfg, dcfg = _random_config(rng)
        table = LruCacheTable(tcfg)
        pool = rng.randint(2, 6)
        for _ in range(rng.randint(0, 25)):
            table.insert(
                tuple(rng.randrange(pool) for _ in range(tcfg.ll)),
                tuple(rng.randrange(pool) for _ in range(tcfg.fl)),
            )
        frozen = None
        if rng.random() < 0.4:
            docs = [[rng.randrange(pool) for _ in range(rng.randint(0, 15))]]
            frozen = build_frozen(count_ngrams(docs, tcfg), tcfg)
        context = [rng.randrange(pool) for _ in range(rng.randint(0, 10))]
        pending = rng.randint(0, min(3, len(context), dcfg.tdl))
        tree = build_draft_tree(context, pending, table, frozen, dcfg)
        if pending + len(tree.nodes) > dcfg.tdl:
            violations += 1
        level_one = sum(1 for n in tree.nodes if n.depth <= tcfg.fl)
        if level_one > max(0, dcfg.tdl - dcfg.crt - pending):
            violations += 1
    _gate("budget-bound", violations == 0, f"{trees} trees, {violations} violations")


def _trend_reports():
    vocab = Vocab()
    bg = [tokenize(t, "whitespace", vocab) for t in background_texts()]
    ev = [tokenize(t, "whitespace", vocab) for t in eval_texts()]
    cfg = RunConfig(**TREND_CONFIG, verifier="kgram", kgram_order=3, max_new_tokens=200)
    frozen = build_frozen(count_ngrams(bg, cfg.table_config()), cfg.table_config())
    engine = {
        mode: run_bench(cfg, ev, frozen, mode=mode).closing for mode in ("dual", "dynamic", "frozen")
    }
    fmap = naive_frozen_map(bg, cfg.ll, cfg.fl, cfg.lc, cfg.fc)
    verifier = KGramVerifier(3, ev)
    simulated = {}
    for mode, frozen_map, dyn in (
        ("dual", fmap, True),
        ("dynamic", None, True),
        ("frozen", fmap, False),
    ):
        sim = SimDecoder(cfg.ll, cfg.fl, cfg.lc, cfg.fc, cfg.tdl, cfg.crt, frozen_map=frozen_map, dynamic_enabled=dyn)
        steps = emitted = 0
        for doc in ev:
            sim.reset()
            cut = max(1, len(doc) // 2)
            _, s, e = sim.run(doc[:cut], verifier, cfg.max_new_tokens)
            steps += s
            emitted += e
        simulated[mode] = (steps, emitted)
    return engine, simulated


def test_trend_dual_table_ordering():
    """Desk-corpus ablation: mat(dual) > mat(dynamic) > mat(frozen) >= 1,
    with the exact per-wiring step/token counts pinned by the simulator."""
    t0 = time.perf_counter()
    engine, simulated = _trend_reports()
    ok = True
    details = []
    for mode in ("dual", "dynamic", "frozen"):
        got = (engine[mode]["steps"], engine[mode]["emitted"])
        ok = ok and got == TREND_PINNED[mode] == simulated[mode]
        details.append(f"{mode}: mat={engine[mode]['mat']:.4f} steps/tokens={got}")
    mats = {mode: engine[mode]["mat"] for mode in engine}
    ok = ok and mats["dual"] > mats["dynamic"] > mats["frozen"] >= 1.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _gate("trend-dual-table-ordering", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_sweep_grid_reported():
    """Exploratory ll x fl sweep on the desk corpus; grid emitted in full and
    the ll=1 question reported (not gated)."""
    from ngramspec.cli import cmd_sweep
    import tempfile
    from pathlib import Path

    tmp = Path(tempfile.mkdtemp())
    (tmp / "bg.txt").write_text("\n".join(background_texts()), encoding="utf-8")
    (tmp / "ev.txt").write_text("\n".join(eval_texts()), encoding="utf-8")
    cfg = RunConfig(**{**TREND_CONFIG, "ll": 1, "fl": 1}, verifier="kgram", kgram_order=3, max_new_tokens=200)
    report = cmd_sweep(cfg, [1, 2, 3], [1, 2, 3, 4, 5], [tmp / "ev.txt"], corpus_paths=[tmp / "bg.txt"])
    print(report.render("csv"))
    print(f"REPORT: ll=1 attains grid max: {report.closing['ll1_attains_max']}")
    cells = {(r["ll"], r["fl"]) for r in report.rows}
    ok = cells == {(ll, fl) for ll in (1, 2, 3) for fl in (1, 2, 3, 4, 5)}
    ok = ok and all(r["mat"] >= 1.0 for r in report.rows)
    _gate("sweep-grid-reported", ok, f"{len(report.rows)} cells")


def test_frozen_round_trip_and_determinism(tmp_path):
    """save/load identity plus byte-identical rebuilds from the same corpus."""
    corpus = tmp_path / "bg.txt"
    corpus.write_text("\n".join(background_texts()), encoding="utf-8")
    paths = [tmp_path / "a.cbft", tmp_path / "b.cbft"]
    for out in paths:
        cmd_build_table([corpus], out, CacheTableConfig(1, 3, 4096, 32), seed=9)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    loaded = FrozenTable.load(paths[0])
    resaved = tmp_path / "c.cbft"
    loaded.save(resaved)
    round_trip = resaved.read_bytes() == paths[0].read_bytes()
    queries_match = all(
        loaded.query(leader) == followers for leader, followers in loaded.entries.items()
    )
    _gate(
        "frozen-round-trip-determinism",
        identical and round_trip and queries_match,
        f"{len(loaded.entries)} leaders",
    )


def _bursty_op_stream(n_ops: int) -> list:
    rng = random.Random(606)
    vocab = 5000
    sentences = [[rng.randrange(vocab) for _ in range(rng.randint(5, 12))] for _ in range(400)]
    stream: list[int] = []
    while len(stream) < n_ops:
        sentence = rng.choice(sentences)
        for _ in range(rng.randint(1, 4)):
            stream.extend(sentence)
    ops = []
    for i in range(len(stream) - 4):
        ops.append((False, (stream[i],), tuple(stream[i + 1 : i + 4])))
        if i % 3 == 0:
            ops.append((True, (stream[rng.randrange(i + 1)],), ()))
        if len(ops) >= n_ops:
            break
    return ops


def test_performance_smoke():
    """Soft gate: median table op < 2 us over 1e6 decode-shaped ops; median
    draft generation < 100 us at the default configuration."""
    tcfg = CacheTableConfig(1, 3, 2**20, 128)
    ops = _bursty_op_stream(1_000_000)
    table = LruCacheTable(tcfg)
    chunk_us = []
    for start in range(0, len(ops), 1000):
        chunk = ops[start : start + 1000]
        t0 = time.perf_counter_ns()
        for is_query, leader, follower in chunk:
            if is_query:
                table.query(leader)
            else:
                table.insert(leader, follower)
        chunk_us.append((time.perf_counter_ns() - t0) / len(chunk) / 1000)
    op_median = statistics.median(chunk_us)

    dcfg = DraftConfig(96, 16)
    words = ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10] + [11, 12, 13, 14, 15, 16]) * 40
    draft_table = LruCacheTable(tcfg)
    for i in range(len(words) - 4):
        draft_table.insert((words[i],), tuple(words[i + 1 : i + 4]))
    samples = []
    for _ in range(300):
        t0 = time.perf_counter_ns()
        tree = build_draft_tree(words, 1, draft_table, None, dcfg)
        samples.append((time.perf_counter_ns() - t0) / 1000)
    draft_median = statistics.median(samples)

    detail = (
        f"table op median {op_median:.2f} us over {len(ops)} ops; "
        f"draft build median {draft_median:.1f} us ({len(tree.nodes)} nodes/tree)"
    )
    ok = op_median < 2.0 and draft_median < 100.0
    print(f"ACCEPTANCE {'PASS' if ok else 'SOFT-FAIL'}: performance-smoke ({detail})")
    if not ok:
        pytest.xfail(f"soft performance gate missed: {detail}")
