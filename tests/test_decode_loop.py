"""Acceptance walk, step/table updates, and end-to-end decode properties."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramspec.cache_table import CacheTableConfig, LruCacheTable
from ngramspec.decode_loop import (
    DecodeState,
    KGramVerifier,
    ReplayOracle,
    accept,
    decode_step,
    greedy_decode,
    init_from_prompt,
    reset,
    run_decode,
    update_tables,
)
from ngramspec.draft_tree import DraftConfig, build_draft_tree
from ngramspec.frozen_table import build_frozen, count_ngrams

from oracles import (
    SimDecoder,
    brute_kgram_next,
    greedy_reference,
    naive_frozen_map,
    peek,
    snapshot,
)

EOS = 0xFFFF_FFFF

# Token ids reused from the draft-tree fixtures.
AT, DAWN, THE, FOX = 10, 11, 0, 1
RAN, FAST, HID, DEEP, SAT, STILL, YOU, COULD = 2, 3, 4, 5, 6, 7, 8, 9


def fox_tree():
    tcfg = CacheTableConfig(ll=2, fl=2, lc=16, fc=8)
    table = LruCacheTable(tcfg)
    table.insert((THE, FOX), (SAT, STILL))
    table.insert((THE, FOX), (HID, DEEP))
    table.insert((THE, FOX), (RAN, FAST))
    table.insert((SAT, STILL), (YOU, COULD))
    return build_draft_tree(
        [AT, DAWN, THE, FOX], 0, table, None, DraftConfig(tdl=16, crt=4)
    )


class PathStub:
    """Greedy oracle keyed on the tokens past ``committed``: the path drafted
    so far maps to its next token, and any other path predicts 99."""

    def __init__(self, committed, next_token):
        self.committed_len = len(committed)
        self.next_token = next_token

    def greedy_next(self, prefix):
        return self.next_token.get(tuple(prefix[self.committed_len :]), 99)


FOX_CONTEXT = [AT, DAWN, THE, FOX]


class TestVerifyTree:
    """The lazy acceptance walk, ``accept``."""

    def test_no_child_matches(self):
        stub = PathStub(FOX_CONTEXT, {(): 77})
        accepted, bonus = accept(fox_tree(), FOX_CONTEXT, stub)
        assert accepted == []
        assert bonus == 77  # the step still emits exactly one token

    def test_full_deepest_branch(self):
        stub = PathStub(
            FOX_CONTEXT,
            {
                (): SAT,
                (SAT,): STILL,
                (SAT, STILL): YOU,
                (SAT, STILL, YOU): COULD,
                (SAT, STILL, YOU, COULD): 55,  # continuation after the leaf
            },
        )
        accepted, bonus = accept(fox_tree(), FOX_CONTEXT, stub)
        assert accepted == [4, 5, 6, 7]
        assert bonus == 55
        # Emits one plus the longest branch length.
        assert len(accepted) + 1 == 5

    def test_divergence_keeps_branch_except_last_token(self):
        stub = PathStub(
            FOX_CONTEXT,
            {(): SAT, (SAT,): STILL, (SAT, STILL): YOU, (SAT, STILL, YOU): 42},
        )  # diverges where the draft says COULD
        accepted, bonus = accept(fox_tree(), FOX_CONTEXT, stub)
        assert accepted == [4, 5, 6]
        assert bonus == 42

    def test_duplicate_first_tokens_pick_earliest_child(self):
        tcfg = CacheTableConfig(ll=1, fl=2, lc=8, fc=8)
        table = LruCacheTable(tcfg)
        table.insert((0,), (1, 3))
        table.insert((0,), (1, 2))  # most recent, so earliest-inserted node
        tree = build_draft_tree([0], 0, table, None, DraftConfig(8, 0))
        assert [n.token for n in tree.nodes] == [1, 2, 1, 3]
        stub = PathStub([0], {(): 1, (1,): 2, (1, 2): 9})
        accepted, bonus = accept(tree, [0], stub)
        assert accepted == [0, 1]
        assert bonus == 9


def fresh_state(ll=1, fl=2, lc=64, fc=8, tdl=12, crt=3, frozen=None, dynamic=True):
    tcfg = CacheTableConfig(ll, fl, lc, fc)
    return DecodeState(DraftConfig(tdl, crt), LruCacheTable(tcfg) if dynamic else None, frozen)


class TestUpdateTables:
    def test_one_new_token_one_insertion(self):
        state = fresh_state(ll=1, fl=3)
        state.committed = [1, 2, 3, 4]  # 3 prior tokens + 1 new
        update_tables(state, 3)
        assert len(state.dynamic) == 1
        assert peek(state.dynamic, (1,)) == [(2, 3, 4)]

    def test_short_source_inserts_only_complete_windows(self):
        state = fresh_state(ll=1, fl=3)
        state.committed = [1, 2]
        update_tables(state, 0)
        assert len(state.dynamic) == 0

    def test_k_new_tokens_k_insertions(self):
        state = fresh_state(ll=2, fl=2)
        prior = [0, 1, 2, 3]  # one full window that ends before the new tokens
        new = [4, 5, 6, 7]
        state.committed = prior + new
        update_tables(state, len(prior))
        inserted = sum(len(fs) for _, fs in snapshot(state.dynamic))
        assert inserted == len(new)
        assert peek(state.dynamic, (0, 1)) is None

    def test_disabled_dynamic_is_untouched(self):
        state = fresh_state(ll=1, fl=1, dynamic=False)
        state.committed = [1, 2, 3]
        update_tables(state, 0)
        reset(state)
        assert state.dynamic is None


class TestInitFromPrompt:
    def test_short_prompt_no_insertions(self):
        state = fresh_state(ll=1, fl=3)
        init_from_prompt(state, [1, 2, 3])  # needs ll + fl = 4
        assert len(state.dynamic) == 0
        assert state.committed == [1, 2, 3]
        assert state.pending_len == 1

    def test_alternating_prompt(self):
        state = fresh_state(ll=1, fl=1)
        init_from_prompt(state, [20, 21, 20, 21, 20, 21])
        assert peek(state.dynamic, (20,)) == [(21,)]
        assert peek(state.dynamic, (21,)) == [(20,)]

    def test_empty_prompt(self):
        state = fresh_state()
        init_from_prompt(state, [])
        assert state.pending_len == 0 and state.committed == []

    def test_repeated_init_idempotent_on_contents(self):
        prompt = [1, 2, 1, 2, 3, 1, 2]
        state = fresh_state(ll=1, fl=1, lc=4, fc=2)
        init_from_prompt(state, prompt)
        once = snapshot(state.dynamic)
        init_from_prompt(state, prompt)
        assert snapshot(state.dynamic) == once


class TestReset:
    def test_reset_clears_dynamic_and_sequence(self):
        state = fresh_state(ll=1, fl=1)
        init_from_prompt(state, [1, 2, 1, 2])
        reset(state)
        assert len(state.dynamic) == 0
        assert state.committed == [] and state.pending_len == 0

    def test_reset_retains_frozen(self):
        tcfg = CacheTableConfig(1, 1, 8, 4)
        frozen = build_frozen(count_ngrams([[1, 2, 1, 2]], tcfg), tcfg)
        state = DecodeState.fresh(tcfg, DraftConfig(8, 2), frozen=frozen)
        before = frozen.query((1,))
        reset(state)
        assert state.frozen is frozen
        assert state.frozen.query((1,)) == before

    def test_reset_equals_fresh_process(self):
        doc_a = [1, 2, 3, 1, 2, 3, 1, 2, 3]
        doc_b = [4, 5, 4, 5, 4, 5, 4, 5]
        verifier = KGramVerifier(2, [doc_a, doc_b])

        reused = fresh_state(ll=1, fl=1)
        run_decode(reused, doc_a[:4], verifier, 12)
        reset(reused)
        out_reused, met_reused = run_decode(reused, doc_b[:4], verifier, 12)

        fresh = fresh_state(ll=1, fl=1)
        out_fresh, met_fresh = run_decode(fresh, doc_b[:4], verifier, 12)
        assert out_reused == out_fresh
        assert met_reused == met_fresh
        assert snapshot(reused.dynamic) == snapshot(fresh.dynamic)


class TestDecodeStep:
    def test_empty_tables_emit_exactly_one(self):
        state = fresh_state()
        oracle = ReplayOracle(3, [7, 8, 9], EOS)
        init_from_prompt(state, [1, 2, 3])
        metrics = decode_step(state, oracle)
        assert metrics.emitted == 1 and metrics.accepted == 0 and metrics.drafted == 0
        assert state.committed == [1, 2, 3, 7]
        assert state.pending_len == 1

    def test_seeded_replay_matches_simulator(self):
        # The prompt's repetition seeds the table; the oracle replays more of it.
        sentence = [1, 2, 3, 4, 5]
        prompt = sentence * 2
        continuation = sentence * 3
        oracle = ReplayOracle(len(prompt), continuation, EOS)
        state = fresh_state(ll=1, fl=2, tdl=10, crt=2)
        init_from_prompt(state, prompt)
        sim = SimDecoder(1, 2, 64, 8, 10, 2)
        sim.init_from_prompt(prompt)
        for _ in range(4):
            before = len(state.committed)
            metrics = decode_step(state, oracle)
            engine_emitted = state.committed[before:]
            assert engine_emitted == sim.step(oracle)
            assert metrics.emitted == len(engine_emitted)


class TestRunDecode:
    def test_losslessness_on_replay(self):
        prompt = [1, 2, 3, 4, 1, 2, 3, 4]
        continuation = [1, 2, 3, 4] * 5 + [9, 9, 1, 2, 3, 4]
        oracle = ReplayOracle(len(prompt), continuation, EOS)
        state = fresh_state(ll=1, fl=2)
        out, metrics = run_decode(state, prompt, oracle, 40)
        assert out == greedy_reference(prompt, oracle, 40)
        assert metrics.total_emitted == len(out)

    def test_repeated_sentence_kgram_pinned_mat(self):
        # Frozen expected values computed once with the step simulator.
        doc = [1, 2, 3, 4, 5, 6, 7, 8] * 6
        prompt = doc[:12]
        verifier = KGramVerifier(2, [doc])
        state = fresh_state(ll=1, fl=2, lc=64, fc=8, tdl=12, crt=3)
        out, metrics = run_decode(state, prompt, verifier, 30)
        assert (metrics.steps, metrics.total_emitted) == (5, 30)
        assert metrics.mat == 6.0
        assert metrics.mat > 1.0
        sim = SimDecoder(1, 2, 64, 8, 12, 3)
        sim_out, sim_steps, sim_emitted = sim.run(prompt, verifier, 30)
        assert (sim_steps, sim_emitted) == (5, 30)
        assert out == sim_out

    def test_max_new_tokens_one(self):
        doc = [1, 2, 3] * 4
        verifier = KGramVerifier(2, [doc])
        state = fresh_state(ll=1, fl=1)
        out, metrics = run_decode(state, doc[:6], verifier, 1)
        assert len(out) == 1
        assert metrics.steps == 1
        assert metrics.mat == 1.0

    def test_cut_changes_only_accepted_and_emitted(self):
        # Step 5 accepts 10 drafted tokens plus a bonus; a 27-token limit keeps 3.
        doc = [1, 2, 3, 4, 5, 6, 7, 8] * 6
        verifier = KGramVerifier(2, [doc])
        _, cut = run_decode(fresh_state(ll=1, fl=2, tdl=12, crt=3), doc[:12], verifier, 27)
        _, full = run_decode(fresh_state(ll=1, fl=2, tdl=12, crt=3), doc[:12], verifier, 40)
        assert cut.steps == 5 and cut.total_emitted == 27
        assert cut.step_log[:-1] == full.step_log[:4]
        last, whole = cut.step_log[-1], full.step_log[4]
        assert (whole.accepted, whole.emitted) == (10, 11)
        assert last == replace(whole, accepted=3, emitted=3)  # drafted, longest_branch kept

    def test_stops_after_eos(self):
        prompt = [1, 2, 3]
        oracle = ReplayOracle(3, [7, 8], EOS)
        state = fresh_state()
        out, _ = run_decode(state, prompt, oracle, 50)
        assert out == [7, 8, EOS]

    def test_invalid_max_new_tokens(self):
        state = fresh_state()
        with pytest.raises(ValueError):
            run_decode(state, [1], ReplayOracle(1, [2], EOS), 0)


def random_docs(rng: random.Random) -> list[list[int]]:
    vocab = rng.randint(3, 9)
    docs = []
    for _ in range(rng.randint(1, 4)):
        base = [rng.randrange(vocab) for _ in range(rng.randint(2, 8))]
        doc: list[int] = []
        for _ in range(rng.randint(1, 5)):
            doc.extend(base if rng.random() < 0.7 else [rng.randrange(vocab) for _ in range(3)])
        docs.append(doc)
    return docs


def random_configs(rng: random.Random):
    ll = rng.randint(1, 2)
    fl = rng.randint(1, 3)
    lc = rng.randint(2, 32)
    fc = rng.randint(1, 6)
    tdl = rng.randint(max(2, fl + 1), 20)
    crt = rng.randint(0, tdl - 1)
    return ll, fl, lc, fc, tdl, crt


@pytest.mark.parametrize("seed", range(30))
def test_losslessness_randomized(seed):
    rng = random.Random(seed)
    docs = random_docs(rng)
    verifier = KGramVerifier(rng.randint(1, 3), docs)
    ll, fl, lc, fc, tdl, crt = random_configs(rng)
    prompt = docs[0][: rng.randint(1, len(docs[0]))]
    max_new = rng.randint(1, 40)
    use_frozen = rng.random() < 0.5
    frozen = None
    if use_frozen:
        tcfg = CacheTableConfig(ll, fl, lc, fc)
        frozen = build_frozen(count_ngrams(docs, tcfg), tcfg)
    state = fresh_state(ll, fl, lc, fc, tdl, crt, frozen=frozen)
    out, metrics = run_decode(state, prompt, verifier, max_new)
    assert out == greedy_reference(prompt, verifier, max_new)
    assert metrics.total_emitted == len(out)
    assert metrics.steps == len(metrics.step_log)
    for step in metrics.step_log:
        assert 1 <= step.emitted <= 1 + step.longest_branch or step.longest_branch == 0 and step.emitted == 1


@pytest.mark.parametrize("seed", range(25))
def test_step_oracle_equivalence_randomized(seed):
    rng = random.Random(10_000 + seed)
    docs = random_docs(rng)
    verifier = KGramVerifier(rng.randint(1, 3), docs)
    ll, fl, lc, fc, tdl, crt = random_configs(rng)
    prompt = docs[0][: rng.randint(1, len(docs[0]))]
    frozen = None
    frozen_map = None
    if rng.random() < 0.5:
        tcfg = CacheTableConfig(ll, fl, lc, fc)
        frozen = build_frozen(count_ngrams(docs, tcfg), tcfg)
        frozen_map = naive_frozen_map(docs, ll, fl, lc, fc)
    state = fresh_state(ll, fl, lc, fc, tdl, crt, frozen=frozen)
    init_from_prompt(state, prompt)
    sim = SimDecoder(ll, fl, lc, fc, tdl, crt, frozen_map=frozen_map)
    sim.init_from_prompt(prompt)
    for _ in range(rng.randint(1, 8)):
        before = len(state.committed)
        decode_step(state, verifier)
        assert state.committed[before:] == sim.step(verifier)
        assert snapshot(state.dynamic) == sim.dynamic.state()


class CountingVerifier:
    """Passes ``greedy_next`` through to ``inner`` and counts the calls."""

    def __init__(self, inner):
        self.inner = inner
        self.eos_token = inner.eos_token
        self.vocab_size = inner.vocab_size
        self.calls = 0

    def greedy_next(self, prefix):
        self.calls += 1
        return self.inner.greedy_next(prefix)


def test_verifier_calls_are_accepted_plus_one():
    rejected = 0
    for seed in range(20):
        rng = random.Random(20_000 + seed)
        docs = random_docs(rng)
        verifier = CountingVerifier(KGramVerifier(rng.randint(1, 3), docs))
        ll, fl, lc, fc, tdl, crt = random_configs(rng)
        frozen = None
        if rng.random() < 0.5:
            tcfg = CacheTableConfig(ll, fl, lc, fc)
            frozen = build_frozen(count_ngrams(docs, tcfg), tcfg)
        state = fresh_state(ll, fl, lc, fc, tdl, crt, frozen=frozen)
        init_from_prompt(state, docs[0][: rng.randint(1, len(docs[0]))])
        for _ in range(rng.randint(1, 8)):
            before = verifier.calls
            step = decode_step(state, verifier)
            assert verifier.calls - before == step.accepted + 1
            rejected += step.drafted - step.accepted
    # Drafted nodes off the greedy path were never handed to the verifier.
    assert rejected > 0


@given(
    seed=st.integers(0, 10_000),
    order=st.integers(1, 3),
    max_new=st.integers(1, 30),
)
@settings(max_examples=60, deadline=None)
def test_losslessness_property(seed, order, max_new):
    rng = random.Random(seed)
    docs = random_docs(rng)
    verifier = KGramVerifier(order, docs)
    ll, fl, lc, fc, tdl, crt = random_configs(rng)
    prompt = docs[0][: rng.randint(1, len(docs[0]))]
    state = fresh_state(ll, fl, lc, fc, tdl, crt)
    out, metrics = run_decode(state, prompt, verifier, max_new)
    assert out == greedy_reference(prompt, verifier, max_new)
    assert metrics.mat * metrics.steps == pytest.approx(metrics.total_emitted)
    assert sum(s.emitted for s in metrics.step_log) == metrics.total_emitted


@given(
    docs=st.lists(st.lists(st.integers(0, 4), max_size=25), min_size=1, max_size=4).filter(
        lambda docs: any(docs)
    ),
    order=st.integers(1, 4),
    probe=st.lists(st.integers(0, 5), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_kgram_verifier_matches_rescan(docs, order, probe):
    """Every prefix of every document, and of a probe that may hold unseen
    tokens and contexts, gets the token a full rescan of the documents gives."""
    verifier = KGramVerifier(order, docs)
    for seq in [*docs, probe]:
        for end in range(len(seq) + 1):
            prefix = seq[:end]
            assert verifier.greedy_next(prefix) == brute_kgram_next(docs, order, prefix)


def test_determinism_full_run():
    rng = random.Random(7)
    docs = random_docs(rng)
    verifier = KGramVerifier(2, docs)
    prompt = docs[0][:5]
    results = []
    for _ in range(2):
        state = fresh_state(ll=1, fl=2, tdl=10, crt=2)
        out, metrics = run_decode(state, prompt, verifier, 25)
        results.append((out, metrics, snapshot(state.dynamic)))
    assert results[0] == results[1]
