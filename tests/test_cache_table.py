"""LRU cache table: examples, evicted keys, and oracle equivalence."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramspec.cache_table import CacheTableConfig, LruCacheTable

from oracles import RefLruTable, peek, snapshot


def L(*tokens):
    return tuple(tokens)


def replay(cfg, ops):
    """Run ``ops`` ((leader, follower) inserts, or a bare leader to query) on
    a table and on the reference; check that both end in the same state, and
    return the table and what its last op returned."""
    table, ref = LruCacheTable(CacheTableConfig(*cfg)), RefLruTable(*cfg)
    for op in ops:
        if isinstance(op[0], tuple):
            result = table.insert(*op)
            assert result == ref.insert(*op)
        else:
            result = table.query(op)
            ref.query(op)
    assert snapshot(table) == ref.state()
    return table, result


class CountingTable(LruCacheTable):
    """An ``LruCacheTable`` that counts its ``insert`` calls."""

    def __init__(self, config):
        super().__init__(config)
        self.insert_calls = 0

    def insert(self, leader, follower):
        self.insert_calls += 1
        return super().insert(leader, follower)


class TestConstruction:
    @pytest.mark.parametrize(
        "cfg", [(1, 3, 4, 2), (2, 2, 1, 1), (1, 3, 2**20, 128)]
    )
    def test_new_table_is_empty(self, cfg):
        table = LruCacheTable(CacheTableConfig(*cfg))
        assert len(snapshot(table)) == 0

    @pytest.mark.parametrize(
        "cfg", [(0, 3, 4, 2), (1, 0, 4, 2), (1, 3, 0, 2), (1, 3, 4, 0), (-1, 1, 1, 1)]
    )
    def test_zero_or_negative_field_rejected(self, cfg):
        with pytest.raises(ValueError):
            CacheTableConfig(*cfg)


class TestQuery:
    def test_absent_leader_on_empty_table(self):
        table = LruCacheTable(CacheTableConfig(1, 3, 4, 2))
        assert list(table.query(L(7))) == []

    def test_single_entry_round_trip(self):
        table = LruCacheTable(CacheTableConfig(1, 3, 4, 2))
        table.insert(L(1), L(10, 11, 12))
        assert list(table.query(L(1))) == [L(10, 11, 12)]

    def test_query_refreshes_leader_recency(self):
        # LC=2: insert L1, L2, query L1, insert L3 => L2 evicted.
        ops = [(L(1), L(10)), (L(2), L(20)), L(1), (L(3), L(30))]
        table, evicted = replay((1, 1, 2, 2), ops)
        assert evicted == L(2)
        assert peek(table, L(1)) is not None
        assert peek(table, L(3)) is not None
        assert peek(table, L(2)) is None

    def test_wrong_leader_length_rejected(self):
        table = LruCacheTable(CacheTableConfig(2, 3, 4, 2))
        with pytest.raises(ValueError):
            table.query(L(1))


class TestInsert:
    def test_follower_capacity_eviction_order(self):
        ops = [(L(1), L(10)), (L(1), L(11)), (L(1), L(12))]
        table, evicted = replay((1, 1, 4, 2), ops)
        assert evicted == L(10)
        assert list(table.query(L(1))) == [L(12), L(11)]

    def test_duplicate_insert_is_dedup(self):
        table = LruCacheTable(CacheTableConfig(1, 1, 4, 2))
        table.insert(L(1), L(10))
        assert table.insert(L(1), L(10)) is None
        assert list(table.query(L(1))) == [L(10)]
        assert len(snapshot(table)) == 1

    def test_leader_capacity_eviction(self):
        table, evicted = replay((1, 1, 1, 2), [(L(1), L(10)), (L(1), L(11)), (L(2), L(20))])
        assert evicted == L(1)
        assert len(snapshot(table)) == 1

    def test_duplicate_insert_refreshes_follower_recency(self):
        # The third insert moves (10,) back to the front.
        ops = [(L(1), L(10)), (L(1), L(11)), (L(1), L(10)), (L(1), L(12))]
        table, evicted = replay((1, 1, 4, 2), ops)
        assert evicted == L(11)
        assert list(table.query(L(1))) == [L(12), L(10)]

    def test_wrong_follower_length_rejected(self):
        table = LruCacheTable(CacheTableConfig(1, 3, 4, 2))
        with pytest.raises(ValueError):
            table.insert(L(1), L(10))

    def test_wrong_leader_length_rejected(self):
        table = LruCacheTable(CacheTableConfig(2, 1, 4, 2))
        for leader in (L(1), L(1, 2, 3)):
            with pytest.raises(ValueError, match="leader length"):
                table.insert(leader, L(10))
        assert len(snapshot(table)) == 0


class TestLeaderCount:
    def test_counts(self):
        cfg = CacheTableConfig(1, 1, 3, 2)
        table = LruCacheTable(cfg)
        assert len(snapshot(table)) == 0
        table.insert(L(1), L(10))
        assert len(snapshot(table)) == 1
        for i in range(cfg.lc + 1):
            table.insert(L(100 + i), L(10))
        assert len(snapshot(table)) == cfg.lc


class TestPeek:
    def test_absent(self):
        table = LruCacheTable(CacheTableConfig(1, 1, 2, 2))
        assert peek(table, L(9)) is None

    def test_equals_query_result(self):
        table = LruCacheTable(CacheTableConfig(1, 1, 2, 2))
        table.insert(L(1), L(10))
        table.insert(L(1), L(11))
        assert peek(table, L(1)) == list(table.query(L(1)))


@pytest.mark.parametrize("seed", range(10))
def test_insert_windows_matches_reference(seed):
    """``insert_windows`` leaves the table in the state of a ``RefLruTable``
    fed, in order, every window of the tokens that ends at or after
    ``start``: on an empty table, with more than ``lc`` leaders, on a table
    with earlier inserts, and with ``start > 0``.  Both the one-pass fill
    (no ``insert`` call) and the per-window path must run many times, and
    the fill must meet leaders with more than ``fc`` followers."""
    rng = random.Random(7000 + seed)
    runs = {"fill": 0, "per_window": 0, "fill_evicts": 0, "many_leaders": 0, "start": 0}
    for _ in range(120):
        ll, fl, lc, fc = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        pool = rng.randint(1, 3)
        table, ref = CountingTable(CacheTableConfig(ll, fl, lc, fc)), RefLruTable(ll, fl, lc, fc)
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 6)):
                leader = tuple(rng.randrange(pool) for _ in range(ll))
                follower = tuple(rng.randrange(pool) for _ in range(fl))
                table.insert(leader, follower)
                ref.insert(leader, follower)
        was_empty, table.insert_calls = not ref.rows, 0
        tokens = [rng.randrange(pool) for _ in range(rng.randint(0, 60))]
        start = rng.randint(0, len(tokens)) if rng.random() < 0.3 else 0
        table.insert_windows(tokens, start)

        width = ll + fl
        leaders, evicts = set(), False
        for last in range(max(start, width - 1), len(tokens)):
            window = tuple(tokens[last - width + 1 : last + 1])
            leader, follower = window[:ll], window[ll:]
            followers = ref.peek(leader)
            evicts |= followers is not None and follower not in followers and len(followers) >= fc
            leaders.add(leader)
            ref.insert(leader, follower)
        assert snapshot(table) == ref.state()
        windows = max(0, len(tokens) - max(start, width - 1))
        if not windows:
            continue
        if was_empty and len(leaders) <= lc:
            assert table.insert_calls == 0
            runs["fill"] += 1
            runs["fill_evicts"] += evicts
        else:
            assert table.insert_calls == windows
            runs["per_window"] += 1
            runs["many_leaders"] += was_empty
        runs["start"] += start > 0
    assert runs["fill"] >= 10 and runs["per_window"] >= 10, runs
    assert runs["fill_evicts"] >= 5 and runs["many_leaders"] >= 5 and runs["start"] >= 5, runs


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2000, 3000),
    alphabet=st.integers(1, 256),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    fc=st.integers(1, 128),
    lc_shift=st.integers(-3, 3),
)
@settings(max_examples=50, deadline=None)
def test_seeding_a_long_prompt_matches_reference(seed, size, alphabet, shape, fc, lc_shift):
    """Seeding an empty table from a prompt of thousands of tokens leaves it
    as one ``RefLruTable.insert`` per window would, both when ``lc`` holds
    every distinct leader (the one-pass fill) and when it does not (the
    per-window fallback)."""
    rng = random.Random(seed)
    tokens: list[int] = []
    while len(tokens) < size:
        if tokens and rng.random() < 0.5:  # repeat an earlier stretch, as looping text does
            at = rng.randrange(len(tokens))
            tokens += tokens[at : at + rng.randint(1, 40)]
        else:
            tokens.append(rng.randrange(alphabet))
    (ll, fl), width = shape, sum(shape)
    windows = [
        (tuple(tokens[i : i + ll]), tuple(tokens[i + ll : i + width]))
        for i in range(len(tokens) - width + 1)
    ]
    distinct = len({leader for leader, _ in windows})
    lc = max(1, distinct + lc_shift)
    table, ref = CountingTable(CacheTableConfig(ll, fl, lc, fc)), RefLruTable(ll, fl, lc, fc)
    table.insert_windows(tokens)
    for leader, follower in windows:
        ref.insert(leader, follower)
    assert snapshot(table) == ref.state()
    assert (table.insert_calls == 0) == (lc >= distinct)  # which of the two paths ran


def check_against_reference(cfg, ops) -> Counter:
    """Replay ``ops`` on a table and on the reference, comparing every result
    and the whole state after each op; count which path each insert into a
    known leader takes, judged on the reference before the insert."""
    ll, fl, lc, fc = cfg
    real, ref = LruCacheTable(CacheTableConfig(*cfg)), RefLruTable(*cfg)
    paths: Counter = Counter()
    for kind, a, b in ops:
        leader = tuple(a + i for i in range(ll))
        follower = tuple(b + i for i in range(fl))
        if kind == "query":
            assert list(real.query(leader)) == ref.query(leader)
        else:
            followers = ref.peek(leader)
            if followers:
                if followers[0] == follower:
                    paths["already first"] += 1
                elif follower in followers:
                    paths["mid-list refresh" if follower != followers[-1] else "tail refresh"] += 1
                else:
                    paths["tail eviction" if len(followers) == fc else "added"] += 1
            assert real.insert(leader, follower) == ref.insert(leader, follower)
        assert snapshot(real) == ref.state()
    return paths


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["query", "insert"]),
        st.integers(0, 6),  # leader token pool
        st.integers(0, 4),  # follower token pool
    ),
    max_size=400,
)


@given(
    cfg=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5), st.integers(1, 3)),
    ops=ops_strategy,
)
@settings(max_examples=150, deadline=None)
def test_lru_equivalence_with_reference(cfg, ops):
    check_against_reference(cfg, ops)


long_list_ops = st.lists(
    st.tuples(
        st.sampled_from(["query", "insert", "insert"]),
        st.integers(0, 2),  # few leaders, so their follower lists fill up
        st.integers(0, 11),  # a follower pool larger than any fc drawn
    ),
    min_size=30,
    max_size=400,
)


@given(
    cfg=st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 4), st.integers(1, 8)),
    ops=long_list_ops,
)
@settings(max_examples=150, deadline=None)
def test_lru_equivalence_with_reference_long_lists(cfg, ops):
    check_against_reference(cfg, ops)


def test_long_lists_reach_every_insert_path():
    rng = random.Random(23)
    paths: Counter = Counter()
    for _ in range(100):
        fc = rng.randint(2, 8)
        ops = [
            (rng.choice(["query", "insert", "insert"]), rng.randrange(4), rng.randrange(12))
            for _ in range(200)
        ]
        paths += check_against_reference((1, 1, 3, fc), ops)
    assert len(paths) == 5 and min(paths.values()) >= 100, paths


@given(
    cfg=st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 4), st.integers(1, 3)),
    ops=ops_strategy,
)
@settings(max_examples=100, deadline=None)
def test_capacity_safety(cfg, ops):
    ll, fl, lc, fc = cfg
    table = LruCacheTable(CacheTableConfig(ll, fl, lc, fc))
    for kind, a, b in ops:
        leader = tuple(a + i for i in range(ll))
        if kind == "query":
            table.query(leader)
        else:
            table.insert(leader, tuple(b + i for i in range(fl)))
        assert len(snapshot(table)) <= lc
        assert all(len(fs) <= fc for _, fs in snapshot(table))


@given(ops=ops_strategy, probe=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_query_never_mutates_followers(ops, probe):
    table = LruCacheTable(CacheTableConfig(1, 1, 4, 2))
    for kind, a, b in ops:
        if kind == "query":
            table.query((a,))
        else:
            table.insert((a,), (b,))
    before = {leader: fs for leader, fs in snapshot(table)}
    table.query((probe,))
    after = {leader: fs for leader, fs in snapshot(table)}
    assert before == after  # same lists, only leader order may shift


@given(ops=ops_strategy)
@settings(max_examples=100, deadline=None)
def test_duplicate_insert_changes_no_counts(ops):
    table = LruCacheTable(CacheTableConfig(1, 1, 4, 2))
    rng = random.Random(0)
    for kind, a, b in ops:
        if kind == "insert":
            table.insert((a,), (b,))
    for leader, followers in snapshot(table):
        target = rng.choice(followers)
        leaders_before = len(snapshot(table))
        length_before = len(followers)
        table.insert(leader, target)
        peeked = peek(table, leader)
        assert len(snapshot(table)) == leaders_before
        assert peeked is not None and len(peeked) == length_before
