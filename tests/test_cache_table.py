"""LRU cache table: examples, evicted keys, and oracle equivalence."""

from __future__ import annotations

import random

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
            ref.insert(*op)
        else:
            result = table.query(op)
            ref.query(op)
    assert snapshot(table) == ref.state()
    return table, result


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
    ll, fl, lc, fc = cfg
    real = LruCacheTable(CacheTableConfig(ll, fl, lc, fc))
    ref = RefLruTable(ll, fl, lc, fc)
    for kind, a, b in ops:
        leader = tuple(a + i for i in range(ll))
        follower = tuple(b + i for i in range(fl))
        if kind == "query":
            assert list(real.query(leader)) == ref.query(leader)
        else:
            real.insert(leader, follower)
            ref.insert(leader, follower)
        assert snapshot(real) == ref.state()


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
