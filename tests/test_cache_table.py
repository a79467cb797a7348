"""LRU cache table: examples, eviction reports, and oracle equivalence."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramspec.cache_table import (
    CacheTableConfig,
    EvictedFollower,
    EvictedLeader,
    LruCacheTable,
)

from oracles import RefLruTable


def L(*tokens):
    return tuple(tokens)


class TestConstruction:
    @pytest.mark.parametrize(
        "cfg", [(1, 3, 4, 2), (2, 2, 1, 1), (1, 3, 2**20, 128)]
    )
    def test_new_table_is_empty(self, cfg):
        table = LruCacheTable(CacheTableConfig(*cfg))
        assert len(table) == 0

    @pytest.mark.parametrize(
        "cfg", [(0, 3, 4, 2), (1, 0, 4, 2), (1, 3, 0, 2), (1, 3, 4, 0), (-1, 1, 1, 1)]
    )
    def test_zero_or_negative_field_rejected(self, cfg):
        with pytest.raises(ValueError):
            CacheTableConfig(*cfg)


class TestQuery:
    def test_absent_leader_on_empty_table(self):
        table = LruCacheTable(CacheTableConfig(1, 3, 4, 2))
        assert table.query(L(7)) == []

    def test_single_entry_round_trip(self):
        table = LruCacheTable(CacheTableConfig(1, 3, 4, 2))
        table.insert(L(1), L(10, 11, 12))
        assert table.query(L(1)) == [L(10, 11, 12)]

    def test_query_refreshes_leader_recency(self):
        # LC=2: insert L1, L2, query L1, insert L3 => L2 evicted.
        table = LruCacheTable(CacheTableConfig(1, 1, 2, 2))
        table.insert(L(1), L(10))
        table.insert(L(2), L(20))
        table.query(L(1))
        report = table.insert(L(3), L(30))
        assert report == EvictedLeader(leader=L(2), followers=(L(20),))
        assert table.peek(L(1)) is not None
        assert table.peek(L(3)) is not None
        assert table.peek(L(2)) is None

    def test_wrong_leader_length_rejected(self):
        table = LruCacheTable(CacheTableConfig(2, 3, 4, 2))
        with pytest.raises(ValueError):
            table.query(L(1))


class TestInsert:
    def test_follower_capacity_eviction_order(self):
        table = LruCacheTable(CacheTableConfig(1, 1, 4, 2))
        table.insert(L(1), L(10))
        table.insert(L(1), L(11))
        report = table.insert(L(1), L(12))
        assert report == EvictedFollower(leader=L(1), follower=L(10))
        assert table.query(L(1)) == [L(12), L(11)]

    def test_duplicate_insert_is_dedup(self):
        table = LruCacheTable(CacheTableConfig(1, 1, 4, 2))
        table.insert(L(1), L(10))
        assert table.insert(L(1), L(10)) is None
        assert table.query(L(1)) == [L(10)]
        assert len(table) == 1

    def test_leader_capacity_eviction(self):
        table = LruCacheTable(CacheTableConfig(1, 1, 1, 2))
        table.insert(L(1), L(10))
        report = table.insert(L(2), L(20))
        assert report == EvictedLeader(leader=L(1), followers=(L(10),))
        assert len(table) == 1

    def test_duplicate_insert_refreshes_follower_recency(self):
        table = LruCacheTable(CacheTableConfig(1, 1, 4, 2))
        table.insert(L(1), L(10))
        table.insert(L(1), L(11))
        table.insert(L(1), L(10))  # moves (10,) back to the front
        report = table.insert(L(1), L(12))
        assert report == EvictedFollower(leader=L(1), follower=L(11))
        assert table.query(L(1)) == [L(12), L(10)]

    def test_wrong_follower_length_rejected(self):
        table = LruCacheTable(CacheTableConfig(1, 3, 4, 2))
        with pytest.raises(ValueError):
            table.insert(L(1), L(10))


class TestLeaderCount:
    def test_counts(self):
        cfg = CacheTableConfig(1, 1, 3, 2)
        table = LruCacheTable(cfg)
        assert len(table) == 0
        table.insert(L(1), L(10))
        assert len(table) == 1
        for i in range(cfg.lc + 1):
            table.insert(L(100 + i), L(10))
        assert len(table) == cfg.lc


class TestPeek:
    def test_absent(self):
        table = LruCacheTable(CacheTableConfig(1, 1, 2, 2))
        assert table.peek(L(9)) is None

    def test_equals_query_result(self):
        table = LruCacheTable(CacheTableConfig(1, 1, 2, 2))
        table.insert(L(1), L(10))
        table.insert(L(1), L(11))
        assert table.peek(L(1)) == table.query(L(1))

    def test_peek_has_no_recency_effect(self):
        real = LruCacheTable(CacheTableConfig(1, 1, 2, 2))
        ref = RefLruTable(1, 1, 2, 2)
        for leader, follower in [(1, 10), (2, 20)]:
            real.insert(L(leader), L(follower))
            ref.insert(L(leader), L(follower))
        real.peek(L(1))
        real.peek(L(1))
        # A query would have moved L(1) to most-recent; peek must not.
        real.insert(L(3), L(30))
        ref.insert(L(3), L(30))
        assert real.snapshot() == ref.state()


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
            assert real.query(leader) == ref.query(leader)
        else:
            real.insert(leader, follower)
            ref.insert(leader, follower)
        assert real.snapshot() == ref.state()


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
        assert len(table) <= lc
        assert all(len(fs) <= fc for _, fs in table.snapshot())


@given(ops=ops_strategy, probe=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_query_never_mutates_followers(ops, probe):
    table = LruCacheTable(CacheTableConfig(1, 1, 4, 2))
    for kind, a, b in ops:
        if kind == "query":
            table.query((a,))
        else:
            table.insert((a,), (b,))
    before = {leader: fs for leader, fs in table.snapshot()}
    table.query((probe,))
    after = {leader: fs for leader, fs in table.snapshot()}
    assert before == after  # same lists, only leader order may shift


@given(ops=ops_strategy)
@settings(max_examples=100, deadline=None)
def test_duplicate_insert_changes_no_counts(ops):
    table = LruCacheTable(CacheTableConfig(1, 1, 4, 2))
    rng = random.Random(0)
    for kind, a, b in ops:
        if kind == "insert":
            table.insert((a,), (b,))
    for leader, followers in table.snapshot():
        target = rng.choice(followers)
        leaders_before = len(table)
        length_before = len(followers)
        table.insert(leader, target)
        peeked = table.peek(leader)
        assert len(table) == leaders_before
        assert peeked is not None and len(peeked) == length_before
