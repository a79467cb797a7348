"""Counting, top-k building, querying, and the CBFT serialization format."""

from __future__ import annotations

import io
import random

import pytest

from ngramspec.cache_table import CacheTableConfig
from ngramspec.frozen_table import (
    FrozenTable,
    FrozenTableLoadError,
    NGramCounts,
    build_frozen,
    count_ngrams,
)

from oracles import naive_frozen_map


class TestCountNgrams:
    def test_alternating_doc(self):
        tcfg = CacheTableConfig(1, 1, 8, 8)
        counts = count_ngrams([[10, 11, 10, 11, 10]], tcfg)
        assert counts.leaders == {(10,): 2, (11,): 2}
        assert counts.followers[(10,)] == {(11,): 2}
        assert counts.followers[(11,)] == {(10,): 2}

    def test_empty_corpus(self):
        counts = count_ngrams([], CacheTableConfig(1, 1, 8, 8))
        assert not counts.leaders and not counts.followers

    def test_doc_one_token_short_of_a_window(self):
        tcfg = CacheTableConfig(2, 3, 8, 8)
        counts = count_ngrams([[1, 2, 3, 4]], tcfg)  # needs ll + fl = 5
        assert not counts.leaders

    def test_windows_do_not_cross_documents(self):
        tcfg = CacheTableConfig(1, 1, 8, 8)
        counts = count_ngrams([[1], [2]], tcfg)
        assert not counts.leaders


class TestBuildFrozen:
    def test_top_one_follower(self):
        tcfg = CacheTableConfig(1, 1, 8, 1)
        counts = NGramCounts()
        for _ in range(3):
            counts.add_window((1,), (2,))
        counts.add_window((1,), (3,))
        table = build_frozen(counts, tcfg)
        assert table.query((1,)) == [(2,)]

    def test_tie_breaks_by_token_order(self):
        tcfg = CacheTableConfig(1, 1, 8, 2)
        counts = NGramCounts()
        for follower in [(5,), (3,)]:
            counts.add_window((1,), follower)
            counts.add_window((1,), follower)
        table = build_frozen(counts, tcfg)
        assert table.query((1,)) == [(3,), (5,)]

    def test_leader_capacity_keeps_most_frequent(self):
        tcfg = CacheTableConfig(1, 1, 1, 4)
        counts = NGramCounts()
        for _ in range(5):
            counts.add_window((1,), (9,))
        for _ in range(3):
            counts.add_window((2,), (9,))
        table = build_frozen(counts, tcfg)
        assert len(table) == 1
        assert table.query((1,)) == [(9,)]
        assert table.query((2,)) == []


class TestQueryFrozen:
    def test_absent_leader(self):
        table = build_frozen(NGramCounts(), CacheTableConfig(1, 1, 4, 4))
        assert table.query((42,)) == []

    def test_repeated_queries_identical(self):
        tcfg = CacheTableConfig(1, 2, 4, 4)
        counts = count_ngrams([[1, 2, 3, 1, 2, 3]], tcfg)
        table = build_frozen(counts, tcfg)
        first = table.query((1,))
        second = table.query((1,))
        assert first == second == [(2, 3)]


class TestSerialization:
    def test_empty_table_is_header_only(self):
        table = build_frozen(NGramCounts(), CacheTableConfig(1, 3, 4, 2))
        sink = io.BytesIO()
        table.save(sink)
        assert len(sink.getvalue()) == 28

    def test_round_trip_identity(self, tmp_path):
        tcfg = CacheTableConfig(2, 2, 8, 4)
        counts = count_ngrams([[1, 2, 3, 4, 1, 2, 3, 4, 5, 6]], tcfg)
        table = build_frozen(counts, tcfg)
        path = tmp_path / "table.cbft"
        table.save(path)
        loaded = FrozenTable.load(path)
        assert loaded.entries == table.entries
        assert (loaded.config.ll, loaded.config.fl, loaded.config.fc) == (2, 2, 4)
        for leader in table.entries:
            assert loaded.query(leader) == table.query(leader)
        # Byte-identical on re-save.
        sink = io.BytesIO()
        loaded.save(sink)
        assert sink.getvalue() == path.read_bytes()

    def test_corrupted_magic_rejected(self):
        table = build_frozen(NGramCounts(), CacheTableConfig(1, 1, 4, 4))
        sink = io.BytesIO()
        table.save(sink)
        data = b"XXXX" + sink.getvalue()[4:]
        with pytest.raises(FrozenTableLoadError):
            FrozenTable.load(data)

    def test_unsupported_version_rejected(self):
        table = build_frozen(NGramCounts(), CacheTableConfig(1, 1, 4, 4))
        sink = io.BytesIO()
        table.save(sink)
        data = sink.getvalue()
        data = data[:4] + (99).to_bytes(4, "little") + data[8:]
        with pytest.raises(FrozenTableLoadError) as err:
            FrozenTable.load(data)
        assert err.value.offset == 4

    def test_truncation_reports_offset(self):
        tcfg = CacheTableConfig(1, 1, 4, 4)
        counts = count_ngrams([[1, 2, 1, 2]], tcfg)
        table = build_frozen(counts, tcfg)
        sink = io.BytesIO()
        table.save(sink)
        data = sink.getvalue()[:-3]
        with pytest.raises(FrozenTableLoadError) as err:
            FrozenTable.load(data)
        assert err.value.offset == len(data)

    def test_trailing_garbage_rejected(self):
        table = build_frozen(NGramCounts(), CacheTableConfig(1, 1, 4, 4))
        sink = io.BytesIO()
        table.save(sink)
        with pytest.raises(FrozenTableLoadError):
            FrozenTable.load(sink.getvalue() + b"\x00")

    def test_identical_corpus_builds_identical_bytes(self):
        tcfg = CacheTableConfig(1, 2, 16, 4)
        docs = [[3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], [1, 4, 1, 4, 2, 1, 4]]
        blobs = []
        for _ in range(2):
            table = build_frozen(count_ngrams(docs, tcfg), tcfg)
            sink = io.BytesIO()
            table.save(sink)
            blobs.append(sink.getvalue())
        assert blobs[0] == blobs[1]


@pytest.mark.parametrize("seed", range(25))
def test_top_k_matches_naive_sorter(seed):
    rng = random.Random(seed)
    ll = rng.randint(1, 2)
    fl = rng.randint(1, 2)
    lc = rng.randint(1, 6)
    fc = rng.randint(1, 3)
    docs = [
        [rng.randrange(5) for _ in range(rng.randint(0, 30))]
        for _ in range(rng.randint(1, 5))
    ]
    tcfg = CacheTableConfig(ll, fl, lc, fc)
    table = build_frozen(count_ngrams(docs, tcfg), tcfg)
    expected = naive_frozen_map(docs, ll, fl, lc, fc)
    assert {k: list(v) for k, v in table.entries.items()} == expected
    # Leader storage order is frequency-descending with lexicographic ties.
    assert list(table.entries) == list(expected)
