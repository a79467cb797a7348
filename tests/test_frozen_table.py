"""Counting, top-k building, querying, and the CBFT serialization format."""

from __future__ import annotations

import io
import random

import pytest

from ngramspec.cache_table import CacheTableConfig
from ngramspec.frozen_table import (
    FrozenTable,
    FrozenTableLoadError,
    build_frozen,
    count_ngrams,
)

from oracles import naive_frozen_map


def empty_table(tcfg):
    return build_frozen(count_ngrams([], tcfg), tcfg)


def distinct(counts):
    """Counted windows as {window tuple: count}."""
    return dict(zip(map(tuple, counts.windows.tolist()), counts.counts.tolist()))


class TestCountNgrams:
    def test_alternating_doc(self):
        tcfg = CacheTableConfig(1, 1, 8, 8)
        counts = count_ngrams([[10, 11, 10, 11, 10]], tcfg)
        assert counts.windows.tolist() == [[10, 11], [11, 10]]
        assert counts.counts.tolist() == [2, 2]

    def test_empty_corpus(self):
        counts = count_ngrams([], CacheTableConfig(1, 1, 8, 8))
        assert counts.windows.shape == (0, 2) and not len(counts.counts)

    def test_doc_one_token_short_of_a_window(self):
        tcfg = CacheTableConfig(2, 3, 8, 8)
        counts = count_ngrams([[1, 2, 3, 4]], tcfg)  # needs ll + fl = 5
        assert not distinct(counts)

    def test_windows_do_not_cross_documents(self):
        tcfg = CacheTableConfig(1, 1, 8, 8)
        assert not distinct(count_ngrams([[1], [2]], tcfg))
        counts = count_ngrams([[1, 2], [], [3], [4, 5, 6]], tcfg)
        assert distinct(counts) == {(1, 2): 1, (4, 5): 1, (5, 6): 1}

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**70], ids=["negative", "2**32", "2**70"])
    def test_ids_outside_u32_rejected(self, bad):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            count_ngrams([[1, 2, bad, 3]], CacheTableConfig(1, 1, 8, 8))

    def test_u32_extremes_accepted(self):
        top = 2**32 - 1
        counts = count_ngrams([[0, top, 0, top]], CacheTableConfig(2, 2, 8, 8))
        assert distinct(counts) == {(0, top, 0, top): 1}


class TestBuildFrozen:
    def test_top_one_follower(self):
        tcfg = CacheTableConfig(1, 1, 8, 1)
        table = build_frozen(count_ngrams([[1, 2]] * 3 + [[1, 3]], tcfg), tcfg)
        assert table.query((1,)) == ((2,),)

    def test_tie_breaks_by_token_order(self):
        tcfg = CacheTableConfig(1, 1, 8, 2)
        table = build_frozen(count_ngrams([[1, 5], [1, 5], [1, 3], [1, 3]], tcfg), tcfg)
        assert table.query((1,)) == ((3,), (5,))

    def test_leader_capacity_keeps_most_frequent(self):
        tcfg = CacheTableConfig(1, 1, 1, 4)
        table = build_frozen(count_ngrams([[1, 9]] * 5 + [[2, 9]] * 3, tcfg), tcfg)
        assert len(table.entries) == 1
        assert table.query((1,)) == ((9,),)
        assert table.query((2,)) == ()

    def test_first_token_rule_applies_after_the_fc_cut(self):
        # Ranked (2, 3) x3, (2, 4) x2, (5, 6) x1: fc=2 keeps the first two, and
        # (2, 4) shares (2, 3)'s first token.  Applying the rule before the cut
        # would keep (5, 6), which is ranked past fc.
        tcfg = CacheTableConfig(1, 2, 8, 2)
        docs = [[1, 2, 3]] * 3 + [[1, 2, 4]] * 2 + [[1, 5, 6]]
        table = build_frozen(count_ngrams(docs, tcfg), tcfg)
        assert table.query((1,)) == ((2, 3),)
        wider = CacheTableConfig(1, 2, 8, 3)
        assert build_frozen(count_ngrams(docs, wider), wider).query((1,)) == ((2, 3), (5, 6))

    def test_counts_of_another_shape_rejected(self):
        counts = count_ngrams([[1, 2, 3]], CacheTableConfig(1, 2, 8, 8))
        with pytest.raises(ValueError):
            build_frozen(counts, CacheTableConfig(1, 1, 8, 8))


class TestQueryFrozen:
    def test_absent_leader(self):
        table = empty_table(CacheTableConfig(1, 1, 4, 4))
        assert table.query((42,)) == ()

    def test_repeated_queries_identical(self):
        tcfg = CacheTableConfig(1, 2, 4, 4)
        counts = count_ngrams([[1, 2, 3, 1, 2, 3]], tcfg)
        table = build_frozen(counts, tcfg)
        first = table.query((1,))
        second = table.query((1,))
        assert first == second == ((2, 3),)


class TestSerialization:
    def test_empty_table_is_header_only(self):
        table = empty_table(CacheTableConfig(1, 3, 4, 2))
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
        table = empty_table(CacheTableConfig(1, 1, 4, 4))
        sink = io.BytesIO()
        table.save(sink)
        data = b"XXXX" + sink.getvalue()[4:]
        with pytest.raises(FrozenTableLoadError):
            FrozenTable.load(data)

    def test_unsupported_version_rejected(self):
        table = empty_table(CacheTableConfig(1, 1, 4, 4))
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

    def test_repeated_follower_rejected_at_its_leader(self):
        tcfg = CacheTableConfig(1, 2, 4, 4)
        table = FrozenTable(config=tcfg, entries={(7,): ((8, 9),), (1,): ((2, 3), (2, 3))})
        sink = io.BytesIO()
        table.save(sink)
        with pytest.raises(FrozenTableLoadError, match="same first token") as err:
            FrozenTable.load(sink.getvalue())
        assert err.value.offset == 28 + 16  # header, then the first entry

    def test_followers_with_one_first_token_rejected_at_their_leader(self):
        tcfg = CacheTableConfig(1, 2, 4, 4)
        entries = {(7,): ((8, 9), (9, 8)), (1,): ((5, 6), (2, 3), (2, 4))}
        sink = io.BytesIO()
        FrozenTable(config=tcfg, entries=entries).save(sink)
        with pytest.raises(FrozenTableLoadError, match="same first token.*rebuild") as err:
            FrozenTable.load(sink.getvalue())
        assert err.value.offset == 28 + 4 + 4 + 2 * 8  # header, then the first entry

    def test_trailing_garbage_rejected(self):
        table = empty_table(CacheTableConfig(1, 1, 4, 4))
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
    expected = naive_frozen_map(docs, ll, fl, lc, fc, stored=True)
    assert {k: list(v) for k, v in table.entries.items()} == expected
    # Leader storage order is frequency-descending with lexicographic ties.
    assert list(table.entries) == list(expected)


@pytest.mark.parametrize("seed", range(20))
def test_built_table_equals_its_round_trip(seed):
    """Loading a built table's CBFT bytes gives back the same table, shape
    included, when ``lc`` allows more leaders than the corpus has."""
    rng = random.Random(2000 + seed)
    ll, fl, fc = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
    docs = [
        [rng.randrange(6) for _ in range(rng.randint(0, 40))]
        for _ in range(rng.randint(0, 4))
    ]
    tcfg = CacheTableConfig(ll, fl, 2**20, fc)
    table = build_frozen(count_ngrams(docs, tcfg), tcfg)
    sink = io.BytesIO()
    table.save(sink)
    loaded = FrozenTable.load(sink.getvalue())
    assert loaded == table
    assert list(loaded.entries) == list(table.entries)


@pytest.mark.parametrize("seed", range(20))
def test_wide_ids_and_long_windows_match_naive_sorter(seed):
    """Ids up to 2**32 - 1 and windows of up to 8 tokens: the packed window
    keys outgrow int64, so counting re-ranks them (never, once late, or
    before every column, depending on the largest id)."""
    rng = random.Random(1000 + seed)
    ll, fl = 1 + seed % 4, 1 + seed // 4 % 4
    lc, fc = rng.randint(1, 8), rng.randint(1, 4)
    top = rng.choice([5, 2**16, 2**21, 2**32 - 1])
    alphabet = [0, top] + [rng.randrange(top) for _ in range(rng.randint(0, 2))]
    motif = [rng.choice(alphabet) for _ in range(ll + fl + 2)]
    docs = []
    for _ in range(rng.randint(1, 8)):  # empty, short and repetitive documents
        doc: list[int] = []
        for _ in range(rng.randint(0, 4)):
            doc.extend(motif if rng.random() < 0.5 else rng.choices(alphabet, k=rng.randint(0, 5)))
        docs.append(doc)
    tcfg = CacheTableConfig(ll, fl, lc, fc)
    table = build_frozen(count_ngrams(docs, tcfg), tcfg)
    expected = naive_frozen_map(docs, ll, fl, lc, fc, stored=True)
    assert {k: list(v) for k, v in table.entries.items()} == expected
    assert list(table.entries) == list(expected)
