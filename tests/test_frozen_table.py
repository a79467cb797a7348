"""Counting, top-k building, querying, and the CBFT serialization format."""

from __future__ import annotations

import io
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngramspec import cli
from ngramspec.cache_table import CacheTableConfig
from ngramspec.frozen_table import (
    FrozenTable,
    FrozenTableLoadError,
    build_frozen,
    count_ngrams,
)

from corpus import diverse_docs, flat, repetitive_docs
from oracles import (
    cbft_bytes,
    naive_frozen_map,
    naive_window_counts,
    ranked_window_map,
    reference_load,
)


def empty_table(tcfg):
    return build_frozen(*count_ngrams(*flat([]), tcfg), tcfg)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak traced memory it allocated above what was
    allocated before the call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def traced_size(fn, *args):
    """``fn(*args)`` and the traced memory it left allocated, its result's."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def assert_shared(table):
    """Each distinct follower of ``table`` is one tuple, and each distinct
    id, in leaders and followers, one int."""
    followers = [f for fs in table.entries.values() for f in fs]
    ids = [t for f in followers for t in f] + [t for leader in table.entries for t in leader]
    assert len({id(f) for f in followers}) == len(set(followers))
    assert len({id(t) for t in ids}) == len(set(ids))


def build_with_ids(tmp_path, monkeypatch, ids):
    """Build ``t.cbft`` from a one-line corpus that tokenizes to ``ids``."""
    src = tmp_path / "corpus.txt"
    src.write_text("one line\n", encoding="utf-8")
    monkeypatch.setattr(cli, "tokenize", lambda *args: ids)
    cli.cmd_build_table([src], tmp_path / "t.cbft", CacheTableConfig(1, 1, 8, 8))


def distinct(counted):
    """Counted ``(windows, counts)`` as {window tuple: count}."""
    windows, counts = counted
    return dict(zip(map(tuple, windows.tolist()), counts.tolist()))


class TestCountNgrams:
    def test_alternating_doc(self):
        tcfg = CacheTableConfig(1, 1, 8, 8)
        windows, counts = count_ngrams(*flat([[10, 11, 10, 11, 10]]), tcfg)
        assert windows.tolist() == [[10, 11], [11, 10]]
        assert counts.tolist() == [2, 2]

    def test_empty_corpus(self):
        windows, counts = count_ngrams(*flat([]), CacheTableConfig(1, 1, 8, 8))
        assert windows.shape == (0, 2) and not len(counts)

    def test_doc_one_token_short_of_a_window(self):
        tcfg = CacheTableConfig(2, 3, 8, 8)
        assert not distinct(count_ngrams(*flat([[1, 2, 3, 4]]), tcfg))  # needs ll + fl = 5

    def test_windows_do_not_cross_documents(self):
        tcfg = CacheTableConfig(1, 1, 8, 8)
        assert not distinct(count_ngrams(*flat([[1], [2]]), tcfg))
        counted = count_ngrams(*flat([[1, 2], [], [3], [4, 5, 6]]), tcfg)
        assert distinct(counted) == {(1, 2): 1, (4, 5): 1, (5, 6): 1}

    @pytest.mark.parametrize(
        "bad",
        [-1, 2**32, 2**70, np.int64(-1), np.int64(2**32)],
        ids=["negative", "2**32", "2**70", "np-negative", "np-2**32"],
    )
    def test_ids_outside_u32_rejected(self, tmp_path, monkeypatch, bad):
        # Ids enter the u32 array as the corpus streams in, and are refused there.
        with pytest.raises(ValueError, match="2\\*\\*32"):
            build_with_ids(tmp_path, monkeypatch, [1, 2, bad, 3])
        assert not (tmp_path / "t.cbft").exists()

    @pytest.mark.parametrize("bad", [2.5, np.float64(2.0), "3"], ids=["float", "np-float", "str"])
    def test_non_integer_ids_rejected(self, tmp_path, monkeypatch, bad):
        with pytest.raises(ValueError, match=r"integers in \[0, 2\*\*32\)"):
            build_with_ids(tmp_path, monkeypatch, [1, 2, bad, 3])
        assert not (tmp_path / "t.cbft").exists()

    @pytest.mark.parametrize("ends", [[3], [5], [2, 1, 4], [-1, 4]])
    def test_ends_that_do_not_split_the_ids_rejected(self, ends):
        with pytest.raises(ValueError, match="document ends"):
            count_ngrams(array("I", [1, 2, 3, 4]), array("q", ends), CacheTableConfig(1, 1, 8, 8))

    def test_u32_extremes_accepted(self):
        top = 2**32 - 1
        counted = count_ngrams(*flat([[0, top, 0, top]]), CacheTableConfig(2, 2, 8, 8))
        assert distinct(counted) == {(0, top, 0, top): 1}

    def test_peak_memory_per_token(self):
        # An int64 packed key per token (8 bytes), its run-head mask (1 byte)
        # and little else above the input (9.44 bytes a token): the u32 ids
        # are read in place.  A u32 copy of them would add 4 bytes a token.
        docs = repetitive_docs()
        n_tokens = sum(map(len, docs))
        assert n_tokens >= 200_000
        _, peak = traced_peak(count_ngrams, *flat(docs), CacheTableConfig(1, 3, 8, 8))
        assert peak / n_tokens <= 10

    def test_peak_memory_per_token_when_windows_are_distinct(self):
        # Nearly one distinct window per token: the n-length keys are freed
        # before the per-window counts are made, and windows are unpacked
        # straight into u32 columns.  int64 columns made while the n-length
        # keys are alive peak at 46.8 bytes a token.
        docs = diverse_docs()
        n_tokens = sum(map(len, docs))
        (windows, _), peak = traced_peak(count_ngrams, *flat(docs), CacheTableConfig(1, 3, 8, 8))
        assert len(windows) >= 0.95 * n_tokens
        assert peak / n_tokens <= 33

    def test_counted_windows_take_24_bytes_each(self):
        # Four u32 ids and an int64 count; int64 ids would take 40 bytes.
        windows, counts = count_ngrams(*flat(diverse_docs()), CacheTableConfig(1, 3, 8, 8))
        assert windows.dtype == np.uint32
        assert (windows.nbytes + counts.nbytes) / len(windows) == 24


class TestBuildFrozen:
    def test_top_one_follower(self):
        tcfg = CacheTableConfig(1, 1, 8, 1)
        table = build_frozen(*count_ngrams(*flat([[1, 2]] * 3 + [[1, 3]]), tcfg), tcfg)
        assert table.query((1,)) == ((2,),)

    def test_tie_breaks_by_token_order(self):
        tcfg = CacheTableConfig(1, 1, 8, 2)
        table = build_frozen(*count_ngrams(*flat([[1, 5], [1, 5], [1, 3], [1, 3]]), tcfg), tcfg)
        assert table.query((1,)) == ((3,), (5,))

    def test_leader_capacity_keeps_most_frequent(self):
        tcfg = CacheTableConfig(1, 1, 1, 4)
        table = build_frozen(*count_ngrams(*flat([[1, 9]] * 5 + [[2, 9]] * 3), tcfg), tcfg)
        assert len(table.entries) == 1
        assert table.query((1,)) == ((9,),)
        assert table.query((2,)) == ()

    def test_first_token_rule_applies_after_the_fc_cut(self):
        # Ranked (2, 3) x3, (2, 4) x2, (5, 6) x1: fc=2 keeps the first two, and
        # (2, 4) shares (2, 3)'s first token.  Applying the rule before the cut
        # would keep (5, 6), which is ranked past fc.
        tcfg = CacheTableConfig(1, 2, 8, 2)
        docs = [[1, 2, 3]] * 3 + [[1, 2, 4]] * 2 + [[1, 5, 6]]
        table = build_frozen(*count_ngrams(*flat(docs), tcfg), tcfg)
        assert table.query((1,)) == ((2, 3),)
        wider = CacheTableConfig(1, 2, 8, 3)
        assert build_frozen(*count_ngrams(*flat(docs), wider), wider).query((1,)) == ((2, 3), (5, 6))

    def test_peak_memory_per_window(self):
        # Ranking peaks at 29.0 bytes a window above the input while it marks
        # each run's first window (int32 run ids, positions, per-run minima
        # and their gather, beside int32 group ids and indices), and at 28.1
        # in the stable argsort of the int64 sort key.  Marking with
        # np.unique peaked at 48.8 bytes a window, and int64 indices at 77.7.
        tcfg = CacheTableConfig(1, 3, 8, 8)
        windows, counts = count_ngrams(*flat(diverse_docs()), tcfg)
        _, peak = traced_peak(build_frozen, windows, counts, tcfg)
        assert peak / len(windows) <= 32

    def test_sort_key_does_not_overflow(self):
        # group * (max count + 1) passes 2**31 from about the 2,048th leader
        # with counts near 2**20, and from the second leader on with the one
        # count near 2**40; int32 arithmetic would wrap or raise.
        rng = random.Random(3)
        windows = [(leader, f) for leader in range(70_001) for f in range(leader % 3 + 1)]
        counts = [2**20 - rng.randrange(1000) for _ in windows]
        counts[1] = 2**40 + 3
        tcfg = CacheTableConfig(1, 1, 60_000, 2)
        table = build_frozen(np.array(windows, np.uint32), np.array(counts), tcfg)
        expected = ranked_window_map(windows, counts, 1, 60_000, 2, stored=True)
        assert {k: list(v) for k, v in table.entries.items()} == expected
        assert list(table.entries) == list(expected)

    def test_counts_of_another_shape_rejected(self):
        counted = count_ngrams(*flat([[1, 2, 3]]), CacheTableConfig(1, 2, 8, 8))
        with pytest.raises(ValueError):
            build_frozen(*counted, CacheTableConfig(1, 1, 8, 8))


class TestSharedObjects:
    def test_built_and_loaded_tables_share_equal_followers_and_ids(self):
        # Phrase ends lead into the next phrase's start, so one follower
        # follows many leaders; ids run to 400, past the ints CPython caches.
        docs = repetitive_docs(n_docs=500)
        tcfg = CacheTableConfig(1, 3, 2**20, 128)
        built = build_frozen(*count_ngrams(*flat(docs), tcfg), tcfg)
        loaded = FrozenTable.load(built.save(io.BytesIO()))
        expected = naive_frozen_map(docs, 1, 3, 2**20, 128, stored=True)
        for table in (built, loaded):
            assert {k: list(v) for k, v in table.entries.items()} == expected
            assert list(table.entries) == list(expected)
            followers = [f for fs in table.entries.values() for f in fs]
            assert len(followers) > 3 * len(set(followers))
            assert max(max(f) for f in followers) > 256
            assert_shared(table)

    def test_loaded_table_bytes_per_follower(self):
        # A follower costs its 8-byte slot in its leader's tuple plus its
        # share of one 64-byte tuple per distinct follower (399 for 2,545
        # followers) and of each leader's tuples and dict slot: 32.9 bytes.
        # A tuple and its own ints per follower took 111.4 bytes.
        tcfg = CacheTableConfig(1, 3, 2**20, 128)
        data = build_frozen(*count_ngrams(*flat(repetitive_docs()), tcfg), tcfg).save(io.BytesIO())
        table, size = traced_size(FrozenTable.load, data)
        assert size / sum(map(len, table.entries.values())) <= 36


class TestQueryFrozen:
    def test_absent_leader(self):
        table = empty_table(CacheTableConfig(1, 1, 4, 4))
        assert table.query((42,)) == ()

    def test_repeated_queries_identical(self):
        tcfg = CacheTableConfig(1, 2, 4, 4)
        table = build_frozen(*count_ngrams(*flat([[1, 2, 3, 1, 2, 3]]), tcfg), tcfg)
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
        table = build_frozen(*count_ngrams(*flat([[1, 2, 3, 4, 1, 2, 3, 4, 5, 6]]), tcfg), tcfg)
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

    def test_save_returns_the_bytes_written(self, tmp_path):
        tcfg = CacheTableConfig(2, 2, 8, 4)
        table = build_frozen(*count_ngrams(*flat([[1, 2, 3, 4, 1, 2, 3, 4, 5, 6]]), tcfg), tcfg)
        path, sink = tmp_path / "table.cbft", io.BytesIO()
        assert table.save(path) == path.read_bytes()
        assert table.save(sink) == sink.getvalue() == path.read_bytes()

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
        table = build_frozen(*count_ngrams(*flat([[1, 2, 1, 2]]), tcfg), tcfg)
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

    @pytest.mark.parametrize("cut", [0, 1, 27])
    def test_truncated_header_rejected_at_its_end(self, cut):
        data = cbft_bytes([], 1, 1, 4)[:cut]
        with pytest.raises(FrozenTableLoadError, match="truncated header") as err:
            FrozenTable.load(data)
        assert err.value.offset == len(data)

    @pytest.mark.parametrize("ll, fl, fc", [(0, 1, 4), (1, 0, 4), (1, 1, 0)])
    def test_invalid_shape_rejected_at_the_shape_fields(self, ll, fl, fc):
        with pytest.raises(FrozenTableLoadError, match="invalid table shape") as err:
            FrozenTable.load(cbft_bytes([], ll, fl, fc))
        assert err.value.offset == 8

    @pytest.mark.parametrize("cut", [0, 1, 8, 11])
    def test_entry_cut_inside_its_leader_head_rejected(self, cut):
        # ll=2: an entry's head is two leader tokens and a follower count.
        whole = cbft_bytes([((7, 1), ((8,),)), ((1, 2), ((3,),))], 2, 1, 4)
        data = whole[: 28 + 16 + cut]  # header, first entry, part of the second head
        with pytest.raises(FrozenTableLoadError, match="truncated entry") as err:
            FrozenTable.load(data)
        assert err.value.offset == len(data)

    @pytest.mark.parametrize(
        "later, cut",
        [
            ([((1,), ((2, 3),))], 3),
            ([((1,), ((2, 3), (4, 5), (6, 7)))], 0),  # fc=2
            ([((1,), ()), ((7,), ((2, 3),))], 0),
            ([((1,), ())], -1),
        ],
        ids=["truncated", "count-above-fc", "duplicate-leader", "trailing-bytes"],
    )
    def test_first_token_clash_reported_before_a_later_fault(self, later, cut):
        # The first entry repeats first token 8; ``cut`` bytes come off the
        # end, or, at -1, one byte is added.
        data = cbft_bytes([((7,), ((8, 9), (8, 1))), *later], 1, 2, 2)
        data = data[: len(data) - cut] if cut >= 0 else data + b"\x00"
        with pytest.raises(FrozenTableLoadError, match="same first token") as err:
            FrozenTable.load(data)
        assert err.value.offset == 28  # the first entry

    def test_follower_count_above_fc_rejected_at_its_entry(self):
        data = cbft_bytes([((7,), ((8,),)), ((1,), ((2,), (3,)))], 1, 1, 1)
        with pytest.raises(FrozenTableLoadError, match="follower count 2 exceeds fc=1") as err:
            FrozenTable.load(data)
        assert err.value.offset == 28 + 12  # header, then the first entry

    def test_duplicate_leader_rejected_at_its_second_entry(self):
        data = cbft_bytes([((7,), ((8,),)), ((1,), ()), ((7,), ((9,),))], 1, 1, 4)
        with pytest.raises(FrozenTableLoadError, match="duplicate leader") as err:
            FrozenTable.load(data)
        assert err.value.offset == 28 + 12 + 8  # header, then the first two entries

    @pytest.mark.parametrize(
        "entries, match",
        [
            ({(1,): ((2,),)}, "leader .* ll=2"),
            ({(1, 2): ((3,), (4, 5))}, "follower .* fl=1"),
            ({(5, 6): ((7,),), (1, 2): ((3,), (4, 5))}, "follower .* fl=1"),
        ],
    )
    def test_save_rejects_keys_of_the_wrong_length(self, tmp_path, entries, match):
        # Every entry is checked before anything is written, so a rejected
        # save leaves no partial file that would later load as truncated.
        table = FrozenTable(config=CacheTableConfig(2, 1, 4, 4), entries=entries)
        sink = io.BytesIO()
        with pytest.raises(ValueError, match=match):
            table.save(sink)
        assert sink.getvalue() == b""
        path = tmp_path / "t.cbft"
        with pytest.raises(ValueError, match=match):
            table.save(path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "fc, entries, match",
        [
            (1, {(1,): ((2, 3), (5, 4))}, r"leader \(1,\) has 2 followers, more than fc=1"),
            (2, {(2**32,): ((2, 3),)}, r"leader \(4294967296,\): token ids must be in \[0, 2\*\*32\)"),
            (2, {(1,): ((2, 3),), (5,): ((-1, 3),)}, r"leader \(5,\): token ids"),
            (2, {(1,): ((2, 2**32),)}, r"leader \(1,\): token ids"),
        ],
        ids=["count-above-fc", "leader-id-2**32", "follower-id-minus-one", "follower-id-2**32"],
    )
    def test_save_rejects_counts_above_fc_and_ids_outside_u32(self, tmp_path, fc, entries, match):
        # A follower count above fc would load as an error; an id outside
        # u32 has no CBFT encoding.  Either is a ValueError naming the entry,
        # raised before anything is written.
        table = FrozenTable(config=CacheTableConfig(1, 2, 4, fc), entries=entries)
        sink = io.BytesIO()
        with pytest.raises(ValueError, match=match):
            table.save(sink)
        assert sink.getvalue() == b""
        path = tmp_path / "t.cbft"
        with pytest.raises(ValueError, match=match):
            table.save(path)
        assert not path.exists()

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
            table = build_frozen(*count_ngrams(*flat(docs), tcfg), tcfg)
            sink = io.BytesIO()
            table.save(sink)
            blobs.append(sink.getvalue())
        assert blobs[0] == blobs[1]


u32_docs = st.lists(
    st.lists(st.sampled_from([0, 1, 7, 2**16, 2**32 - 1]) | st.integers(0, 2**32 - 1), max_size=12),
    max_size=6,
)


@given(docs=u32_docs, ll=st.integers(1, 3), fl=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_u32_array_documents_count_as_lists(docs, ll, fl):
    """Documents held end to end in one ``array('I')``, as the CLI streams
    them, count as the same ids in per-document lists do: empty, short and
    extreme-id documents too.  Counting reads the array and leaves it as it was."""
    ids, ends = flat(docs)
    counted = count_ngrams(ids, ends, CacheTableConfig(ll, fl, 8, 8))
    assert counted[0].dtype == np.uint32
    assert distinct(counted) == naive_window_counts(docs, ll + fl)
    assert ids.tolist() == [token for doc in docs for token in doc]
    ids.append(0)  # no view of the array outlives counting


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
    table = build_frozen(*count_ngrams(*flat(docs), tcfg), tcfg)
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
    table = build_frozen(*count_ngrams(*flat(docs), tcfg), tcfg)
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
    table = build_frozen(*count_ngrams(*flat(docs), tcfg), tcfg)
    expected = naive_frozen_map(docs, ll, fl, lc, fc, stored=True)
    assert {k: list(v) for k, v in table.entries.items()} == expected
    assert list(table.entries) == list(expected)
    loaded = FrozenTable.load(table.save(io.BytesIO()))
    assert loaded == table
    assert_shared(table)
    assert_shared(loaded)


@given(data=st.data(), ll=st.integers(1, 3), fl=st.integers(1, 3), fc=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_load_matches_the_reference_reader(data, ll, fl, fc):
    """Random tables over ids 0..3, so first tokens often clash, with up to
    three damages, so several faults can meet in one file: a repeated leader,
    a bumped follower count, a header leader count off by one, a truncation
    or appended bytes.  The load gives the reference reader's entries in
    their order, or its first fault's message and offset."""
    token = st.integers(0, 3)
    entry = st.tuples(st.tuples(*[token] * ll), st.lists(st.tuples(*[token] * fl), max_size=fc))
    entries = data.draw(st.lists(entry, max_size=5, unique_by=lambda e: e[0]))
    kinds = st.sampled_from(["leader", "count", "header", "cut", "append"])
    damages = data.draw(st.lists(kinds, max_size=3))
    if "leader" in damages and len(entries) > 1:
        pair = st.lists(st.integers(0, len(entries) - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(data.draw(pair))
        entries[j] = (entries[i][0], entries[j][1])
    blob = bytearray(cbft_bytes(entries, ll, fl, fc))
    counts, at = [], 28  # the offset of each entry's follower count
    for _, followers in entries:
        counts.append(at + 4 * ll)
        at += 4 * (ll + 1 + fl * len(followers))
    for damage in damages:
        if damage == "count" and counts:
            k = data.draw(st.sampled_from(counts))
            if k + 4 <= len(blob):
                blob[k : k + 4] = (int.from_bytes(blob[k : k + 4], "little") + 1).to_bytes(4, "little")
        elif damage == "header" and len(blob) >= 24:
            n = int.from_bytes(blob[16:24], "little") + data.draw(st.sampled_from([-1, 1]))
            blob[16:24] = max(n, 0).to_bytes(8, "little")
        elif damage == "cut":
            del blob[data.draw(st.integers(0, len(blob))) :]
        elif damage == "append":
            blob += data.draw(st.binary(min_size=1, max_size=9))
    blob = bytes(blob)
    try:
        got = list(FrozenTable.load(blob).entries.items())
    except FrozenTableLoadError as exc:
        got = (str(exc), exc.offset)
    want = reference_load(blob)
    if isinstance(want, dict):
        assert got == list(want.items())
    else:
        assert got == (f"{want[0]} (at byte {want[1]})", want[1])
