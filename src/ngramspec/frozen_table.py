"""Immutable frequency-ranked cache table built offline from a corpus.

Counting slides a window of ``ll + fl`` tokens over each document (windows
crossing a document end, found from the document lengths, are dropped); the
first ``ll`` tokens are the leader and the next ``fl`` the follower.  Token
ids are u32: ``0 <= id < 2**32``.  The work runs in NumPy over one u32 array
of all documents at once: each window is packed into one int64 key whose
radix is the largest id + 1, so sorting the keys orders the windows
lexicographically, and runs of equal keys give each distinct window's count.
Keys are int64 only while packing: the distinct windows are unpacked into
u32 columns.  A leader's count is the sum of its windows' counts.

The built table keeps the ``lc`` most frequent leaders, each with those of
its ``fc`` most frequent followers that no more frequent one shares a first
token with (a draft tree hangs one follower per first token), in descending
frequency.  Ties break by ascending lexicographic token-id order so rebuilds
are byte-identical.  Loading rejects a leader with two same-first-token followers.

Entries are read-only tuples, and a built or loaded table holds each distinct
follower once: equal followers, under however many leaders, are one shared
tuple, and equal token ids, in leaders and followers, one shared int.  Equal
rows are found by sorting packed int64 row keys before any tuple is made.

Serialization format (CBFT), all integers little-endian:

    magic          4 bytes  b"CBFT"
    version        u32      1
    ll             u32
    fl             u32
    leader count   u64
    fc             u32
    per leader (stored most-frequent first, ties lexicographic):
        leader tokens    ll x u32
        follower count   u32 (at most fc)
        follower tokens  (follower count) x (fl x u32), distinct first tokens
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .cache_table import CacheTableConfig, Follower, Leader

_MAGIC = b"CBFT"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIQI")


class FrozenTableLoadError(ValueError):
    """Malformed table bytes; ``offset`` points at the failing byte."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


def count_ngrams(ids: array, ends: array, tcfg: CacheTableConfig) -> tuple[np.ndarray, np.ndarray]:
    """Count every in-document window of ``ll + fl`` consecutive tokens.

    ``ids`` is every document's token ids end to end in one u32 buffer, such
    as an ``array('I')`` (CBFT stores u32 ids), read in place, not copied;
    ``ends`` is the int64 cumulative document lengths, such as an
    ``array('q')``.  Documents shorter than one window contribute nothing.

    Returns ``(windows, counts)``: ``windows`` is a ``(distinct, ll + fl)``
    uint32 array whose rows are sorted in ascending lexicographic order and
    distinct, so each leader's windows are contiguous rows; ``counts`` holds
    their int64 occurrence counts, each at least 1.
    """
    width = tcfg.ll + tcfg.fl
    ids, ends = np.frombuffer(ids, np.uint32), np.frombuffer(ends, np.int64)
    if (ends[-1] if ends.size else 0) != ids.size or np.any(np.diff(ends, prepend=0) < 0):
        raise ValueError("document ends must be ascending and end at the last id")
    n_windows = ids.size - width + 1
    if n_windows <= 0:
        return np.zeros((0, width), np.uint32), np.zeros(0, np.int64)

    base = int(ids.max()) + 1
    key, prefix = _pack([ids[c : c + n_windows] for c in range(width)], base)
    # The windows starting at e - width + 1 ... e - 1 cross the document end
    # e (a cumulative length); their keys become -1 and sort first.
    for back in range(1, width):
        cross = ends - back
        key[cross[(cross >= 0) & (cross < n_windows)]] = -1

    key.sort()
    key = key[np.searchsorted(key, 0) :]
    head = np.empty(key.size, bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    key = key[head]  # the n-length keys are freed before the counts are made
    counts = np.flatnonzero(head)  # run starts, made run lengths in place
    counts[:-1] = np.diff(counts)
    counts[-1:] = head.size - counts[-1:]
    del head
    return _unpack(key, prefix, base, width - prefix.shape[1]), counts


def _pack(columns: Sequence[np.ndarray], base: int) -> tuple[np.ndarray, np.ndarray]:
    """Int64 keys of the rows whose u32 tokens, all below ``base``, are the
    equal-length ``columns``, and the ``prefix`` table that ``_unpack`` reads
    them back with.  Row i's key is sum(columns[c][i] * base**(k-1-c)), so
    sorting keys orders rows lexicographically.  Before a fold could pass
    2**63, the keys are replaced by their dense ranks (np.unique keeps their
    order), and ``prefix`` maps each rank back to the tokens folded so far."""
    key = columns[0].astype(np.int64)
    prefix = np.zeros((1, 0), np.uint32)
    bound = base  # every key is below it
    for c in range(1, len(columns)):
        if bound * base > 2**63:
            ranked, key = np.unique(key, return_inverse=True)
            prefix = _unpack(ranked, prefix, base, c - prefix.shape[1])
            bound = len(prefix)
            del ranked
        key *= base
        key += columns[c]
        bound *= base
    return key, prefix


def _unpack(keys: np.ndarray, prefix: np.ndarray, base: int, k: int) -> np.ndarray:
    """The u32 token columns of packed int64 ``keys`` (consumed): the last
    ``k`` radix-``base`` digits are tokens, the leading part is a row index
    into the u32 ``prefix`` table."""
    p = prefix.shape[1]
    out = np.empty((len(keys), p + k), np.uint32)
    for c in reversed(range(p, p + k)):  # a remainder is below base <= 2**32
        np.divmod(keys, base, out=(keys, out[:, c]), casting="unsafe")
    out[:, :p] = prefix[keys]
    return out


@dataclass
class FrozenTable:
    """Read-only leader -> followers map, frequency-descending.

    ``entries`` preserves the frequency order of leaders; queries never
    mutate state, so one table can be shared by concurrent readers.  In a
    built or loaded table, equal followers are one shared tuple and equal ids
    one shared int; the tuples are immutable, so sharing them is safe.
    """

    config: CacheTableConfig
    entries: dict[Leader, tuple[Follower, ...]]

    def query(self, leader: Leader) -> tuple[Follower, ...]:
        """The stored followers for ``leader`` in descending frequency, or ()."""
        return self.entries.get(leader, ())

    def save(self, sink: str | Path | BinaryIO) -> bytes:
        """Write the table in the CBFT format described in the module docs to
        a path or a file sink, and return the bytes written.  Each entry's
        lengths, follower count and u32 ids are checked first, so a bad entry
        writes nothing; the first-token rule, a set per entry, is left to load."""
        data = _encode(self)
        if hasattr(sink, "write"):
            sink.write(data)  # type: ignore[union-attr]
        else:
            Path(sink).write_bytes(data)
        return data

    @classmethod
    def load(cls, source: str | Path | bytes) -> "FrozenTable":
        """Parse CBFT bytes, or the file at a path; raises
        :class:`FrozenTableLoadError` on damage."""
        return _parse(source if isinstance(source, bytes) else Path(source).read_bytes())


def build_frozen(windows: np.ndarray, counts: np.ndarray, tcfg: CacheTableConfig) -> FrozenTable:
    """Keep the top-``lc`` leaders and, per leader, those of its top-``fc``
    followers whose first token no better-ranked one of them carries.

    ``windows`` and ``counts`` are as ``count_ngrams`` returns them: sorted,
    distinct windows of ``ll + fl`` tokens and their counts.  Ranking is by
    descending count, then ascending lexicographic token-id order, which
    makes the result (and its serialization) deterministic.  The table's
    ``lc`` is the number of leaders kept (at least 1), as CBFT records it,
    so a built table equals its own round trip.
    """
    ll, width = tcfg.ll, tcfg.ll + tcfg.fl
    if windows.shape[1] != width:
        raise ValueError(f"counted windows have {windows.shape[1]} tokens, not ll + fl = {width}")
    if not len(windows):
        return FrozenTable(config=replace(tcfg, lc=1), entries={})
    # Window indices fit int32 below 2**31 windows; the sort key is int64, as
    # an int32 product would wrap silently.
    index = np.int32 if len(windows) < 2**31 else np.int64
    # Windows are sorted, so each leader's windows form one contiguous group.
    new_leader = np.empty(len(windows), bool)
    new_leader[0] = True
    np.any(windows[1:, :ll] != windows[:-1, :ll], axis=1, out=new_leader[1:])
    starts = np.flatnonzero(new_leader).astype(index)
    group = np.cumsum(new_leader, dtype=index) - 1
    # Both sorts are stable, so equal counts keep lexicographic order.
    top = np.argsort(-np.add.reduceat(counts, starts), kind="stable")[: tcfg.lc]
    # By leader, then by descending count: counts lie in [1, max], so one key sorts both.
    rank = np.multiply(group, counts.max() + 1, dtype=np.int64) - counts
    kept = np.argsort(rank, kind="stable").astype(index)
    del rank
    kept = kept[np.arange(len(kept), dtype=index) - starts[group] < tcfg.fc]
    # Rank first, then keep only the best-ranked kept window of each run of
    # sorted windows that share a leader and a first follower token: the one
    # at the run's first position in rank order.
    run = np.cumsum(new_leader | np.r_[True, windows[1:, ll] != windows[:-1, ll]], dtype=index)
    first = np.full(int(run[-1]) + 1, len(kept), index)
    run = run[kept]
    at = np.arange(len(kept), dtype=index)
    np.minimum.at(first, run, at)
    kept = kept[first[run] == at]
    del run, at, first
    in_top = np.zeros(len(starts), bool)
    in_top[top] = True
    kept = kept[in_top[group[kept]]]  # only the returned leaders' followers become tuples
    sizes = np.bincount(group[kept], minlength=len(starts))
    ends = np.cumsum(sizes)
    begins = ends - sizes
    entries = _entries(
        windows[starts[top], :ll], windows[kept, ll:], begins[top].tolist(), ends[top].tolist()
    )
    return FrozenTable(config=replace(tcfg, lc=len(entries)), entries=entries)


def _entries(
    leaders: np.ndarray, followers: np.ndarray, begins: list[int], ends: list[int]
) -> dict[Leader, tuple[Follower, ...]]:
    """The entries made from u32 rows, in order: leader ``i`` is row ``i`` of
    ``leaders``, and its followers are rows ``begins[i]:ends[i]`` of
    ``followers``.  Equal follower rows become one shared tuple and equal ids
    one shared int, leaders' ids included, so a table holds each distinct
    follower and id once, however many leaders list it."""
    ll, fl = leaders.shape[1], followers.shape[1]
    rows, row_of = followers, np.zeros(0, np.intp)
    if len(followers):  # the distinct follower rows, found on packed keys
        base = int(followers.max()) + 1
        key, prefix = _pack(followers.T, base)
        key, row_of = np.unique(key, return_inverse=True)
        rows = _unpack(key, prefix, base, fl - prefix.shape[1])
    ids, id_of = np.unique(np.concatenate([leaders.ravel(), rows.ravel()]), return_inverse=True)
    shared = np.array(ids.tolist(), object)[id_of]  # one int per distinct id
    del rows, ids, id_of
    distinct = _tuples(shared[leaders.size :], fl)
    shared_rows = np.fromiter(distinct, object, len(distinct))[row_of].tolist()
    del distinct, row_of
    return {
        leader: tuple(shared_rows[b:e])
        for leader, b, e in zip(_tuples(shared[: leaders.size], ll), begins, ends)
    }


def _tuples(flat: np.ndarray, k: int) -> list[tuple]:
    """The objects of ``flat`` as tuples of ``k``.  No objects make no tuples,
    as the columns of an empty (0, k) array would make k empty lists."""
    return list(zip(*flat.reshape(-1, k).T.tolist())) if len(flat) else []


def _encode(table: FrozenTable) -> bytes:
    """The table's CBFT bytes: the header, then every entry in one u32 buffer."""
    cfg = table.config
    ll, fl = cfg.ll, cfg.fl
    words = array("I")
    for leader, followers in table.entries.items():
        if len(leader) != ll:
            raise ValueError(f"leader {leader!r} does not have length ll={ll}")
        if any(map(fl.__ne__, map(len, followers))):
            bad = next(f for f in followers if len(f) != fl)
            raise ValueError(f"follower {bad!r} does not have length fl={fl}")
        if len(followers) > cfg.fc:
            raise ValueError(f"leader {leader!r} has {len(followers)} followers, more than fc={cfg.fc}")
        # One entry: leader tokens, follower count, follower tokens.
        try:
            words.extend(leader)
            words.append(len(followers))
            words.extend(chain.from_iterable(followers))
        except OverflowError as exc:
            raise ValueError(f"leader {leader!r}: token ids must be in [0, 2**32): {exc}") from exc
    header = _HEADER.pack(_MAGIC, _VERSION, ll, fl, len(table.entries), cfg.fc)
    return header + np.asarray(words, "<u4").tobytes()


def _parse(data: bytes) -> FrozenTable:
    """The table in CBFT ``data``, read in one walk that checks each entry
    where it stands, in file order, and raises :class:`FrozenTableLoadError`
    at the first fault's offset."""
    if len(data) < _HEADER.size:
        raise FrozenTableLoadError("truncated header", len(data))
    magic, version, ll, fl, leader_count, fc = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise FrozenTableLoadError(f"bad magic {magic!r}", 0)
    if version != _VERSION:
        raise FrozenTableLoadError(f"unsupported format version {version}", 4)
    offset = _HEADER.size
    try:
        config = CacheTableConfig(ll=ll, fl=fl, lc=max(1, leader_count), fc=fc)
    except ValueError as exc:
        raise FrozenTableLoadError(f"invalid table shape: {exc}", 8) from exc

    head = struct.Struct(f"<{ll + 1}I")  # leader tokens, follower count
    view = memoryview(data)
    # The file's u32 words in host byte order, for the first-token rule:
    # byte order cannot change whether two tokens are distinct.
    words = view[: len(data) // 4 * 4].cast("I")
    seen: set[Leader] = set()
    leader_words, follower_words, sizes = bytearray(), bytearray(), array("q")
    for _ in range(leader_count):
        at = offset
        if offset + head.size > len(data):
            raise FrozenTableLoadError("truncated entry", len(data))
        *leader, n_followers = head.unpack_from(data, offset)
        offset += head.size
        if n_followers > fc:
            raise FrozenTableLoadError(f"follower count {n_followers} exceeds fc={fc}", at)
        width = 4 * fl * n_followers
        if offset + width > len(data):
            raise FrozenTableLoadError("truncated entry", len(data))
        leader = tuple(leader)
        if leader in seen:
            raise FrozenTableLoadError(f"duplicate leader {leader!r}", at)
        seen.add(leader)
        if n_followers > 1 and len(set(words[offset // 4 : (offset + width) // 4 : fl])) < n_followers:
            raise FrozenTableLoadError(
                f"leader {leader!r} lists two followers with the same first token; rebuild the table", at
            )
        leader_words += view[at : at + 4 * ll]
        follower_words += view[offset : offset + width]
        sizes.append(n_followers)
        offset += width
    if offset != len(data):
        raise FrozenTableLoadError("trailing bytes after last leader", offset)
    del seen
    leaders = np.frombuffer(leader_words, "<u4").reshape(len(sizes), ll)
    followers = np.frombuffer(follower_words, "<u4").reshape(sum(sizes), fl)
    ends = np.cumsum(sizes)
    entries = _entries(leaders, followers, (ends - sizes).tolist(), ends.tolist())
    return FrozenTable(config=config, entries=entries)
