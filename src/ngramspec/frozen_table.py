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
from typing import BinaryIO

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

    # Pack window i into key[i] = sum(ids[i + c] * base**(width-1-c)), so
    # that sorting keys orders windows lexicographically.  Before a fold
    # could pass 2**63, the keys are replaced by their dense ranks (np.unique
    # keeps their order), and ``prefix`` maps each rank back to the tokens
    # folded so far.
    base = int(ids.max()) + 1
    key = ids[:n_windows].astype(np.int64)
    prefix = np.zeros((1, 0), np.uint32)
    bound = base  # every key is below it
    for c in range(1, width):
        if bound * base > 2**63:
            ranked, key = np.unique(key, return_inverse=True)
            prefix = _unpack(ranked, prefix, base, c - prefix.shape[1])
            bound = len(prefix)
            del ranked
        key *= base
        key += ids[c : c + n_windows]
        bound *= base
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
    mutate state, so one table can be shared by concurrent readers.
    """

    config: CacheTableConfig
    entries: dict[Leader, tuple[Follower, ...]]

    def query(self, leader: Leader) -> tuple[Follower, ...]:
        """The stored followers for ``leader`` in descending frequency, or ()."""
        return self.entries.get(leader, ())

    def save(self, sink: str | Path | BinaryIO) -> bytes:
        """Write the table in the CBFT format described in the module docs to
        a path or a file sink, and return the bytes written.  Every entry is
        checked before anything is written."""
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
    # sorted windows that share a leader and a first follower token.
    run = np.cumsum(new_leader | np.r_[True, windows[1:, ll] != windows[:-1, ll]], dtype=index)
    kept = kept[np.sort(np.unique(run[kept], return_index=True)[1])]
    in_top = np.zeros(len(starts), bool)
    in_top[top] = True
    kept = kept[in_top[group[kept]]]  # only the returned leaders' followers become tuples
    sizes = np.bincount(group[kept], minlength=len(starts))
    ends = np.cumsum(sizes)
    begins = ends - sizes
    leaders = zip(*windows[starts[top], :ll].T.tolist())
    followers = list(zip(*windows[kept, ll:].T.tolist()))
    entries = {
        leader: tuple(followers[b:e])
        for leader, b, e in zip(leaders, begins[top].tolist(), ends[top].tolist())
    }
    return FrozenTable(config=replace(tcfg, lc=len(entries)), entries=entries)


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
        # One entry: leader tokens, follower count, follower tokens.
        words.extend(leader)
        words.append(len(followers))
        words.extend(chain.from_iterable(followers))
    header = _HEADER.pack(_MAGIC, _VERSION, ll, fl, len(table.entries), cfg.fc)
    return header + np.asarray(words, "<u4").tobytes()


def _parse(data: bytes) -> FrozenTable:
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
    entries: dict[Leader, tuple[Follower, ...]] = {}
    for _ in range(leader_count):
        at = offset
        if offset + head.size > len(data):
            raise FrozenTableLoadError("truncated entry", len(data))
        *leader, n_followers = head.unpack_from(data, offset)
        offset += head.size
        if n_followers > fc:
            raise FrozenTableLoadError(
                f"follower count {n_followers} exceeds fc={fc}", at
            )
        width = 4 * fl * n_followers
        if offset + width > len(data):
            raise FrozenTableLoadError("truncated entry", len(data))
        tokens = struct.unpack_from(f"<{fl * n_followers}I", data, offset)
        offset += width
        leader = tuple(leader)
        if leader in entries:
            raise FrozenTableLoadError(f"duplicate leader {leader!r}", at)
        if len(set(tokens[::fl])) != n_followers:
            raise FrozenTableLoadError(
                f"leader {leader!r} lists two followers with the same first token; rebuild the table", at
            )
        # zip's argument list holds fl iterators, so skip it when none are stored.
        entries[leader] = tuple(zip(*[iter(tokens)] * fl)) if n_followers else ()
    if offset != len(data):
        raise FrozenTableLoadError("trailing bytes after last leader", offset)
    return FrozenTable(config=config, entries=entries)
