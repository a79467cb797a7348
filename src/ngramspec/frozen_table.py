"""Immutable frequency-ranked cache table built offline from a corpus.

Counting slides a window of ``ll + fl`` tokens over each document (windows
never cross document boundaries); the first ``ll`` tokens are the leader and
the next ``fl`` the follower.  Token ids are u32: ``0 <= id < 2**32``.  The
work runs in NumPy over all documents at once: each window is packed into
one int64 key whose radix is the largest id + 1, so sorting the keys orders
the windows lexicographically, and runs of equal keys give each distinct
window's count.  A leader's count is the sum of its windows' counts.

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
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .cache_table import CacheTableConfig, Follower, Leader

_MAGIC = b"CBFT"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIQI")
_MAX_ID = 2**32 - 1


class FrozenTableLoadError(ValueError):
    """Malformed table bytes; ``offset`` points at the failing byte."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


@dataclass
class NGramCounts:
    """Distinct windows of ``ll + fl`` tokens and how often each occurs.

    ``windows`` is a ``(distinct, ll + fl)`` int64 array in ascending
    lexicographic order, so each leader's windows are contiguous; ``counts``
    holds their occurrence counts.  A leader's count is the sum of its
    windows' counts.
    """

    windows: np.ndarray
    counts: np.ndarray


def count_ngrams(streams: Iterable[Sequence[int]], tcfg: CacheTableConfig) -> NGramCounts:
    """Count every in-document window of ``ll + fl`` consecutive tokens.

    Documents shorter than one window contribute nothing.  Token ids must be
    in ``[0, 2**32)`` (CBFT stores u32 ids); others raise ``ValueError``.
    """
    docs = list(streams)
    width = tcfg.ll + tcfg.fl
    lengths = np.fromiter(map(len, docs), np.int64, len(docs))
    try:
        flat = np.fromiter(chain.from_iterable(docs), np.int64, int(lengths.sum()))
    except OverflowError as exc:
        raise ValueError(f"token ids must be in [0, 2**32): {exc}") from exc
    if flat.size and (flat.min() < 0 or flat.max() > _MAX_ID):
        raise ValueError(
            f"token ids must be in [0, 2**32), got {int(flat.min())}..{int(flat.max())}"
        )
    n_windows = flat.size - width + 1
    if n_windows <= 0:
        return NGramCounts(np.zeros((0, width), np.int64), np.zeros(0, np.int64))

    # Pack window i into key[i] = sum(flat[i + c] * base**(width-1-c)), so
    # that sorting keys orders windows lexicographically.  Before a fold
    # could pass 2**63, the keys are replaced by their dense ranks (np.unique
    # keeps their order), and ``prefix`` maps each rank back to the tokens
    # folded so far.
    base = int(flat.max()) + 1
    key = np.zeros(n_windows, np.int64)
    prefix = np.zeros((1, 0), np.int64)
    bound = 1  # every key is below it
    for c in range(width):
        if bound * base > 2**63:
            ranked, key = np.unique(key, return_inverse=True)
            prefix = _unpack(ranked, prefix, base, c - prefix.shape[1])
            bound = len(prefix)
            del ranked
        key *= base
        key += flat[c : c + n_windows]
        bound *= base
    # A window crosses a document end when its first and last tokens lie in
    # different documents; such keys become -1 and sort first.
    doc = np.repeat(np.arange(len(docs), dtype=np.int32), lengths)
    key[doc[:n_windows] != doc[width - 1 :]] = -1
    del doc, flat  # set-up's peak memory is the few n-length arrays alive at once

    key.sort()
    key = key[np.searchsorted(key, 0) :]
    head = np.empty(key.size, bool)
    head[:1] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    counts = np.diff(starts, append=key.size)
    key = key[starts]
    del head, starts
    return NGramCounts(_unpack(key, prefix, base, width - prefix.shape[1]), counts)


def _unpack(keys: np.ndarray, prefix: np.ndarray, base: int, k: int) -> np.ndarray:
    """Tokens of packed ``keys`` (consumed): the last ``k`` radix-``base``
    digits are tokens, the leading part is a row index into ``prefix``."""
    p = prefix.shape[1]
    out = np.empty((len(keys), p + k), np.int64)
    for c in reversed(range(p, p + k)):
        np.divmod(keys, base, out=(keys, out[:, c]))
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

    def save(self, sink: str | Path | BinaryIO) -> None:
        """Write the table in the CBFT format described in the module docs."""
        if hasattr(sink, "write"):
            _write(self, sink)  # type: ignore[arg-type]
        else:
            with open(sink, "wb") as fh:
                _write(self, fh)

    @classmethod
    def load(cls, source: str | Path | bytes) -> "FrozenTable":
        """Parse CBFT bytes, or the file at a path; raises
        :class:`FrozenTableLoadError` on damage."""
        return _parse(source if isinstance(source, bytes) else Path(source).read_bytes())


def build_frozen(counts: NGramCounts, tcfg: CacheTableConfig) -> FrozenTable:
    """Keep the top-``lc`` leaders and, per leader, those of its top-``fc``
    followers whose first token no better-ranked one of them carries.

    Ranking is by descending count, then ascending lexicographic token-id
    order, which makes the result (and its serialization) deterministic.
    The table's ``lc`` is the number of leaders kept (at least 1), as CBFT
    records it, so a built table equals its own round trip.
    """
    ll, width = tcfg.ll, tcfg.ll + tcfg.fl
    windows, counts = counts.windows, counts.counts
    if windows.shape[1] != width:
        raise ValueError(f"counted windows have {windows.shape[1]} tokens, not ll + fl = {width}")
    if not len(windows):
        return FrozenTable(config=replace(tcfg, lc=1), entries={})
    # Windows are sorted, so each leader's windows form one contiguous group.
    new_leader = np.empty(len(windows), bool)
    new_leader[0] = True
    np.any(windows[1:, :ll] != windows[:-1, :ll], axis=1, out=new_leader[1:])
    starts = np.flatnonzero(new_leader)
    group = np.cumsum(new_leader) - 1
    # Both sorts are stable, so equal counts keep lexicographic order.
    top = np.argsort(-np.add.reduceat(counts, starts), kind="stable")[: tcfg.lc]
    order = np.lexsort((-counts, group))  # by leader, then by descending count
    kept = order[np.arange(len(order)) - starts[group] < tcfg.fc]
    # Rank first, then keep only the best-ranked kept window of each run of
    # sorted windows that share a leader and a first follower token.
    run = np.cumsum(new_leader | np.r_[True, windows[1:, ll] != windows[:-1, ll]])
    kept = kept[np.sort(np.unique(run[kept], return_index=True)[1])]
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


def _write(table: FrozenTable, fh: BinaryIO) -> None:
    cfg = table.config
    ll, fl = cfg.ll, cfg.fl
    fh.write(_HEADER.pack(_MAGIC, _VERSION, ll, fl, len(table.entries), cfg.fc))
    for leader, followers in table.entries.items():
        if len(leader) != ll:
            raise ValueError(f"leader {leader!r} does not have length ll={ll}")
        if any(map(fl.__ne__, map(len, followers))):
            bad = next(f for f in followers if len(f) != fl)
            raise ValueError(f"follower {bad!r} does not have length fl={fl}")
        # One entry: leader tokens, follower count, follower tokens.
        fh.write(
            struct.pack(
                f"<{ll + 1 + fl * len(followers)}I",
                *leader,
                len(followers),
                *chain.from_iterable(followers),
            )
        )


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
