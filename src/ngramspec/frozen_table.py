"""Immutable frequency-ranked cache table built offline from a corpus.

Counting slides a window of ``ll + fl`` tokens over each document (windows
never cross document boundaries); the first ``ll`` tokens are the leader and
the next ``fl`` the follower.  The built table keeps the ``lc`` most frequent
leaders, each with its ``fc`` most frequent followers in descending frequency.
Ties break by ascending lexicographic token-id order so rebuilds are
byte-identical.

Serialization format (CBFT), all integers little-endian:

    magic          4 bytes  b"CBFT"
    version        u32      1
    ll             u32
    fl             u32
    leader count   u64
    fc             u32
    per leader (stored most-frequent first, ties lexicographic):
        leader tokens    ll x u32
        follower count   u32
        follower tokens  (follower count) x (fl x u32)
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from .cache_table import CacheTableConfig, Follower, Leader

_MAGIC = b"CBFT"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIQI")


class FrozenTableLoadError(ValueError):
    """Malformed table bytes; ``offset`` points at the failing byte."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


@dataclass
class NGramCounts:
    """Window counts: leader frequency and conditional follower frequency."""

    leaders: Counter = field(default_factory=Counter)
    followers: dict[Leader, Counter] = field(default_factory=dict)

    def add_window(self, leader: Leader, follower: Follower) -> None:
        self.leaders[leader] += 1
        by_leader = self.followers.get(leader)
        if by_leader is None:
            by_leader = self.followers[leader] = Counter()
        by_leader[follower] += 1


def count_ngrams(streams: Iterable[Sequence[int]], tcfg: CacheTableConfig) -> NGramCounts:
    """Count every in-document window of ``ll + fl`` consecutive tokens.

    Documents shorter than one window contribute nothing.
    """
    counts = NGramCounts()
    ll, fl = tcfg.ll, tcfg.fl
    width = ll + fl
    for doc in streams:
        tokens = tuple(doc)
        for i in range(len(tokens) - width + 1):
            counts.add_window(tokens[i : i + ll], tokens[i + ll : i + width])
    return counts


@dataclass
class FrozenTable:
    """Read-only leader -> followers map, frequency-descending.

    ``entries`` preserves the frequency order of leaders; queries never
    mutate state, so one table can be shared by concurrent readers.
    """

    config: CacheTableConfig
    entries: dict[Leader, tuple[Follower, ...]]

    def __len__(self) -> int:
        return len(self.entries)

    def query(self, leader: Leader) -> list[Follower]:
        """Followers for ``leader`` in descending frequency, or []."""
        return list(self.entries.get(leader, ()))

    def save(self, sink: str | Path | BinaryIO) -> None:
        """Write the table in the CBFT format described in the module docs."""
        if hasattr(sink, "write"):
            _write(self, sink)  # type: ignore[arg-type]
        else:
            with open(sink, "wb") as fh:
                _write(self, fh)

    @classmethod
    def load(cls, source: str | Path | BinaryIO | bytes) -> "FrozenTable":
        """Parse CBFT bytes; raises :class:`FrozenTableLoadError` on damage."""
        if isinstance(source, bytes):
            data = source
        elif hasattr(source, "read"):
            data = source.read()  # type: ignore[union-attr]
        else:
            data = Path(source).read_bytes()
        return _parse(data)


def build_frozen(counts: NGramCounts, tcfg: CacheTableConfig) -> FrozenTable:
    """Keep the top-``lc`` leaders and, per leader, the top-``fc`` followers.

    Ranking is by descending count, then ascending lexicographic token-id
    order, which makes the result (and its serialization) deterministic.
    """
    ranked_leaders = sorted(counts.leaders.items(), key=lambda kv: (-kv[1], kv[0]))
    entries: dict[Leader, tuple[Follower, ...]] = {}
    for leader, _ in ranked_leaders[: tcfg.lc]:
        ranked = sorted(counts.followers[leader].items(), key=lambda kv: (-kv[1], kv[0]))
        entries[leader] = tuple(follower for follower, _ in ranked[: tcfg.fc])
    return FrozenTable(config=tcfg, entries=entries)


def _write(table: FrozenTable, fh: BinaryIO) -> None:
    cfg = table.config
    fh.write(_HEADER.pack(_MAGIC, _VERSION, cfg.ll, cfg.fl, len(table.entries), cfg.fc))
    for leader, followers in table.entries.items():
        if len(leader) != cfg.ll:
            raise ValueError(f"leader {leader!r} does not have length ll={cfg.ll}")
        fh.write(struct.pack(f"<{cfg.ll}I", *leader))
        fh.write(struct.pack("<I", len(followers)))
        for follower in followers:
            if len(follower) != cfg.fl:
                raise ValueError(f"follower {follower!r} does not have length fl={cfg.fl}")
            fh.write(struct.pack(f"<{cfg.fl}I", *follower))


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

    def take(fmt: str, width: int) -> tuple:
        nonlocal offset
        if offset + width > len(data):
            raise FrozenTableLoadError("truncated entry", len(data))
        out = struct.unpack_from(fmt, data, offset)
        offset += width
        return out

    entries: dict[Leader, tuple[Follower, ...]] = {}
    for _ in range(leader_count):
        at = offset
        leader = take(f"<{ll}I", 4 * ll)
        (n_followers,) = take("<I", 4)
        if n_followers > fc:
            raise FrozenTableLoadError(
                f"follower count {n_followers} exceeds fc={fc}", at
            )
        followers = tuple(take(f"<{fl}I", 4 * fl) for _ in range(n_followers))
        if leader in entries:
            raise FrozenTableLoadError(f"duplicate leader {leader!r}", at)
        entries[leader] = followers
    if offset != len(data):
        raise FrozenTableLoadError("trailing bytes after last leader", offset)
    return FrozenTable(config=config, entries=entries)
