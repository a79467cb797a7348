"""Bounded two-level LRU table mapping leader n-grams to follower n-grams.

Leaders and followers are fixed-length tuples of token ids.  The table holds
at most ``lc`` leaders, each with at most ``fc`` followers.  Leader recency is
refreshed by both queries and inserts; follower recency is refreshed only by
insertion, and a follower's recency is compared only against followers of the
same leader.

Backed by nested ``OrderedDict`` (hash map + doubly linked list), so query,
insert, and eviction are all O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Collection
from dataclasses import dataclass

Leader = tuple[int, ...]
Follower = tuple[int, ...]


@dataclass(frozen=True)
class CacheTableConfig:
    """Shape and capacity of a cache table.

    ll / fl are the leader / follower lengths in tokens; lc / fc are the
    maximum number of leaders per table / followers per leader.  All four
    must be strictly positive.
    """

    ll: int
    fl: int
    lc: int
    fc: int

    def __post_init__(self) -> None:
        for name in ("ll", "fl", "lc", "fc"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


class LruCacheTable:
    """Leader -> followers map with two-level LRU eviction.

    The outer ``OrderedDict`` orders leaders by recency (least recent first);
    each inner ``OrderedDict`` orders one leader's followers by insertion
    recency (most recent first).  A query returns them in that order and
    refreshes the leader's recency, but never touches follower recency.

    Single-writer: one decode task owns a table at a time.  Queries mutate
    recency, so concurrent readers are not supported.
    """

    __slots__ = ("config", "_entries", "_ll", "_fl", "_lc", "_fc")

    def __init__(self, config: CacheTableConfig) -> None:
        self.config = config
        # Copies of the config fields keep the per-op attribute chain short.
        self._ll, self._fl = config.ll, config.fl
        self._lc, self._fc = config.lc, config.fc
        self._entries: OrderedDict[Leader, OrderedDict[Follower, None]] = OrderedDict()

    def query(self, leader: Leader) -> Collection[Follower]:
        """Return the leader's followers, most recently inserted first.

        A hit refreshes the leader's recency and returns a live view, valid
        until the next insert for that leader (the draft builder makes none
        while it iterates; the table is single-writer).  An absent leader
        yields ``()`` and leaves the table untouched.
        """
        if len(leader) != self._ll:
            raise ValueError(
                f"leader length {len(leader)} does not match ll={self._ll}"
            )
        followers = self._entries.get(leader)
        if followers is None:
            return ()
        self._entries.move_to_end(leader)
        return followers.keys()

    def insert(self, leader: Leader, follower: Follower) -> Leader | Follower | None:
        """Record that ``follower`` was observed right after ``leader``.

        The follower becomes the leader's most recent entry; re-inserting an
        existing follower moves it to the front without duplication.  Returns
        the key the capacity bounds dropped, if any: the least recent leader
        (its followers go with it) or this leader's least recent follower.
        """
        if len(leader) != self._ll:
            raise ValueError(
                f"leader length {len(leader)} does not match ll={self._ll}"
            )
        if len(follower) != self._fl:
            raise ValueError(
                f"follower length {len(follower)} does not match fl={self._fl}"
            )
        followers = self._entries.get(leader)
        if followers is not None:
            self._entries.move_to_end(leader)
            if follower in followers:
                followers.move_to_end(follower, last=False)
                return None
            followers[follower] = None
            followers.move_to_end(follower, last=False)
            if len(followers) > self._fc:
                return followers.popitem()[0]
            return None
        dropped = None
        if len(self._entries) >= self._lc:
            dropped = self._entries.popitem(last=False)[0]
        self._entries[leader] = OrderedDict({follower: None})
        return dropped
