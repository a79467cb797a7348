"""Bounded two-level LRU table mapping leader n-grams to follower n-grams.

Leaders and followers are fixed-length tuples of token ids.  The table holds
at most ``lc`` leaders, each with at most ``fc`` followers.  Leader recency is
refreshed by both queries and inserts; follower recency is refreshed only by
insertion, and a follower's recency is compared only against followers of the
same leader.

Leaders live in an ``OrderedDict`` (hash map + doubly linked list), each
leader's followers in a plain list, newest first: a query and a leader
eviction are O(1), an insert is O(fc) in C (one membership scan plus a memmove).
``insert_windows`` is the one routine that slides the ``ll + fl`` window over
a token sequence; it seeds an empty table in one backward pass that does not
go through ``insert``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

Leader = tuple[int, ...]
Follower = tuple[int, ...]


def check_int(name: str, value: object, least: int = 1) -> None:
    """The one rule for an integer setting: an ``int``, not a ``bool``, and at
    least ``least`` (1 or 0); otherwise ``ValueError`` naming the setting."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        kind = "positive" if least == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


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
            check_int(name, getattr(self, name))


class LruCacheTable:
    """Leader -> followers map with two-level LRU eviction.

    The outer ``OrderedDict`` orders leaders by recency (least recent first);
    each leader's list orders its followers by insertion recency (most recent
    first).  A query returns that list and refreshes the leader's recency,
    but never touches follower recency.

    Single-writer: one decode task owns a table at a time.  Queries mutate
    recency, so concurrent readers are not supported.

    ``insert_windows`` leaves the table as one ``insert`` per window would,
    but seeds an empty table without calling ``insert``.
    """

    __slots__ = ("config", "_entries", "_ll", "_fl", "_lc", "_fc")

    def __init__(self, config: CacheTableConfig) -> None:
        self.config = config
        # Copies of the config fields keep the per-op attribute chain short.
        self._ll, self._fl = config.ll, config.fl
        self._lc, self._fc = config.lc, config.fc
        self._entries: OrderedDict[Leader, list[Follower]] = OrderedDict()

    def query(self, leader: Leader) -> Sequence[Follower]:
        """Return the leader's followers, most recently inserted first.

        A hit refreshes the leader's recency and returns the stored list
        itself: callers must not mutate it, and it is valid until the next
        insert for that leader (the draft builder makes none while it
        iterates; the table is single-writer).  An absent leader yields
        ``()`` and leaves the table untouched.
        """
        if len(leader) != self._ll:
            raise ValueError(
                f"leader length {len(leader)} does not match ll={self._ll}"
            )
        followers = self._entries.get(leader)
        if followers is None:
            return ()
        self._entries.move_to_end(leader)
        return followers

    def insert(self, leader: Leader, follower: Follower) -> Leader | Follower | None:
        """Record that ``follower`` was observed right after ``leader``.

        A new leader evicts the least recent leader (its followers go with
        it) once ``lc`` is reached and starts with this one follower.  A known
        leader becomes the most recent; unless the follower is already first,
        it is moved or added to the front and the least recent follower past
        ``fc`` is popped.  Returns the dropped leader or follower, if any.
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
        if followers is None:
            dropped = None
            if len(self._entries) >= self._lc:
                dropped = self._entries.popitem(last=False)[0]
            self._entries[leader] = [follower]
            return dropped
        self._entries.move_to_end(leader)
        if followers[0] == follower:
            return None
        if follower in followers:
            followers.remove(follower)
        followers.insert(0, follower)
        return followers.pop() if len(followers) > self._fc else None

    def insert_windows(self, tokens: Sequence[int], start: int = 0) -> None:
        """Insert the (leader, follower) pair of every ``ll + fl`` window of
        ``tokens`` that ends at or after index ``start``, oldest first.

        The table ends exactly as one ``insert`` per window would leave it.
        A non-empty table gets one ``insert`` per window.  An empty table is
        filled in one pass from the newest window back instead (see
        ``_fill``), unless the windows hold more than ``lc`` distinct leaders.
        """
        ll, width = self._ll, self._ll + self._fl
        src = tuple(tokens[max(0, start - width + 1) :])
        if not self._entries and self._fill(src):
            return
        for i in range(len(src) - width + 1):
            self.insert(src[i : i + ll], src[i + ll : i + width])

    def _fill(self, src: tuple[int, ...]) -> bool:
        """Fill the empty table with every window of ``src``, newest first;
        return False, leaving it empty, past ``lc`` distinct leaders.

        Inserting oldest first would leave each leader the ``fc`` distinct
        followers it saw last, newest first, and the leaders ordered by their
        last window: backwards, the first ``fc`` distinct followers met, and
        the leaders in reverse order of first meeting.  Past ``lc`` leaders,
        an evicted leader could return with fewer followers.  A new leader
        starts with the follower of its newest window.  Column ``k`` holds
        token ``k`` of every window, newest first, and zipping the columns
        makes each window's leader and follower without a slice per window.
        """
        ll, width, lc, fc = self._ll, self._ll + self._fl, self._lc, self._fc
        last = max(0, len(src) - width + 1)  # the number of windows
        cols = [reversed(src[k : k + last]) for k in range(width)]
        seen: dict[Leader, list[Follower]] = {}
        for leader, follower in zip(zip(*cols[:ll]), zip(*cols[ll:])):
            followers = seen.get(leader)
            if followers is None:
                if len(seen) == lc:
                    return False
                seen[leader] = [follower]
            elif len(followers) < fc and follower not in followers:
                followers.append(follower)
        self._entries = OrderedDict(reversed(seen.items()))
        return True
