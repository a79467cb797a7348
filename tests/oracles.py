"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (linear scans, explicit
recency lists, path re-derivation from scratch) and shares no code with the
package under test.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence


class RefLruTable:
    """List-based reference for the two-level LRU table.

    Leaders are kept in an explicit recency list (least recent first); each
    leader's followers in an insertion-recency list (least recent first).
    Every operation is a linear scan.
    """

    def __init__(self, ll: int, fl: int, lc: int, fc: int) -> None:
        self.ll, self.fl, self.lc, self.fc = ll, fl, lc, fc
        self.rows: list[list] = []  # [leader, [followers oldest-first]]

    def _find(self, leader):
        for i, row in enumerate(self.rows):
            if row[0] == leader:
                return i
        return None

    def query(self, leader) -> list:
        at = self._find(leader)
        if at is None:
            return []
        row = self.rows.pop(at)
        self.rows.append(row)  # refresh leader recency
        return list(reversed(row[1]))

    def insert(self, leader, follower):
        """Record the pair; return the leader or follower the capacity bounds
        dropped (the head of the list that overflowed), or None."""
        at = self._find(leader)
        if at is not None:
            row = self.rows.pop(at)
            self.rows.append(row)
            followers = row[1]
            if follower in followers:
                followers.remove(follower)
                followers.append(follower)  # re-insert refreshes recency
            else:
                followers.append(follower)
                if len(followers) > self.fc:
                    return followers.pop(0)
            return None
        dropped = None
        if len(self.rows) >= self.lc:
            dropped = self.rows.pop(0)[0]
        self.rows.append([leader, [follower]])
        return dropped

    def peek(self, leader):
        at = self._find(leader)
        if at is None:
            return None
        return list(reversed(self.rows[at][1]))

    def state(self) -> list:
        """Observable state: (leader, followers newest-first), LRU to MRU."""
        return [(row[0], list(reversed(row[1]))) for row in self.rows]


def peek(table, leader):
    """An ``LruCacheTable``'s followers of ``leader``, most recently inserted
    first, read from its entries without touching recency; None if absent."""
    followers = table._entries.get(leader)
    return None if followers is None else list(followers)


def snapshot(table) -> list:
    """An ``LruCacheTable``'s whole state read from its entries, in the shape
    of ``RefLruTable.state``: (leader, followers newest-first), LRU to MRU."""
    return [(leader, list(followers)) for leader, followers in table._entries.items()]


def naive_window_counts(docs: Sequence[Sequence[int]], width: int) -> dict[tuple, int]:
    """How often each in-document window of ``width`` tokens occurs."""
    counts: dict[tuple, int] = {}
    for doc in docs:
        toks = tuple(doc)
        for i in range(len(toks) - width + 1):
            window = toks[i : i + width]
            counts[window] = counts.get(window, 0) + 1
    return counts


def sampled_lines(texts: Sequence[str], fraction: float, seed: int) -> list[str]:
    """The line documents a seeded Bernoulli sample keeps from files with these
    texts, in order: one ``random.Random(seed).random()`` per non-blank line,
    and the line is kept when the draw is below ``fraction``."""
    rng = random.Random(seed)
    lines = [line for text in texts for line in text.splitlines() if line.strip()]
    return [line for line in lines if rng.random() < fraction]


def naive_frozen_map(
    docs: Sequence[Sequence[int]], ll: int, fl: int, lc: int, fc: int, *, stored: bool = False
) -> dict[tuple, list[tuple]]:
    """Brute-force frequency table: count every in-document window, then
    rank the counted windows with ``ranked_window_map``."""
    counted = naive_window_counts(docs, ll + fl)
    return ranked_window_map(list(counted), list(counted.values()), ll, lc, fc, stored=stored)


def ranked_window_map(
    windows: Sequence[Sequence[int]], counts: Sequence[int], ll: int, lc: int, fc: int, *, stored: bool = False
) -> dict[tuple, list[tuple]]:
    """Brute-force ranking of counted windows: sum each leader's counts, sort
    with explicit comparison keys, keep the top lc leaders / fc followers.

    With ``stored``, the map a CBFT file holds: each leader's top fc list is
    then walked in order, and a follower is dropped when one listed before it
    starts with the same token."""
    leader_counts: dict[tuple, int] = {}
    follower_counts: dict[tuple, dict[tuple, int]] = {}
    for window, count in zip(windows, counts):
        leader, follower = tuple(window[:ll]), tuple(window[ll:])
        leader_counts[leader] = leader_counts.get(leader, 0) + count
        slot = follower_counts.setdefault(leader, {})
        slot[follower] = slot.get(follower, 0) + count
    top_leaders = sorted(leader_counts, key=lambda L: (-leader_counts[L], L))[:lc]
    out: dict[tuple, list[tuple]] = {}
    for leader in top_leaders:
        slot = follower_counts[leader]
        ranked = sorted(slot, key=lambda F: (-slot[F], F))[:fc]
        if stored:
            firsts = [F[0] for F in ranked]
            ranked = [F for i, F in enumerate(ranked) if F[0] not in firsts[:i]]
        out[leader] = ranked
    return out


def cbft_bytes(table_map, ll: int, fl: int, fc: int) -> bytes:
    """CBFT serialization of a leader -> followers map, in its order, written
    field by field from the format description with ``int.to_bytes``.  A list
    of (leader, followers) pairs also serializes, unchecked: it may repeat a
    leader or break the shape, as damaged files do."""

    def u32(value: int) -> bytes:
        return value.to_bytes(4, "little")

    entries = list(table_map.items()) if isinstance(table_map, dict) else list(table_map)
    out = b"CBFT" + u32(1) + u32(ll) + u32(fl) + len(entries).to_bytes(8, "little") + u32(fc)
    for leader, followers in entries:
        for token in leader:
            out += u32(token)
        out += u32(len(followers))
        for follower in followers:
            for token in follower:
                out += u32(token)
    return out


def reference_load(data: bytes) -> dict[tuple, tuple] | tuple[str, int]:
    """CBFT bytes read field by field with ``int.from_bytes``, following the
    format in ``frozen_table``'s module docstring.  Returns the entries as a
    leader -> followers dict in file order, or, for damaged bytes, the
    ``(message, offset)`` of the first fault in file order: the header, then
    per entry its truncation, its follower count above fc, a repeated leader
    and a repeated first token, then bytes after the last entry."""

    def u32(at: int) -> int:
        return int.from_bytes(data[at : at + 4], "little")

    if len(data) < 28:
        return "truncated header", len(data)
    if data[:4] != b"CBFT":
        return f"bad magic {data[:4]!r}", 0
    if u32(4) != 1:
        return f"unsupported format version {u32(4)}", 4
    ll, fl, count, fc = u32(8), u32(12), int.from_bytes(data[16:24], "little"), u32(24)
    for name, value in (("ll", ll), ("fl", fl), ("fc", fc)):
        if value < 1:
            return f"invalid table shape: {name} must be a positive integer, got {value}", 8
    entries: dict[tuple, tuple] = {}
    at = 28
    for _ in range(count):
        if at + 4 * (ll + 1) > len(data):
            return "truncated entry", len(data)
        leader = tuple(u32(at + 4 * i) for i in range(ll))
        n = u32(at + 4 * ll)
        if n > fc:
            return f"follower count {n} exceeds fc={fc}", at
        body = at + 4 * (ll + 1)
        if body + 4 * fl * n > len(data):
            return "truncated entry", len(data)
        if leader in entries:
            return f"duplicate leader {leader!r}", at
        followers = tuple(tuple(u32(body + 4 * (fl * j + i)) for i in range(fl)) for j in range(n))
        if len({follower[0] for follower in followers}) < n:
            message = "lists two followers with the same first token; rebuild the table"
            return f"leader {leader!r} {message}", at
        entries[leader] = followers
        at = body + 4 * fl * n
    if at != len(data):
        return "trailing bytes after last leader", at
    return entries


def brute_build_tree(
    context: Sequence[int],
    pending_len: int,
    dynamic: RefLruTable | None,
    frozen_map: dict[tuple, list[tuple]] | None,
    tdl: int,
    crt: int,
    ll: int,
    fl: int,
) -> list[dict]:
    """Naive two-phase BFS tree builder.

    Nodes are dicts with token/parent/depth.  Paths are re-derived from
    scratch on every expansion; budget checks mirror the stated rules: a
    whole fl-token chain must fit, chains off the anchor fit within
    tdl - crt, everything fits within tdl.  A follower whose first token an
    earlier follower of the same parent already hung is skipped.
    """
    nodes: list[dict] = []
    if len(context) < ll:
        return nodes

    def path_tokens(at):
        out = []
        while at is not None:
            out.append(nodes[at]["token"])
            at = nodes[at]["parent"]
        return list(reversed(out))

    hung: dict[object, set] = {}

    def expand(queue: list, lookup: Callable[[tuple], list]) -> None:
        while queue:
            if pending_len + len(nodes) + fl > tdl:
                return
            parent = queue.pop(0)
            seq = list(context) + (path_tokens(parent) if parent is not None else [])
            followers = lookup(tuple(seq[-ll:]))
            cap = tdl - crt if parent is None else tdl
            seen = hung.setdefault(parent, set())
            for fol in followers:
                fol = tuple(fol)
                if pending_len + len(nodes) + fl > cap:
                    continue
                if fol[0] in seen:
                    continue
                seen.add(fol[0])
                at = parent
                depth = nodes[parent]["depth"] if parent is not None else 0
                for token in fol:
                    depth += 1
                    nodes.append({"token": token, "parent": at, "depth": depth})
                    at = len(nodes) - 1
                queue.append(at)

    if dynamic is not None:
        expand([None], dynamic.query)
    if frozen_map is not None:
        parents_with_children = {n["parent"] for n in nodes}
        leaves: list = [] if None in parents_with_children else [None]
        leaves.extend(i for i in range(len(nodes)) if i not in parents_with_children)
        expand(leaves, lambda leader: frozen_map.get(leader, []))
    return nodes


def brute_child_index(nodes: Sequence[tuple]) -> dict:
    """(parent, token) -> the first node index carrying that pair, found by
    scanning every (token, parent, depth) node in order."""
    index: dict = {}
    for i, (token, parent, _depth) in enumerate(nodes):
        if (parent, token) not in index:
            index[(parent, token)] = i
    return index


def brute_chain_index(nodes: list[dict], fl: int) -> dict:
    """(parent, first token) -> (chain end, chain tokens) for the chains of
    a ``brute_build_tree`` tree: every ``fl``-th node heads a chain of the
    ``fl`` nodes that follow it in order."""
    index: dict = {}
    for head in range(0, len(nodes), fl):
        chain = nodes[head : head + fl]
        key = (chain[0]["parent"], chain[0]["token"])
        index[key] = (head + fl - 1, tuple(node["token"] for node in chain))
    return index


def brute_max_depth(nodes: Sequence[tuple]) -> int:
    """Depth of the deepest (token, parent, depth) node, 0 for no nodes."""
    deepest = 0
    for _token, _parent, depth in nodes:
        deepest = max(deepest, depth)
    return deepest


def linear_accept(
    nodes: Sequence[tuple], committed: Sequence[int], greedy_next: Callable
) -> tuple[list[int], int]:
    """Greedy acceptance walk that rescans the whole node list at every
    level for the first child of the current node carrying the verifier's
    token.  Returns the accepted node indices and the bonus token."""
    accepted: list[int] = []
    path: list[int] = []
    at = None
    while True:
        expect = greedy_next(list(committed) + path)
        match = None
        for i, (token, parent, _depth) in enumerate(nodes):
            if parent == at and token == expect:
                match = i
                break
        if match is None:
            return accepted, expect
        accepted.append(match)
        path.append(expect)
        at = match


def brute_kgram_next(docs: Sequence[Sequence[int]], order: int, prefix: Sequence[int]) -> int:
    """The k-gram verifier's next token, by rescanning every document: the
    most frequent token after the last ``order`` tokens of ``prefix`` (ties
    to the smallest id), else the most frequent token overall."""
    after: dict[int, int] = {}
    overall: dict[int, int] = {}
    context = list(prefix[-order:]) if len(prefix) >= order else None
    for doc in docs:
        for i, token in enumerate(doc):
            overall[token] = overall.get(token, 0) + 1
            if context is not None and i >= order and list(doc[i - order : i]) == context:
                after[token] = after.get(token, 0) + 1
    counts = after or overall
    best = max(counts.values())
    return min(token for token, count in counts.items() if count == best)


def greedy_reference(
    prompt: Sequence[int],
    verifier,
    max_new_tokens: int,
) -> list[int]:
    """One-token-at-a-time greedy decoding, the losslessness baseline."""
    seq = list(prompt)
    out: list[int] = []
    for _ in range(max_new_tokens):
        token = verifier.greedy_next(seq)
        seq.append(token)
        out.append(token)
        if verifier.eos_token is not None and token == verifier.eos_token:
            break
    return out


class SimDecoder:
    """Step-by-step decode simulator built on the reference structures.

    Acceptance is re-derived from first principles: compute the verifier's
    greedy continuation of the committed sequence, then follow it down the
    drafted tree (earliest-inserted child on duplicate tokens).  The accepted
    prefix plus the next greedy token is exactly what a lossless step emits.
    """

    def __init__(
        self,
        ll: int,
        fl: int,
        lc: int,
        fc: int,
        tdl: int,
        crt: int,
        frozen_map: dict | None = None,
        dynamic_enabled: bool = True,
    ) -> None:
        self.ll, self.fl, self.lc, self.fc = ll, fl, lc, fc
        self.tdl, self.crt = tdl, crt
        self.frozen_map = frozen_map
        self.dynamic_enabled = dynamic_enabled
        self.dynamic = RefLruTable(ll, fl, lc, fc)
        self.committed: list[int] = []
        self.pending_len = 0
        self.step_emitted: list[int] = []

    def reset(self) -> None:
        self.dynamic = RefLruTable(self.ll, self.fl, self.lc, self.fc)
        self.committed = []
        self.pending_len = 0
        self.step_emitted = []

    def _insert_windows(self, source: Sequence[int]) -> None:
        if not self.dynamic_enabled:
            return
        width = self.ll + self.fl
        toks = tuple(source)
        for i in range(len(toks) - width + 1):
            self.dynamic.insert(toks[i : i + self.ll], toks[i + self.ll : i + width])

    def init_from_prompt(self, prompt: Sequence[int]) -> None:
        self.committed = list(prompt)
        self.pending_len = min(1, len(prompt))
        self._insert_windows(prompt)

    def step(self, verifier, limit: int) -> list[int]:
        """One step emitting at most ``limit`` tokens, ending after EOS."""
        nodes = brute_build_tree(
            self.committed,
            self.pending_len,
            self.dynamic if self.dynamic_enabled else RefLruTable(self.ll, self.fl, self.lc, self.fc),
            self.frozen_map,
            self.tdl,
            self.crt,
            self.ll,
            self.fl,
        )
        # Greedy continuation long enough to cover the deepest branch + bonus.
        deepest = max((n["depth"] for n in nodes), default=0)
        greedy: list[int] = []
        seq = list(self.committed)
        for _ in range(deepest + 1):
            token = verifier.greedy_next(seq)
            greedy.append(token)
            seq.append(token)
        # Follow the greedy tokens down the tree.
        children_of_anchor = [i for i, n in enumerate(nodes) if n["parent"] is None]
        candidates = children_of_anchor
        accepted = 0
        while accepted < len(greedy) - 1:
            match = None
            for i in candidates:
                if nodes[i]["token"] == greedy[accepted]:
                    match = i
                    break
            if match is None:
                break
            accepted += 1
            candidates = [i for i, n in enumerate(nodes) if n["parent"] == match]
        emitted = greedy[: accepted + 1]
        if verifier.eos_token is not None and verifier.eos_token in emitted:
            emitted = emitted[: emitted.index(verifier.eos_token) + 1]
        emitted = emitted[:limit]
        window = self.committed[-(self.ll + self.fl - 1) :] + emitted
        self.committed.extend(emitted)
        self.pending_len = len(emitted)
        self._insert_windows(window)
        self.step_emitted.append(len(emitted))
        return emitted

    def run(
        self,
        prompt: Sequence[int],
        verifier,
        max_new_tokens: int,
    ) -> tuple[list[int], int, int]:
        """Full task; returns (output tokens, steps, emitted total).  Each
        step is capped at the tokens still to produce."""
        self.init_from_prompt(prompt)
        produced = 0
        steps = 0
        while produced < max_new_tokens:
            emitted = self.step(verifier, max_new_tokens - produced)
            produced += len(emitted)
            steps += 1
            if verifier.eos_token is not None and self.committed[-1] == verifier.eos_token:
                break
        return self.committed[len(prompt) :], steps, produced
