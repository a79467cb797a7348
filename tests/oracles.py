"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (linear scans, explicit
recency lists, path re-derivation from scratch) and shares no code with the
package under test.
"""

from __future__ import annotations

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

    def insert(self, leader, follower) -> None:
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
                    followers.pop(0)
            return
        if len(self.rows) >= self.lc:
            self.rows.pop(0)
        self.rows.append([leader, [follower]])

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


def naive_frozen_map(
    docs: Sequence[Sequence[int]], ll: int, fl: int, lc: int, fc: int, *, stored: bool = False
) -> dict[tuple, list[tuple]]:
    """Brute-force frequency table: count every in-document window, sort
    with explicit comparison keys, keep the top lc leaders / fc followers.

    With ``stored``, the map a CBFT file holds: each leader's top fc list is
    then walked in order, and a follower is dropped when one listed before it
    starts with the same token."""
    leader_counts: dict[tuple, int] = {}
    follower_counts: dict[tuple, dict[tuple, int]] = {}
    width = ll + fl
    for doc in docs:
        toks = tuple(doc)
        for i in range(len(toks) - width + 1):
            leader = toks[i : i + ll]
            follower = toks[i + ll : i + width]
            leader_counts[leader] = leader_counts.get(leader, 0) + 1
            slot = follower_counts.setdefault(leader, {})
            slot[follower] = slot.get(follower, 0) + 1
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


def cbft_bytes(table_map: dict[tuple, list[tuple]], ll: int, fl: int, fc: int) -> bytes:
    """CBFT serialization of a leader -> followers map, in its order, written
    field by field from the format description with ``int.to_bytes``."""

    def u32(value: int) -> bytes:
        return value.to_bytes(4, "little")

    out = b"CBFT" + u32(1) + u32(ll) + u32(fl) + len(table_map).to_bytes(8, "little") + u32(fc)
    for leader, followers in table_map.items():
        for token in leader:
            out += u32(token)
        out += u32(len(followers))
        for follower in followers:
            for token in follower:
                out += u32(token)
    return out


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
    stop_at_eos: bool = True,
) -> list[int]:
    """One-token-at-a-time greedy decoding, the losslessness baseline."""
    seq = list(prompt)
    out: list[int] = []
    for _ in range(max_new_tokens):
        token = verifier.greedy_next(seq)
        seq.append(token)
        out.append(token)
        if stop_at_eos and verifier.eos_token is not None and token == verifier.eos_token:
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

    def step(self, verifier, stop_at_eos: bool = True) -> list[int]:
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
        if stop_at_eos and verifier.eos_token is not None and verifier.eos_token in emitted:
            emitted = emitted[: emitted.index(verifier.eos_token) + 1]
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
        stop_at_eos: bool = True,
    ) -> tuple[list[int], int, int]:
        """Full task; returns (output tokens, steps, emitted total) with the
        same overshoot truncation as the engine."""
        self.init_from_prompt(prompt)
        produced = 0
        steps = 0
        while produced < max_new_tokens:
            emitted = self.step(verifier, stop_at_eos)
            produced += len(emitted)
            steps += 1
            if stop_at_eos and verifier.eos_token is not None and self.committed[-1] == verifier.eos_token:
                break
        output = self.committed[len(prompt) : len(prompt) + max_new_tokens]
        return output, steps, len(output) if produced > max_new_tokens else produced
