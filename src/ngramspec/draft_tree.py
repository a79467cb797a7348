"""Speculation-tree construction, chain by chain.

A draft tree hangs off the end of the committed sequence.  Its anchor is the
last committed token; ``pending`` holds the tokens emitted last step that a
verifier has not consumed yet.  Each cache follower is hung whole, as a
chain of ``fl`` nodes below the anchor or a chain end, and the builder
records chains, not nodes.  A batched model pass would score ``pending ++
nodes`` at once under an ancestor mask built from the chains.  A follower
whose first token an earlier sibling chain carries could never be accepted
(the walk descends into one child per token), so it is not drafted.

Construction is a breadth-first expansion, one phase per table present: the
dynamic (recency) table grows the tree first, then the frozen
(corpus-frequency) table extends the leaves it left childless while the token
budget allows.  An absent table is ``None``, and its phase is skipped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from .cache_table import Follower, LruCacheTable
from .frozen_table import FrozenTable


@dataclass(frozen=True)
class DraftConfig:
    """Per-step drafting budget.

    tdl (total draft length) bounds draft nodes plus pending tokens.  crt
    (chaining-reserved tokens) is the slice of tdl reserved for depth >= 2,
    so the anchor's direct expansion cannot exhaust the whole budget.
    """

    tdl: int
    crt: int

    def __post_init__(self) -> None:
        if not isinstance(self.tdl, int) or isinstance(self.tdl, bool) or self.tdl < 1:
            raise ValueError(f"tdl must be a positive integer, got {self.tdl!r}")
        if not isinstance(self.crt, int) or isinstance(self.crt, bool) or self.crt < 0:
            raise ValueError(f"crt must be a non-negative integer, got {self.crt!r}")
        if self.crt >= self.tdl:
            raise ValueError(f"crt ({self.crt}) must be smaller than tdl ({self.tdl})")


class DraftNode(NamedTuple):
    """One speculative token.  ``parent`` is a node index, or ``None`` for a
    child of the anchor.  ``depth`` is 1 for the first token on a path."""

    token: int
    parent: int | None
    depth: int


Chain = tuple[int | None, int, Follower]  # (parent chain end, its depth, follower)
ChildIndex = dict[tuple[int | None, int], tuple[int, Follower]]


class ChainNodes(Sequence[DraftNode]):
    """Read-only view of the nodes of chains of ``fl`` tokens: chain ``c``'s
    ``k``-th token is node ``c * fl + k``.  Equal to the list of its nodes."""

    __slots__ = ("chains", "fl")

    def __init__(self, chains: list[Chain], fl: int) -> None:
        self.chains, self.fl = chains, fl

    def __len__(self) -> int:
        return len(self.chains) * self.fl

    def __getitem__(self, i: int) -> DraftNode:
        if not -len(self) <= i < len(self):
            raise IndexError("draft node index out of range")
        c, k = divmod(i % len(self), self.fl)
        parent, depth, follower = self.chains[c]
        return DraftNode(follower[k], c * self.fl + k - 1 if k else parent, depth + k + 1)

    def __iter__(self) -> Iterator[DraftNode]:
        new, fl = tuple.__new__, self.fl  # skips the NamedTuple's Python-level __new__
        for c, (parent, depth, follower) in enumerate(self.chains):
            for k, token in enumerate(follower):
                yield new(DraftNode, (token, c * fl + k - 1 if k else parent, depth + k + 1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, ChainNodes)):
            return list(self) == list(other)
        return NotImplemented


@dataclass
class DraftTree:
    """Draft nodes in insertion order plus the pending (non-verified) chain.

    Invariant: ``len(pending) + len(nodes) <= tdl`` for every built tree, and
    parents precede children.  ``build_draft_tree`` records chains, viewed as
    ``nodes`` by ``ChainNodes``; ``child`` maps (parent, first token) to (chain
    end, follower) of the chain the acceptance walk descends into (parent
    None: the anchor); ``max_depth`` is the deepest branch's length.  A tree
    constructed without them has both None, and ``accept`` refuses it.
    """

    pending: tuple[int, ...]
    nodes: Sequence[DraftNode]
    child: ChildIndex | None = field(default=None, repr=False, compare=False)
    max_depth: int | None = field(default=None, compare=False)


def build_draft_tree(
    context: Sequence[int],
    pending_len: int,
    dynamic: LruCacheTable | None,
    frozen: FrozenTable | None,
    dcfg: DraftConfig,
) -> DraftTree:
    """Grow a draft tree from the tail of ``context`` by recursive queries.

    ``context`` is the full committed sequence with the pending tokens at its
    tail.  Each table present (dynamic, then frozen; ``None`` is absent) runs
    one phase of FIFO breadth-first expansion: pop a chain end, form the
    leader from the last ``ll`` tokens of (context ++ path), and hang each
    returned follower as a chain, feeding new chain ends back into the
    frontier.  The first phase starts at the anchor; each later phase starts
    from the chain ends (and the anchor) that the phase before it left
    childless.  The tables present must agree on ``ll`` and ``fl``.

    Budget: pending + nodes never exceed ``tdl``; chains hanging directly off
    the anchor are additionally capped at ``tdl - crt`` so deeper levels keep
    a reserve.  A chain is added only if all ``fl`` tokens fit.  A follower
    whose first token an earlier follower of the same popped node has hung is
    skipped (no budget, no frontier entry), so no two siblings share a token.

    A context shorter than ``ll`` cannot be queried and yields an empty tree.
    """
    if pending_len < 0 or pending_len > len(context):
        raise ValueError(
            f"pending_len {pending_len} out of range for context of length {len(context)}"
        )
    tables = [table for table in (dynamic, frozen) if table is not None]
    if not tables:
        raise ValueError("no table to draft from: dynamic and frozen are both None")
    ll, fl = tables[0].config.ll, tables[0].config.fl
    if (tables[-1].config.ll, tables[-1].config.fl) != (ll, fl):  # at most two tables
        raise ValueError("dynamic and frozen tables differ in leader or follower length")

    chains: list[Chain] = []
    child: ChildIndex = {}
    tree = DraftTree(tuple(context[len(context) - pending_len :]), ChainNodes(chains, fl), child, 0)
    if len(context) < ll:
        return tree

    # A chain of fl tokens fits while n (== len(nodes)) is at most ``room``;
    # chains off the anchor also keep the crt reserve free.
    room = dcfg.tdl - pending_len - fl
    anchor_room = room - dcfg.crt
    whole = fl >= ll  # a follower then holds its chain end's whole leader
    n = 0
    # Frontier items: (chain end, last ll tokens of context ++ its path, its depth).
    leaves: list = [(None, tuple(context[-ll:]), 0)]
    for table in tables:
        # A phase pops every chain end unless the budget runs out first, so the
        # childless ends it collects, in node order, are the next phase's leaves.
        frontier, leaves, lookup = deque(leaves), [], table.query
        while frontier and n <= room:
            parent, tail, depth = item = frontier.popleft()
            limit = anchor_room if parent is None else room
            # A parent is popped once and is childless when popped, so a key
            # already in ``child`` was hung by an earlier sibling just now.
            before = n
            for follower in lookup(tail):
                if n > limit:
                    break  # every chain is fl tokens; none of the rest fit
                key = parent, follower[0]
                if key in child:
                    continue  # the walk would take the earlier sibling
                n += fl
                chains.append((parent, depth, follower))
                child[key] = (n - 1, follower)
                next_tail = follower[-ll:] if whole else (tail + follower)[-ll:]
                frontier.append((n - 1, next_tail, depth + fl))
            if n == before:
                leaves.append(item)
            elif depth + fl > tree.max_depth:
                tree.max_depth = depth + fl  # where the chains just hung end
    return tree
