"""Speculation-tree construction, chain by chain.

A draft tree hangs off the end of the committed sequence.  Its anchor is the
last committed token; ``pending`` holds the tokens emitted last step that a
verifier has not consumed yet.  Each cache follower is hung whole, as a
chain of ``fl`` nodes below the anchor or a chain end, and the builder
records chains, not nodes.  A batched model pass would score ``pending ++
nodes`` at once under an ancestor mask built from the chains.  A follower
whose first token an earlier sibling chain carries could never be accepted
(the walk descends into one child per token), so it is not drafted.  Chains
are numbered in the order they hang, and the chain list itself is the
breadth-first frontier: a chain reads its depth and leader back from the
chain records when its turn comes.

Construction is a breadth-first expansion, one phase per table present: the
dynamic (recency) table grows the tree first, then the frozen
(corpus-frequency) table extends the leaves it left childless while the token
budget allows.  An absent table is ``None``, and its phase is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count
from typing import Iterator, NamedTuple, Sequence

from .cache_table import Follower, LruCacheTable, check_int
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
        check_int("tdl", self.tdl)
        check_int("crt", self.crt, least=0)
        if self.crt >= self.tdl:
            raise ValueError(f"crt ({self.crt}) must be smaller than tdl ({self.tdl})")


class DraftNode(NamedTuple):
    """One speculative token.  ``parent`` is a node index, or ``None`` for a
    child of the anchor.  ``depth`` is 1 for the first token on a path."""

    token: int
    parent: int | None
    depth: int


Chain = tuple[int | None, int, Follower]  # (parent chain, its end's depth, follower)
ChildIndex = dict[int | None, dict[int, int]]


class ChainNodes:
    """Sized, iterable view of the nodes of chains of ``fl`` tokens: chain
    ``c``'s ``k``-th token is node ``c * fl + k``, and a chain's first token
    hangs below its parent chain's last node."""

    __slots__ = ("chains", "fl")

    def __init__(self, chains: list[Chain], fl: int) -> None:
        self.chains, self.fl = chains, fl

    def __len__(self) -> int:
        return len(self.chains) * self.fl

    def __iter__(self) -> Iterator[DraftNode]:
        new, fl = tuple.__new__, self.fl  # skips the NamedTuple's Python-level __new__
        for c, (parent, depth, follower) in enumerate(self.chains):
            up = None if parent is None else parent * fl + fl - 1
            for k, token in enumerate(follower):
                yield new(DraftNode, (token, c * fl + k - 1 if k else up, depth + k + 1))


@dataclass(eq=False, slots=True)
class DraftTree:
    """Draft nodes in insertion order plus the pending (non-verified) chain.

    Invariant: ``len(pending) + len(nodes) <= tdl`` for every built tree, and
    parents precede children.  ``build_draft_tree`` records chains, viewed as
    ``nodes`` by ``ChainNodes``; ``child`` maps a chain's index into
    ``nodes.chains`` (``None``: the anchor) to ``{first token: chain index}``
    of the chains hung below it, the ones the acceptance walk can descend
    into; no map is empty.  ``max_depth`` is the deepest branch's length.  A
    tree given only its nodes has an empty index and depth 0, so the walk
    takes none of them.
    Trees compare by identity; compare ``list(tree.nodes)`` to compare their
    nodes.
    """

    pending: tuple[int, ...]
    nodes: list[DraftNode] | ChainNodes
    child: ChildIndex = field(default_factory=dict, repr=False)
    max_depth: int = 0


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
    one phase of FIFO breadth-first expansion: pop a chain, form the leader
    from the last ``ll`` tokens of (context ++ path), and hang each returned
    follower as a new chain, which the frontier pops in turn.  The first
    phase starts at the anchor; each later phase first pops the chains (and
    the anchor) that the phase before it left childless, then its own chains
    in the order they hang.  The tables present must agree on ``ll`` and
    ``fl``.

    Budget: pending + nodes never exceed ``tdl``; chains hanging directly off
    the anchor are additionally capped at ``tdl - crt`` so deeper levels keep
    a reserve.  A chain is added only if all ``fl`` tokens fit.  A follower
    whose first token an earlier follower of the same popped chain has hung
    is skipped (no budget, no chain), so no two siblings share a token.

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

    # A chain fits while the chains before it number at most ``room``: it
    # leaves a whole chain of budget.  Chains off the anchor also keep the crt
    # reserve free.
    spare = dcfg.tdl - pending_len - fl  # nodes that may precede a chain
    room, anchor_room = spare // fl, (spare - dcfg.crt) // fl
    anchor = tuple(context[-ll:])
    c = max_depth = 0  # c counts the chains hung so far
    # Frontier entries are chain indices; None is the anchor.
    leaves: list[int | None] = [None]
    for table in tables:
        # A phase pops its leaves, then every chain from its first on, unless
        # the budget runs out first, so the childless chains it collects, in
        # chain order, are the next phase's leaves.
        frontier, leaves, lookup = chain(leaves, count(c)), [], table.query
        for at in frontier:
            if c > room or at == c:
                break  # out of budget, or every chain this phase hung is popped
            if at is None:
                leader, depth, limit = anchor, 0, anchor_room
            else:
                parent, depth, leader = chains[at]
                depth += fl
                limit = room
                while len(leader) < ll:  # the leader reaches above this chain
                    if parent is None:
                        leader = anchor + leader
                        break
                    parent, _, follower = chains[parent]
                    leader = follower + leader
                leader = leader[-ll:]
            # A chain is popped only while childless, so ``kids`` holds
            # exactly the siblings hung by this pop.
            kids: dict[int, int] = {}
            for follower in lookup(leader):
                if c > limit:
                    break  # every chain is fl tokens; none of the rest fit
                first = follower[0]
                if first in kids:
                    continue  # the walk would take the earlier sibling
                kids[first] = c
                c += 1
                chains.append((at, depth, follower))
            if kids:
                child[at] = kids
                if depth + fl > max_depth:
                    max_depth = depth + fl  # where the chains just hung end
            else:
                leaves.append(at)
    tree.max_depth = max_depth
    return tree
