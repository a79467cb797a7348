"""Speculation-tree construction and the tree-attention mask.

A draft tree hangs off the end of the committed sequence.  Its anchor is the
last committed token; ``pending`` holds the tokens emitted last step that a
verifier has not consumed yet (they form a chain below the anchor in the
attention mask).  Each cache follower contributes a linear chain of
single-token nodes, so branches can be accepted partially; branching happens
at chain ends.  The acceptance walk descends into one child per token, so a
follower whose first token an earlier sibling chain already carries could
never be accepted; it is not drafted, and every node of a tree is reachable.

Construction is a breadth-first expansion, one phase per table present: the
dynamic (recency) table grows the tree first, then the frozen
(corpus-frequency) table extends the leaves it left childless while the token
budget allows.  An absent table is ``None``, and its phase is skipped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .cache_table import LruCacheTable
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


@dataclass
class DraftTree:
    """Draft nodes in insertion order plus the pending (non-verified) chain.

    Invariant: ``len(pending) + len(nodes) <= tdl`` for every built tree, and
    parent indices always precede their children.  As ``build_draft_tree``
    hangs the nodes it also fills ``child``, which maps (parent, token) to the
    node with that parent (None: the anchor) and token, the one node the
    acceptance walk descends into, and ``max_depth``, the deepest branch's
    length.  A tree constructed without them has both None, and ``accept``
    refuses it.
    """

    pending: tuple[int, ...]
    nodes: list[DraftNode]
    child: dict[tuple[int | None, int], int] | None = field(default=None, repr=False, compare=False)
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
    returned follower as a linear chain, feeding new chain ends back into the
    frontier.  The first phase starts at the anchor; each later phase starts
    from the chain ends (and the anchor) that the phase before it left
    childless.  The tables present must agree on ``ll`` and ``fl``.

    Budget: pending + nodes never exceed ``tdl``; chains hanging directly off
    the anchor are additionally capped at ``tdl - crt`` so deeper levels keep
    a reserve.  A chain is added only if all ``fl`` tokens fit.  A follower
    whose first token an earlier follower of the same popped node has already
    hung is skipped: it uses no budget and adds nothing to the frontier.  So
    no two siblings carry the same token.

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

    nodes: list[DraftNode] = []
    child: dict[tuple[int | None, int], int] = {}
    tree = DraftTree(tuple(context[-pending_len:]) if pending_len else (), nodes, child, 0)
    if len(context) < ll:
        return tree

    # A chain of fl tokens fits while n (== len(nodes)) is at most ``room``;
    # chains off the anchor also keep the crt reserve free.
    room = dcfg.tdl - pending_len - fl
    anchor_room = room - dcfg.crt
    new_node = tuple.__new__  # skips the NamedTuple's Python-level __new__
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
            # First tokens of the chains hung below this parent.  A parent is
            # popped once and is childless when popped, so its (parent, token)
            # keys are new and ``child`` is filled by plain assignment.
            firsts = set()
            for follower in lookup(tail):
                if n > limit:
                    break  # every chain is fl tokens; none of the rest fit
                if follower[0] in firsts:
                    continue  # the walk would take the earlier sibling
                firsts.add(follower[0])
                at, d = parent, depth
                for token in follower:
                    d += 1
                    child[at, token] = n
                    nodes.append(new_node(DraftNode, (token, at, d)))
                    at = n
                    n += 1
                frontier.append((at, (tail + follower)[-ll:], depth + fl))
            if not firsts:
                leaves.append(item)
            elif depth + fl > tree.max_depth:
                tree.max_depth = depth + fl  # where the chains just hung end
    return tree


def attention_mask(tree: DraftTree) -> np.ndarray:
    """Ancestor-only attention over (pending ++ nodes).

    Entry [i, j] is True iff j == i or j is a strict ancestor of i.  Pending
    tokens form a chain every node's path passes through, so the matrix is
    lower-triangular in insertion order.  This is the mask a batched model
    pass would use to score every node at once; the sequential stand-in
    verifiers of ``decode_loop`` walk only the greedy path and never need it.
    """
    p = len(tree.pending)
    n = p + len(tree.nodes)
    mask = np.zeros((n, n), dtype=bool)
    for i in range(p):
        if i:
            mask[i, :] = mask[i - 1, :]
        mask[i, i] = True
    for k, node in enumerate(tree.nodes):
        i = p + k
        if node.parent is not None:
            mask[i, :] = mask[p + node.parent, :]
        elif p:
            mask[i, :] = mask[p - 1, :]
        mask[i, i] = True
    return mask
