"""Speculation-tree construction and the tree-attention mask.

A draft tree hangs off the end of the committed sequence.  Its anchor is the
last committed token; ``pending`` holds the tokens emitted last step that a
verifier has not consumed yet (they form a chain below the anchor in the
attention mask).  Each cache follower contributes a linear chain of
single-token nodes, so branches can be accepted partially; branching happens
at chain ends.

Construction is a two-phase breadth-first expansion: the dynamic (recency)
table grows the tree first, then the frozen (corpus-frequency) table extends
the remaining leaves while the token budget allows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cache_table import CacheTableConfig, Follower, LruCacheTable
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
        if not isinstance(self.tdl, int) or self.tdl < 1:
            raise ValueError(f"tdl must be a positive integer, got {self.tdl!r}")
        if not isinstance(self.crt, int) or self.crt < 0:
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
    parent indices always precede their children.
    """

    pending: tuple[int, ...]
    nodes: list[DraftNode]


def build_draft_tree(
    context: Sequence[int],
    pending_len: int,
    dynamic: LruCacheTable,
    frozen: FrozenTable | None,
    dcfg: DraftConfig,
    tcfg: CacheTableConfig,
) -> DraftTree:
    """Grow a draft tree from the tail of ``context`` by recursive queries.

    ``context`` is the full committed sequence with the pending tokens at its
    tail.  Phase 1 runs a FIFO breadth-first expansion against the dynamic
    table: pop a chain end, form the leader from the last ``ll`` tokens of
    (context ++ path), and hang each returned follower as a linear chain,
    feeding new chain ends back into the frontier.  Phase 2 repeats the same
    expansion over the remaining leaves using the frozen table.

    Budget: pending + nodes never exceed ``tdl``; chains hanging directly off
    the anchor are additionally capped at ``tdl - crt`` so deeper levels keep
    a reserve.  A chain is added only if all ``fl`` tokens fit; a follower is
    skipped if an identical chain already hangs from the same node.

    A context shorter than ``ll`` cannot be queried and yields an empty tree.
    """
    if pending_len < 0 or pending_len > len(context):
        raise ValueError(
            f"pending_len {pending_len} out of range for context of length {len(context)}"
        )
    if (dynamic.config.ll, dynamic.config.fl) != (tcfg.ll, tcfg.fl):
        raise ValueError("dynamic table shape does not match the table config")
    if frozen is not None and (frozen.config.ll, frozen.config.fl) != (tcfg.ll, tcfg.fl):
        raise ValueError("frozen table shape does not match the table config")

    pending = tuple(context[-pending_len:]) if pending_len else ()
    nodes: list[DraftNode] = []
    tree = DraftTree(pending=pending, nodes=nodes)

    ll, fl = tcfg.ll, tcfg.fl
    tdl, crt = dcfg.tdl, dcfg.crt
    if len(context) < ll:
        return tree

    # Chain-end bookkeeping: the last ll tokens of (context ++ path) per
    # expandable node, and the follower chains already hung per node.
    tails: dict[int | None, tuple[int, ...]] = {None: tuple(context[-ll:])}
    hung: dict[int | None, set[Follower]] = {}

    def expand(frontier: deque[int | None], lookup) -> None:
        while frontier:
            if pending_len + len(nodes) + fl > tdl:
                return  # no chain fits anywhere anymore
            parent = frontier.popleft()
            cap = tdl - crt if parent is None else tdl
            followers = lookup(tails[parent])
            seen = hung.setdefault(parent, set())
            base_depth = nodes[parent].depth if parent is not None else 0
            for follower in followers:
                if pending_len + len(nodes) + fl > cap:
                    break  # every chain is fl tokens; none of the rest fit
                if follower in seen:
                    continue
                seen.add(follower)
                at = parent
                depth = base_depth
                for token in follower:
                    depth += 1
                    nodes.append(DraftNode(token, at, depth))
                    at = len(nodes) - 1
                tails[at] = (tails[parent] + follower)[-ll:]
                frontier.append(at)

    expand(deque((None,)), dynamic.query)

    if frozen is not None:
        with_children = {node.parent for node in nodes}
        leaves: deque[int | None] = deque()
        if None not in with_children:
            leaves.append(None)
        leaves.extend(i for i in range(len(nodes)) if i not in with_children)
        expand(leaves, frozen.query)

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


def longest_branch_len(tree: DraftTree) -> int:
    """Token length of the deepest root-to-leaf path (0 for an empty tree)."""
    return max((node.depth for node in tree.nodes), default=0)
