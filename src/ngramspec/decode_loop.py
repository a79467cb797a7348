"""The speculative decoding loop: draft, accept, update.

Each step drafts a tree from the cache tables, walks it along the verifier's
greedy path to accept the longest matching branch plus one bonus token (none
when the step ends on a matched EOS or at its token cap), and then slides an
n-gram window over the new tokens to update the dynamic table.
Output is token-identical to plain one-by-one greedy decoding with the same
verifier; speculation only changes how many steps that takes.

Verifiers are deterministic next-token oracles standing in for a language
model forward pass: a replay oracle for exact-continuation tests and a
k-gram frequency model for desk-scale benchmarks.  They are sequential, so
acceptance asks them only for the tokens on the greedy path, one call per
emitted token.  A batched model pass would instead score every node at
once over ``pending ++ nodes`` under an ancestor mask built from its chains.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Protocol, Sequence

from .cache_table import CacheTableConfig, LruCacheTable, check_int
from .draft_tree import DraftConfig, DraftTree, build_draft_tree
from .frozen_table import FrozenTable


class Verifier(Protocol):
    """Deterministic greedy next-token oracle: same prefix, same token.  The
    ``prefix`` list may change once ``greedy_next`` returns; copy what you keep."""

    eos_token: int | None

    def greedy_next(self, prefix: Sequence[int]) -> int: ...


class ReplayOracle:
    """Replays a fixed continuation: the token at position n is always
    ``continuation[n - prompt_len]``, and EOS once the reference runs out."""

    def __init__(self, prompt_len: int, continuation: Sequence[int], eos_token: int) -> None:
        check_int("prompt_len", prompt_len, least=0)
        self.prompt_len = prompt_len
        self.continuation = tuple(continuation)
        self.eos_token = eos_token

    def greedy_next(self, prefix: Sequence[int]) -> int:
        at = len(prefix) - self.prompt_len
        if at < 0:
            raise ValueError(f"prefix shorter than the replayed prompt ({len(prefix)} < {self.prompt_len})")
        if at >= len(self.continuation):
            return self.eos_token
        return self.continuation[at]


class KGramVerifier:
    """Greedy k-gram frequency model trained on tokenized documents.

    The next token is the most frequent continuation of the last ``order``
    tokens; ties break by ascending token id.  Prefixes with no counted
    continuation (including prefixes shorter than ``order``) fall back to the
    globally most frequent token.  It has no end-of-sequence token
    (``eos_token`` is None), so its runs end at ``max_new_tokens``.
    """

    def __init__(self, order: int, docs: Iterable[Sequence[int]]) -> None:
        check_int("order", order)
        self.order = order
        self.eos_token: int | None = None
        global_counts: Counter[int] = Counter()
        windows: Counter[tuple[tuple[int, ...], int]] = Counter()  # (context, next token)
        for doc in docs:
            tokens = tuple(doc)
            global_counts.update(tokens)
            windows.update(zip(zip(*(tokens[i:] for i in range(order))), tokens[order:]))
        if not global_counts:
            raise ValueError("training corpus contains no tokens")
        # Freeze the argmax per context so lookups are O(1) and total: two
        # stable sorts rank windows by (-count, next token), a context keeps
        # its first window, and the most frequent contexts, inserted first,
        # sit nearest their hash slots.  max also keeps the first of ties.
        ranked = sorted(windows, key=itemgetter(1))
        ranked.sort(key=windows.__getitem__, reverse=True)
        self._best: dict[tuple[int, ...], int] = {}
        for context, token in ranked:
            self._best.setdefault(context, token)
        self._fallback = max(sorted(global_counts), key=global_counts.__getitem__)
        self.vocab_size: int | None = max(global_counts) + 1

    def greedy_next(self, prefix: Sequence[int]) -> int:
        # A prefix shorter than ``order`` gives a shorter tuple, never a key.
        hit = self._best.get(tuple(prefix[-self.order :]))
        return self._fallback if hit is None else hit


@dataclass(slots=True)
class StepMetrics:
    """One decoding step: nodes drafted, draft tokens accepted, tokens
    emitted (accepted + bonus, ending at EOS or the token cap), and the step
    tree's longest branch."""

    drafted: int
    accepted: int
    emitted: int
    longest_branch: int


@dataclass(frozen=True)
class RunMetrics:
    """Whole-run acceptance statistics: one row per step, from which
    ``steps``, ``total_emitted`` and ``mat`` (emitted tokens per step) derive."""

    step_log: tuple[StepMetrics, ...]

    @property
    def steps(self) -> int:
        return len(self.step_log)

    @property
    def total_emitted(self) -> int:
        return sum(m.emitted for m in self.step_log)

    @property
    def mat(self) -> float:
        return self.total_emitted / self.steps if self.steps else 0.0


@dataclass
class DecodeState:
    """Mutable per-task state: tables, committed tokens, pending count.

    An absent table is ``None``: no ``frozen`` is dynamic-only wiring, and no
    ``dynamic`` is frozen-only wiring (for ablations), which drafts from the
    frozen table alone and never records what is emitted.  Each table carries
    its own shape.  ``pending_len`` counts tokens emitted last step that no
    forward pass has consumed yet; they spend budget out of ``draft_config.tdl``.
    """

    draft_config: DraftConfig
    dynamic: LruCacheTable | None
    frozen: FrozenTable | None = None
    committed: list[int] = field(default_factory=list)
    pending_len: int = 0

    @classmethod
    def fresh(
        cls,
        table_config: CacheTableConfig,
        draft_config: DraftConfig,
        frozen: FrozenTable | None = None,
    ) -> "DecodeState":
        """A state with an empty dynamic table and, optionally, a frozen one."""
        return cls(draft_config, LruCacheTable(table_config), frozen)


def accept(tree: DraftTree, committed: list[int], verifier: Verifier, limit: int) -> int:
    """Greedy acceptance walk over a drafted tree, chain by chain.

    From the anchor, append the verifier's greedy next token to ``committed``,
    look up the index of the chain it heads in the current chain's map
    (``tree.child``; an absent or empty map is no hit), and match the next
    greedy tokens against that chain's remaining tokens, until a token
    matches no chain.  This leaves the accepted path and then the bonus token
    appended, and what was appended stays if ``greedy_next`` raises partway.  The walk also ends after a matched token that is EOS or
    that makes ``limit`` appended tokens, so it appends exactly what the step
    emits: one call per emitted token.  Returns the number of accepted
    nodes.
    """
    eos, end = verifier.eos_token, len(committed) + limit
    accepted, at, rest = 0, None, iter(())
    while True:
        expect = verifier.greedy_next(committed)
        committed.append(expect)
        token = next(rest, None)  # the current chain's next token; None at its end
        if token is None:
            kids = tree.child.get(at)
            hit = kids.get(expect) if kids else None
            if hit is None:
                return accepted
            at = hit
            rest = iter(tree.nodes.chains[hit][2][1:])
        elif token != expect:
            return accepted
        accepted += 1
        if expect == eos or len(committed) >= end:
            return accepted


def update_tables(state: DecodeState, start: int) -> None:
    """Insert into the dynamic table the (leader, follower) pair of every
    ``ll + fl`` window of ``state.committed`` that ends at or after index
    ``start``, through ``LruCacheTable.insert_windows``.

    A step passes the committed length before its emission, so each new
    token terminates exactly one window.  The frozen table is never written,
    and without a dynamic table nothing is.
    """
    if state.dynamic is not None:
        state.dynamic.insert_windows(state.committed, start)


def reset(state: DecodeState, prompt: Sequence[int] = ()) -> None:
    """Start a task on the state: a fresh dynamic table of the same shape (if
    it has one), ``prompt`` committed with its last token pending, and every
    window of the prompt inserted through ``LruCacheTable.insert_windows``,
    which seeds the empty table in one pass.  The frozen table is retained."""
    state.committed = list(prompt)
    state.pending_len = min(1, len(prompt))
    if state.dynamic is not None:
        state.dynamic = LruCacheTable(state.dynamic.config)
        state.dynamic.insert_windows(state.committed)


def decode_step(state: DecodeState, verifier: Verifier, limit: int) -> StepMetrics:
    """One draft / accept / update cycle emitting at most ``limit`` tokens.

    The acceptance walk appends the step's emission to the committed
    sequence; the step marks it pending and feeds it through the
    sliding-window table update.
    """
    tree = build_draft_tree(
        state.committed, state.pending_len, state.dynamic, state.frozen, state.draft_config
    )
    start = len(state.committed)
    accepted = accept(tree, state.committed, verifier, limit)
    state.pending_len = len(state.committed) - start
    update_tables(state, start)

    return StepMetrics(len(tree.nodes), accepted, state.pending_len, tree.max_depth)


def run_decode(
    state: DecodeState,
    prompt: Sequence[int],
    verifier: Verifier,
    max_new_tokens: int,
) -> tuple[list[int], RunMetrics]:
    """Decode a task end to end and report acceptance statistics.

    The task starts from ``reset(state, prompt)``, whatever the state ran
    before.  Steps until ``max_new_tokens`` are produced or EOS is emitted,
    collecting the rows ``decode_step`` returns; each step is capped at the
    tokens still to produce, so ``mat * steps == len(output)`` exactly.
    """
    check_int("max_new_tokens", max_new_tokens)
    reset(state, prompt)
    eos = verifier.eos_token
    log: list[StepMetrics] = []
    produced = 0
    while produced < max_new_tokens:
        step = decode_step(state, verifier, max_new_tokens - produced)
        log.append(step)
        produced += step.emitted
        if state.committed[-1] == eos:
            break
    return state.committed[len(prompt) :], RunMetrics(tuple(log))


def greedy_decode(prompt: Sequence[int], verifier: Verifier, max_new_tokens: int) -> list[int]:
    """Plain one-token-at-a-time greedy decoding; the baseline speculative
    runs must match token for token."""
    check_int("max_new_tokens", max_new_tokens)
    seq = list(prompt)
    out: list[int] = []
    eos = verifier.eos_token
    for _ in range(max_new_tokens):
        token = verifier.greedy_next(seq)
        seq.append(token)
        out.append(token)
        if eos is not None and token == eos:
            break
    return out
