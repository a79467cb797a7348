"""The speculative decoding loop: draft, accept, update.

Each step drafts a tree from the cache tables, walks it along the verifier's
greedy path to accept the longest matching branch plus one bonus token, and
then slides an n-gram window over the new tokens to update the dynamic table.
Output is token-identical to plain one-by-one greedy decoding with the same
verifier; speculation only changes how many steps that takes.

Verifiers are deterministic next-token oracles standing in for a language
model forward pass: a replay oracle for exact-continuation tests and a
k-gram frequency model for desk-scale benchmarks.  They are sequential, so
acceptance asks them only for the tokens on the greedy path (accepted + 1
calls per step).  A batched model pass would instead score every node at
once over ``pending ++ nodes`` with ``draft_tree.attention_mask``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Protocol, Sequence

from .cache_table import CacheTableConfig, LruCacheTable
from .draft_tree import DraftConfig, DraftTree, build_draft_tree
from .frozen_table import FrozenTable


class Verifier(Protocol):
    """Deterministic greedy next-token oracle: same prefix, same token.  The
    ``prefix`` list may change once ``greedy_next`` returns; copy what you keep."""

    eos_token: int | None
    vocab_size: int | None

    def greedy_next(self, prefix: Sequence[int]) -> int: ...


class ReplayOracle:
    """Replays a fixed continuation: the token at position n is always
    ``continuation[n - prompt_len]``, and EOS once the reference runs out."""

    def __init__(self, prompt_len: int, continuation: Sequence[int], eos_token: int) -> None:
        if prompt_len < 0:
            raise ValueError("prompt_len must be non-negative")
        self.prompt_len = prompt_len
        self.continuation = tuple(continuation)
        self.eos_token = eos_token
        self.vocab_size: int | None = None

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
        if order < 1:
            raise ValueError("order must be at least 1")
        self.order = order
        self.eos_token: int | None = None
        global_counts: Counter[int] = Counter()
        windows: Counter[tuple[int, ...]] = Counter()
        for doc in docs:
            tokens = tuple(doc)
            global_counts.update(tokens)
            windows.update(zip(*(tokens[i:] for i in range(order + 1))))
        if not global_counts:
            raise ValueError("training corpus contains no tokens")
        # Freeze the argmax per context so lookups are O(1) and total: the
        # first window of a context in (-count, next token) order wins.
        self._best: dict[tuple[int, ...], int] = {}
        for window, _ in sorted(windows.items(), key=lambda kv: (-kv[1], kv[0][-1])):
            self._best.setdefault(window[:-1], window[-1])
        self._fallback = min(global_counts, key=lambda t: (-global_counts[t], t))
        self.vocab_size: int | None = max(global_counts) + 1

    def greedy_next(self, prefix: Sequence[int]) -> int:
        if len(prefix) >= self.order:
            hit = self._best.get(tuple(prefix[-self.order :]))
            if hit is not None:
                return hit
        return self._fallback


@dataclass(frozen=True)
class StepMetrics:
    """One decoding step: nodes drafted, draft tokens accepted, tokens
    emitted (accepted + bonus, truncated at EOS), and the step tree's
    longest branch."""

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


def accept(
    tree: DraftTree, committed: list[int], verifier: Verifier
) -> tuple[list[int], int]:
    """Greedy acceptance walk over a drafted tree.

    Starting at the anchor, ask the verifier for its greedy next token given
    ``committed`` plus the path accepted so far, and descend into the
    earliest-inserted child carrying that token (``tree.child``), until no
    child matches.  Returns the accepted node indices and the bonus token
    (the verifier's token after the last accepted node).  Costs accepted + 1
    verifier calls.  The path is appended to ``committed`` during the walk
    and removed again before returning.  A tree without the index that
    ``build_draft_tree`` records is refused.
    """
    if tree.child is None:
        raise ValueError("tree has no child index; build it with build_draft_tree")
    base = len(committed)
    accepted: list[int] = []
    at: int | None = None
    try:
        while True:
            expect = verifier.greedy_next(committed)
            at = tree.child.get((at, expect))
            if at is None:
                return accepted, expect
            accepted.append(at)
            committed.append(expect)
    finally:
        del committed[base:]


def update_tables(state: DecodeState, start: int) -> None:
    """Slide the dynamic table's ``ll + fl`` window over ``state.committed``
    and insert the (leader, follower) pair of every window that ends at or
    after index ``start``.

    Seeding a prompt passes 0, so every window of the prompt is inserted; a
    step passes the committed length before its emission, so each new token
    terminates exactly one window.  The frozen table is never written, and
    without a dynamic table nothing is.
    """
    table = state.dynamic
    if table is None:
        return
    ll, width = table.config.ll, table.config.ll + table.config.fl
    src = tuple(state.committed[max(0, start - width + 1) :])
    for i in range(len(src) - width + 1):
        table.insert(src[i : i + ll], src[i + ll : i + width])


def init_from_prompt(state: DecodeState, prompt: Sequence[int]) -> None:
    """Seed a task: commit the prompt, mark its last token pending, and
    populate the dynamic table by sliding the n-gram window over the prompt."""
    state.committed = list(prompt)
    state.pending_len = min(1, len(prompt))
    update_tables(state, 0)


def reset(state: DecodeState) -> None:
    """Fresh task on the same state: empty dynamic table of the same shape
    (if it has one) and cleared sequence.  The frozen table is retained."""
    if state.dynamic is not None:
        state.dynamic = LruCacheTable(state.dynamic.config)
    state.committed = []
    state.pending_len = 0


def decode_step(state: DecodeState, verifier: Verifier) -> StepMetrics:
    """One draft / accept / update cycle.

    Appends the accepted path plus the bonus token to the committed sequence
    (truncating at the first EOS), marks the new tokens pending, and feeds
    them through the sliding-window table update.
    """
    tree = build_draft_tree(
        state.committed, state.pending_len, state.dynamic, state.frozen, state.draft_config
    )
    accepted, bonus = accept(tree, state.committed, verifier)

    emitted = [tree.nodes[i].token for i in accepted]
    emitted.append(bonus)
    eos = verifier.eos_token
    if eos is not None and eos in emitted:
        emitted = emitted[: emitted.index(eos) + 1]

    state.committed.extend(emitted)
    state.pending_len = len(emitted)
    update_tables(state, len(state.committed) - len(emitted))

    return StepMetrics(
        drafted=len(tree.nodes),
        accepted=min(len(accepted), len(emitted)),
        emitted=len(emitted),
        longest_branch=tree.max_depth,
    )


def run_decode(
    state: DecodeState,
    prompt: Sequence[int],
    verifier: Verifier,
    max_new_tokens: int,
) -> tuple[list[int], RunMetrics]:
    """Decode a task end to end and report acceptance statistics.

    Steps until ``max_new_tokens`` are produced or EOS is emitted, collecting
    the rows ``decode_step`` returns.  Output past ``max_new_tokens`` is
    truncated, and so are the last row's ``accepted`` and ``emitted``, so that
    ``mat * steps == len(output)`` exactly.
    """
    if max_new_tokens < 1:
        raise ValueError("max_new_tokens must be at least 1")
    init_from_prompt(state, prompt)
    eos = verifier.eos_token
    log: list[StepMetrics] = []
    produced = 0
    while produced < max_new_tokens:
        step = decode_step(state, verifier)
        log.append(step)
        produced += step.emitted
        if eos is not None and state.committed[-1] == eos:
            break

    if produced > max_new_tokens:
        last = log[-1]
        kept = last.emitted - (produced - max_new_tokens)
        log[-1] = replace(last, accepted=min(last.accepted, kept), emitted=kept)
    prompt_len = len(prompt)
    output = state.committed[prompt_len : prompt_len + max_new_tokens]
    return output, RunMetrics(tuple(log))


def greedy_decode(prompt: Sequence[int], verifier: Verifier, max_new_tokens: int) -> list[int]:
    """Plain one-token-at-a-time greedy decoding; the baseline speculative
    runs must match token for token."""
    if max_new_tokens < 1:
        raise ValueError("max_new_tokens must be at least 1")
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
