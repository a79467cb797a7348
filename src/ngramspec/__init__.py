"""Speculative decoding from LRU n-gram cache tables.

Draft trees are grown by recursive cache queries and accepted along the
greedy path of a deterministic verifier, and the dynamic table is refreshed
with a sliding window over accepted tokens.  The stand-in verifiers are
sequential, so acceptance walks only the greedy path; ``attention_mask`` is
the ancestor-only mask a batched model pass over ``pending ++ nodes`` would
use.  Output is always token-identical to plain greedy decoding.
"""

from .cache_table import (
    CacheTableConfig,
    Follower,
    Leader,
    LruCacheTable,
)
from .decode_loop import (
    DecodeState,
    KGramVerifier,
    ReplayOracle,
    RunMetrics,
    StepMetrics,
    Verifier,
    accept,
    decode_step,
    greedy_decode,
    init_from_prompt,
    reset,
    run_decode,
    update_tables,
)
from .draft_tree import (
    DraftConfig,
    DraftNode,
    DraftTree,
    attention_mask,
    build_draft_tree,
)
from .frozen_table import (
    FrozenTable,
    FrozenTableLoadError,
    NGramCounts,
    build_frozen,
    count_ngrams,
)

__all__ = [
    "CacheTableConfig",
    "DecodeState",
    "DraftConfig",
    "DraftNode",
    "DraftTree",
    "Follower",
    "FrozenTable",
    "FrozenTableLoadError",
    "KGramVerifier",
    "Leader",
    "LruCacheTable",
    "NGramCounts",
    "ReplayOracle",
    "RunMetrics",
    "StepMetrics",
    "Verifier",
    "accept",
    "attention_mask",
    "build_draft_tree",
    "build_frozen",
    "count_ngrams",
    "decode_step",
    "greedy_decode",
    "init_from_prompt",
    "reset",
    "run_decode",
    "update_tables",
]
