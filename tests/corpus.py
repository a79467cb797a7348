"""The constructed desk corpus for trend and sweep tests.

Design: a background corpus of stock phrases feeds the frozen table, while
each evaluation document mixes those corpus-frequent phrases with a
document-specific sentence repeated throughout.  Recency (the dynamic table)
pays off on the repeated sentences; corpus frequency (the frozen table) pays
off on phrases first seen after the prompt half.
"""

from __future__ import annotations

import random
from array import array
from itertools import accumulate, chain
from typing import Sequence

PHRASES = [
    "the quarterly report shows steady growth across all regions",
    "please refer to the appendix for the detailed breakdown",
    "the committee approved the proposal without any further objection",
    "our forecast assumes stable demand through the coming cycle",
    "supply constraints eased gradually over the second fiscal quarter",
    "management reiterated its commitment to the original delivery schedule",
]


def background_texts(n_docs: int = 40, seed: int = 1234) -> list[str]:
    """Phrase-only documents; their n-gram statistics fill the frozen table."""
    rng = random.Random(seed)
    docs = []
    for _ in range(n_docs):
        parts = [rng.choice(PHRASES) for _ in range(rng.randint(5, 9))]
        docs.append(" ".join(parts))
    return docs


def eval_texts(n_docs: int = 6) -> list[str]:
    """Benchmark documents: header, then phrases interleaved with a repeated
    document-specific sentence."""
    docs = []
    for i in range(n_docs):
        header = " ".join(f"task{i}head{j}" for j in range(10))
        sentence = " ".join(f"task{i}rep{j}" for j in range(8))
        parts = [header]
        for k in range(5):
            parts.append(PHRASES[(i + k) % len(PHRASES)])
            parts.append(sentence)
        docs.append(" ".join(parts))
    return docs


def repetitive_docs(n_docs: int = 5000, seed: int = 7) -> list[list[int]]:
    """Token-id documents of five phrases each, drawn from 50 eight-token
    phrases over 400 ids: many tokens, few distinct windows."""
    rng = random.Random(seed)
    phrases = [[rng.randrange(400) for _ in range(8)] for _ in range(50)]
    return [[t for _ in range(5) for t in rng.choice(phrases)] for _ in range(n_docs)]


def diverse_docs(n_docs: int = 2000, seed: int = 11) -> list[list[int]]:
    """Token-id documents of 100 ids each drawn uniformly from 50,000: many
    tokens, and almost every window of four tokens distinct."""
    rng = random.Random(seed)
    return [[rng.randrange(50_000) for _ in range(100)] for _ in range(n_docs)]


def flat(docs: Sequence[Sequence[int]]) -> tuple[array, array]:
    """Token-id documents as ``count_ngrams`` takes them: every id end to end
    in one ``array('I')``, and the ``array('q')`` of cumulative lengths."""
    return array("I", chain.from_iterable(docs)), array("q", accumulate(map(len, docs)))
