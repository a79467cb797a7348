"""Seeded workload generator for the decode benchmark.

A workload is a corpus file (one document per line, the frozen table's
source) and a task file (one task document per line, as ``ngramspec bench
--prompts`` reads them).  Both are plain text made from a synthetic lexicon,
so the program sees only the generated files and the same seed always gives
byte-identical inputs.

Text is built from *stock phrases*: short word sequences drawn from a shared
lexicon.  The corpus strings popular phrases together; each task is a header
of task-specific words followed by segments that are either the task's own
repeated sentence (bursty text, which the dynamic table catches) or stock
phrases (corpus-frequent text, which the frozen table catches).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
PHRASE_WORDS = (5, 9)  # words per stock phrase
DOC_PHRASES = (4, 8)  # phrases per corpus document
HEADER_WORDS = 8  # task-specific words opening each task


@dataclass(frozen=True)
class Workload:
    """Knobs of one workload.

    Text shape: ``lexicon`` distinct words, ``phrases`` stock phrases and
    ``corpus_docs`` corpus documents.  Tasks: ``tasks`` documents, each a
    header of task-specific words and ``task_segments`` segments (so the
    prompt, the first half, grows with it), of which a ``repeat_share`` are
    the task's own sentence and the rest are distinct stock phrases, in
    shuffled order.

    Decoding: ``tokenizer``, the ``tdl`` budget and ``fc`` follower capacity,
    ``max_new_tokens`` per task, and whether a frozen table is built from the
    corpus at all (``frozen``).
    """

    name: str
    why: str
    tokenizer: str
    frozen: bool
    corpus_docs: int
    tasks: int
    repeat_share: float
    max_new_tokens: int
    tdl: int = 96
    fc: int = 128
    lexicon: int = 600
    phrases: int = 120
    task_segments: int = 12


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ws-bursty",
            why="whitespace tokens, tasks repeat their own sentence: the dynamic table "
            "drafts most tokens, so draft build and verification dominate each step",
            tokenizer="whitespace",
            frozen=True,
            corpus_docs=400,
            tasks=480,
            repeat_share=0.5,
            max_new_tokens=128,
        ),
        Workload(
            name="byte-evict",
            why="byte tokens with fc=8 and tdl=48: follower lists fill and inserts "
            "evict, low MAT means many steps, and no frozen table is built",
            tokenizer="byte",
            frozen=False,
            corpus_docs=400,
            tasks=240,
            repeat_share=0.5,
            max_new_tokens=160,
            tdl=48,
            fc=8,
        ),
        Workload(
            name="ws-cold",
            why="whitespace tokens, large corpus, tasks never repeat themselves: the "
            "frozen table carries drafting and set-up time is mostly table building",
            tokenizer="whitespace",
            frozen=True,
            corpus_docs=20000,
            tasks=240,
            repeat_share=0.0,
            max_new_tokens=24,
            lexicon=4000,
            phrases=3000,
            task_segments=30,
        ),
    )
}


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) for _ in range(rng.randint(1, 3)))


def _lexicon(rng: random.Random, size: int) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < size:
        words[_word(rng)] = None
    return list(words)


def generate(workload: Workload, seed: int) -> tuple[list[str], list[str]]:
    """Corpus documents and task documents of ``workload`` for ``seed``."""
    # The language (lexicon and stock phrases) is fixed per workload and the
    # seed draws the documents: seeds vary the text, not the statistics of the
    # language it is drawn from.
    lang = random.Random(workload.name)
    lexicon = _lexicon(lang, workload.lexicon)
    # Zipf-like word and phrase popularity: a few common words are shared by
    # many phrases (ambiguous leaders), a few phrases dominate the corpus.
    word_weights = [1.0 / (rank + 1) for rank in range(len(lexicon))]
    phrases = [
        " ".join(lang.choices(lexicon, word_weights, k=lang.randint(*PHRASE_WORDS)))
        for _ in range(workload.phrases)
    ]
    rng = random.Random(f"{workload.name}:{seed}")
    phrase_weights = [1.0 / (rank + 1) ** 0.5 for rank in range(len(phrases))]

    corpus = [
        " ".join(rng.choices(phrases, phrase_weights, k=rng.randint(*DOC_PHRASES)))
        for _ in range(workload.corpus_docs)
    ]

    tasks = []
    for i in range(workload.tasks):
        header = [f"t{i}h{j}" for j in range(HEADER_WORDS)]
        own = [f"t{i}s{j}" if j % 2 else rng.choice(lexicon) for j in range(8)]
        sentence = " ".join(own)
        repeats = round(workload.repeat_share * workload.task_segments)
        segments = [sentence] * repeats + rng.sample(phrases, workload.task_segments - repeats)
        rng.shuffle(segments)
        tasks.append(" ".join(header + segments))
    return corpus, tasks


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write ``corpus.txt`` and ``tasks.txt`` for ``seed`` into ``directory``."""
    corpus, tasks = generate(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    corpus_path = directory / "corpus.txt"
    tasks_path = directory / "tasks.txt"
    corpus_path.write_text("\n".join(corpus) + "\n", encoding="utf-8")
    tasks_path.write_text("\n".join(tasks) + "\n", encoding="utf-8")
    return corpus_path, tasks_path
