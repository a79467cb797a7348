"""Golden renderings: bench, sweep and ablate in every --format, byte for byte.

A fixed-step clock stands in for ``time.perf_counter``, so ``wall_s`` and
tokens/s are reproducible.  The expected files are in ``tests/golden``; the
step counts of the bench golden are re-derived by the reference simulator.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

import pytest

from ngramspec.cli import main
from ngramspec.decode_loop import KGramVerifier

from corpus import background_texts, eval_texts
from oracles import SimDecoder, naive_frozen_map

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = {"bench": [], "sweep": ["--ll", "1,2", "--fl", "1-2"], "ablate": []}
FORMATS = ("text", "json", "csv")


def argv(command: str, fmt: str, tmp_path: Path) -> list[str]:
    """Write the input files into ``tmp_path`` and return the command line."""
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(background_texts(10)), encoding="utf-8")
    return [
        command,
        "--prompts", str(prompts),
        "--corpus", str(corpus),
        "--lc", "256",
        "--fc", "16",
        "--tdl", "24",
        "--crt", "4",
        "--max-new-tokens", "30",
        "--format", fmt,
        *COMMANDS[command],
    ]


def fake_clock():
    return itertools.count(0, 0.00125).__next__


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
def test_rendering_matches_golden(command, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(time, "perf_counter", fake_clock())
    assert main(argv(command, fmt, tmp_path)) == 0
    expected = (GOLDEN / f"{command}_{fmt}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_bench_golden_steps_match_the_simulator():
    """The golden bench inputs replayed through ``SimDecoder``: each task row's
    steps, emitted tokens and per-step emitted counts are the simulator's."""
    ids: dict[str, int] = {}  # one vocabulary that numbers the corpus first
    corpus = [[ids.setdefault(w, len(ids)) for w in text.split()] for text in background_texts(10)]
    docs = [[ids.setdefault(w, len(ids)) for w in text.split()] for text in eval_texts(2)]
    sim = SimDecoder(1, 3, 256, 16, 24, 4, frozen_map=naive_frozen_map(corpus, 1, 3, 256, 16))
    verifier = KGramVerifier(3, docs)
    lines = (GOLDEN / "bench_json.txt").read_text(encoding="utf-8").splitlines()
    tasks = [row for row in map(json.loads, lines) if row["kind"] == "task"]
    assert len(tasks) == len(docs)
    for row, doc in zip(tasks, docs):
        sim.reset()
        _, steps, emitted = sim.run(doc[: max(1, len(doc) // 2)], verifier, 30)
        assert (row["steps"], row["emitted"]) == (steps, emitted)
        assert [step["emitted"] for step in row["step_log"]] == sim.step_emitted
