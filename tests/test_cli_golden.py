"""Golden renderings: bench, sweep and ablate in every --format, byte for byte.

A fixed-step clock stands in for ``time.perf_counter``, so ``wall_s`` and
tokens/s are reproducible.  The expected files are in ``tests/golden``.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import pytest

from ngramspec.cli import main

from corpus import background_texts, eval_texts

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
