"""Golden renderings: bench, sweep and ablate in every --format, byte for byte.

A fixed-step clock stands in for ``time.perf_counter``, so ``wall_s`` and
tokens/s are reproducible.  The expected files are in ``tests/golden``; the
step counts of the bench and ablate goldens are re-derived by the reference
simulator.
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


def rendered(command: str, fmt: str, tmp_path: Path, monkeypatch, capsys) -> list[str]:
    """The lines ``command`` prints in ``fmt`` on the golden inputs."""
    monkeypatch.setattr(time, "perf_counter", fake_clock())
    assert main(argv(command, fmt, tmp_path)) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", COMMANDS)
def test_text_table_is_the_csv_table(command, tmp_path, monkeypatch, capsys):
    """Row by row, the text table's cells split on whitespace are the CSV's
    cells split on commas: same columns, same rows, same precision."""
    text = rendered(command, "text", tmp_path, monkeypatch, capsys)
    csv = rendered(command, "csv", tmp_path, monkeypatch, capsys)
    assert text[0].startswith("# config: ")
    table = [line for line in text[1:] if not line.startswith("#")]
    assert [line.split() for line in table] == [line.split(",") for line in csv]


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_text_closes_with_the_json_closing_line(command, tmp_path, monkeypatch, capsys):
    text = rendered(command, "text", tmp_path, monkeypatch, capsys)
    lines = rendered(command, "json", tmp_path, monkeypatch, capsys)
    assert json.loads(lines[-1])["kind"] in ("aggregate", "summary")
    assert text[-1] == "# " + lines[-1]


def simulate(frozen: bool, dynamic: bool):
    """The golden inputs replayed through ``SimDecoder`` under one wiring, with
    one order-3 k-gram verifier per task: yields each task's steps, emitted
    tokens and per-step emitted counts."""
    ids: dict[str, int] = {}  # one vocabulary that numbers the corpus first
    corpus = [[ids.setdefault(w, len(ids)) for w in text.split()] for text in background_texts(10)]
    docs = [[ids.setdefault(w, len(ids)) for w in text.split()] for text in eval_texts(2)]
    frozen_map = naive_frozen_map(corpus, 1, 3, 256, 16) if frozen else None
    sim = SimDecoder(1, 3, 256, 16, 24, 4, frozen_map=frozen_map, dynamic_enabled=dynamic)
    for doc in docs:
        sim.reset()
        _, steps, emitted = sim.run(doc[: max(1, len(doc) // 2)], KGramVerifier(3, [doc]), 30)
        yield steps, emitted, sim.step_emitted


def golden_rows(name: str, kind: str) -> list[dict]:
    lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    return [row for row in map(json.loads, lines) if row["kind"] == kind]


def test_bench_golden_steps_match_the_simulator():
    """Each task row's steps, emitted tokens and per-step emitted counts in
    the bench golden (dual wiring) are the simulator's."""
    tasks = golden_rows("bench_json.txt", "task")
    simulated = list(simulate(frozen=True, dynamic=True))
    assert len(tasks) == len(simulated) == 2
    for row, (steps, emitted, step_emitted) in zip(tasks, simulated):
        assert (row["steps"], row["emitted"]) == (steps, emitted)
        assert [step["emitted"] for step in row["step_log"]] == step_emitted


def test_ablate_golden_steps_match_the_simulator():
    """Each wiring row of the ablate golden totals the simulator's steps and
    emitted tokens under that wiring."""
    rows = golden_rows("ablate_json.txt", "wiring")
    wirings = {"dual": (True, True), "dynamic": (False, True), "frozen": (True, False)}
    assert [row["wiring"] for row in rows] == list(wirings)
    for row in rows:
        simulated = list(simulate(*wirings[row["wiring"]]))
        totals = (sum(s for s, _, _ in simulated), sum(e for _, e, _ in simulated))
        assert (row["steps"], row["emitted"]) == totals
