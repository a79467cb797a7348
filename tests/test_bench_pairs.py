"""tools/bench_pairs.py: strict parent/change alternation and its summary."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

FAKE_RUN = """\
import json, sys
from pathlib import Path
side = {side!r}
log = Path({log!r})
n = len(log.read_text().split()) if log.exists() else 0
log.write_text((log.read_text() if log.exists() else "") + side + "\\n")
# The change is faster in every pair but the last, where it ties.
step = {{"parent": [20.0, 22.0, 24.0], "change": [19.0, 21.0, 24.0]}}[side][n // 2]
print("# env " + json.dumps({{"git_rev": side}}))
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": {{
    "step_us": {{"value": step, "unit": "us"}},
    "mat": {{"value": 2.5, "unit": "tok/step"}},
    "spare": {{"value": 1.0, "unit": "count"}},
}}}}))
"""


def fake_checkout(root: Path, side: str, log: Path) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(side=side, log=str(log)))
    spec = {
        "end_to_end": [{"name": "step_us", "better": "lower"}, {"name": "mat", "better": "higher"}],
        "per_layer": [],
    }
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return root


def test_runs_alternate_strictly_and_are_summarized(tmp_path):
    log = tmp_path / "order.log"
    parent = fake_checkout(tmp_path / "p", "parent", log)
    change = fake_checkout(tmp_path / "c", "change", log)
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"what": "kept"}))
    argv = [sys.executable, str(TOOL), "--parent", str(parent), "--change", str(change)]
    argv += ["--workload", "w", "--seed", "3", "--pairs", "3", "--seconds", "1", "--out", str(out)]
    subprocess.run(argv, check=True, capture_output=True, timeout=120)

    assert log.read_text().split() == ["parent", "change"] * 3
    data = json.loads(out.read_text())
    assert data["what"] == "kept"
    entry = data["series"]["w-seed3-trace0"]
    assert [(r["pair"], r["side"]) for r in entry["runs"]] == [
        (p, s) for p in (1, 2, 3) for s in ("parent", "change")
    ]
    assert entry["runs"][0]["env"] == {"git_rev": "parent"}
    step = entry["metrics"]["step_us"]
    assert step["parent"]["runs"] == [20.0, 22.0, 24.0]
    assert step["change"]["runs"] == [19.0, 21.0, 24.0]
    assert (step["parent"]["median"], step["parent"]["q1"], step["parent"]["q3"]) == (22.0, 21.0, 23.0)
    assert step["change_better"] == "2 of 3"
    assert entry["metrics"]["mat"]["change_better"] == "0 of 3"  # ties count for neither
    assert "change_better" not in entry["metrics"]["spare"]
    assert entry["all_correct"] and entry["failed_checks"] == {"parent": 0, "change": 0}
