"""Run ``perfbench/run.py`` from a parent and a change checkout in strict
alternation and record every run, with per-metric medians, quartiles and
the number of pairs the change won, as one entry of a ``BENCH_*.json`` file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload ws-cold --seed 1 --pairs 10 --out BENCH_8.json

Runs go parent, change, parent, change, ... so two runs of one side never
sit next to each other, and a slow spell of the host lands on both sides.
Each run is one ``perfbench/run.py`` process started in its checkout with
the same arguments.  A metric's better direction comes from the change
checkout's ``BENCHMARK.json``; a pair counts for the change only when it is
strictly better, so ties count for neither side.  The entry is stored under
``series["<workload>-seed<seed>-trace<trace>"]`` after every pair; other
keys of an existing file are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``: its JSON result line and ``# env``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("# env ") :]) for line in lines if line.startswith("# env ")), {})
    return {
        "env": env,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str], units: dict[str, str]) -> dict:
    """Per metric: each side's runs in pair order, median and quartiles, and
    in how many pairs the change was strictly better."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    out = {}
    for name in by_side["change"][0]["metrics"]:
        values = {side: [r["metrics"][name] for r in by_side[side]] for side in SIDES}
        entry = {"unit": units.get(name), "better": better.get(name)}
        for side in SIDES:
            entry[side] = {**spread(values[side]), "runs": values[side]}
        if entry["better"] in ("higher", "lower"):
            sign = 1 if entry["better"] == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            entry["change_better"] = f"{wins} of {len(values['change'])}"
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json file to update")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m.get("better") for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    checkouts = {"parent": args.parent, "change": args.change}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs: list[dict] = []
    units: dict[str, str] = {}
    for pair in range(1, args.pairs + 1):
        for side in SIDES:
            run = run_once(checkouts[side], args.workload, args.seed, args.seconds, args.trace)
            units.update(run.pop("units"))
            runs.append({"pair": pair, "side": side, **run})
            print(f"pair {pair} {side}: correct={run['correct']}", file=sys.stderr)
        # Written after every pair, so an interrupted series keeps its runs.
        entry = {
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
            f"--seconds {args.seconds:g} --trace {args.trace}",
            "order": "strict alternation: parent, change, parent, change, ...",
            "pairs": pair,
            "all_correct": all(r["correct"] for r in runs),
            "failed_checks": {side: sum(r["failed"] for r in runs if r["side"] == side) for side in SIDES},
            "metrics": summarize(runs, better, units),
            "runs": runs,
        }
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data.setdefault("series", {})[name] = entry
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
