"""Decode benchmark for ngramspec: one workload, one seed, one run.

    python3 perfbench/run.py --workload ws-bursty --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
inputs are generated from the seed into ``.bench_work/<workload>/``.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The exit code is 0 when every check
passed, 1 when one failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def git_revision(root: Path) -> str | None:
    """HEAD's commit id, read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ngramspec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": git_revision(ROOT),
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ngramspec" / "__init__.py").is_file():
        print(f"error: no ngramspec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS, write_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workdir = WORK / w.name
    corpus, tasks = write_inputs(w, args.seed, workdir)

    tally = bench.Tally()
    run = bench.traced_run if args.trace else bench.untraced_run
    result = run(w, corpus, tasks, workdir, args.seconds, tally)

    env = environment()
    header = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    print(f"# {json.dumps(header)}")
    print(f"# env {json.dumps(env)}")
    print(f"# samples {json.dumps(result.samples)}")
    for name, value in result.metrics.items():
        print(f"{name:<42}{value:>16.6g} {result.units[name]}")
    print(f"{'fail_rate':<42}{tally.failed / tally.attempted:>16.6g} ({tally.failed} of {tally.attempted} checks)")
    metrics = {name: {"value": value, "unit": result.units[name]} for name, value in result.metrics.items()}
    (workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(
            {**header, "env": env, "samples": result.samples, "failures": tally.messages, "metrics": metrics},
            indent=1,
        )
    )
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
