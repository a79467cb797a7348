"""Mutation check: every mutant below must make the tier-1 suite fail.

A mutant is a small deliberate bug, written as (name, file, exact old text,
new text).  For each one the script copies the repository into a temporary
directory, replaces the old text, which must occur exactly once in its file,
and runs tier-1 there with ``-x``: first its module's own test files,
``tests/test_<module>*.py``, and the whole of tier-1 only if those pass.  A
mutant that passes the whole suite survived: some behaviour has no test.
Run from the repository root, for every mutant or only the named ones:

    python3 tests/mutants.py [NAME ...]

Before any mutant runs, every old text is checked and the unmutated suite is
run once.  Exits 1 if an old text is not found exactly once, the unmutated
suite fails, or a mutant survives, and 2, listing the valid names, if a name
is unknown.  Tier-1 does not collect this file.

A surviving mutant asks for a test, not for the mutant's removal.  A change
that moves a mutant's text updates the mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIMEOUT_S = 600  # a suite that runs this long against a mutant counts as failing
IGNORE = shutil.ignore_patterns(
    ".git", ".bench_work", ".benchmarks", ".hypothesis", ".pytest_cache", "__pycache__"
)

DRAFT, LOOP = "src/ngramspec/draft_tree.py", "src/ngramspec/decode_loop.py"
LRU, FROZEN = "src/ngramspec/cache_table.py", "src/ngramspec/frozen_table.py"
CLI = "src/ngramspec/cli.py"

MUTANTS = [
    ("crt-reserve-ignored", DRAFT, "(spare - dcfg.crt) // fl", "spare // fl"),
    ("chain-budget-ge", DRAFT, "if c > limit:", "if c >= limit:"),
    ("phase-budget-lt", DRAFT, "if c > room or at == c:", "if c >= room or at == c:"),
    ("lifo-frontier", DRAFT, "chain(leaves, count(c))", "chain(leaves[::-1], count(c))"),
    ("frontier-from-chain-zero", DRAFT, "chain(leaves, count(c))", "chain(leaves, count(0))"),
    (
        "later-phase-leaves-skipped",
        DRAFT,
        "chain(leaves, count(c))",
        "chain(leaves if table is tables[0] else [], count(c))",
    ),
    ("node-view-parent-head", DRAFT, "parent * fl + fl - 1", "parent * fl"),
    (
        "followers-drafted-sorted",
        DRAFT,
        "for follower in lookup(leader):",
        "for follower in sorted(lookup(leader)):",
    ),
    ("childless-leaves-dropped", DRAFT, "leaves.append(at)", "pass"),
    (
        "pending-zero-after-prompt",
        LOOP,
        "state.pending_len = min(1, len(prompt))",
        "state.pending_len = 0",
    ),
    (
        "walk-reads-previous-chain",
        LOOP,
        "tree.nodes.chains[hit][2][1:]",
        "tree.nodes.chains[hit - 1][2][1:]",
    ),
    (
        "empty-map-taken-as-hit",
        LOOP,
        "hit = kids.get(expect) if kids else None",
        "hit = kids and kids.get(expect)",
    ),
    (
        "step-metrics-drafted-depth-swapped",
        LOOP,
        "StepMetrics(len(tree.nodes), accepted, state.pending_len, tree.max_depth)",
        "StepMetrics(tree.max_depth, accepted, state.pending_len, len(tree.nodes))",
    ),
    (
        "eos-stop-removed",
        LOOP,
        "if expect == eos or len(committed) >= end:",
        "if len(committed) >= end:",
    ),
    (
        "follower-recency-not-refreshed",
        LRU,
        "if follower in followers:\n            followers.remove(follower)",
        "if follower in followers:\n            return None",
    ),
    (
        "leader-recency-not-refreshed",
        LRU,
        "self._entries.move_to_end(leader)\n        return followers",
        "return followers",
    ),
    (
        "fill-cap-off-by-one",
        LRU,
        "elif len(followers) < fc and follower not in followers:",
        "elif len(followers) <= fc and follower not in followers:",
    ),
    (
        "fill-followers-one-late",
        LRU,
        "for k in range(width)]",
        "for k in [*range(ll), *range(ll + 1, width + 1)]]",
    ),
    ("fill-walks-oldest-first", LRU, "reversed(src[k : k + last])", "iter(src[k : k + last])"),
    (
        "tail-cut-at-four",
        LRU,
        "if len(followers) > self._fc else None",
        "if len(followers) > min(self._fc, 4) else None",
    ),
    (
        "frozen-fc-off-by-one",
        FROZEN,
        "- starts[group] < tcfg.fc]",
        "- starts[group] <= tcfg.fc]",
    ),
    (
        "sort-key-int32",
        FROZEN,
        "np.multiply(group, counts.max() + 1, dtype=np.int64)",
        "np.multiply(group, counts.max() + 1, dtype=np.int32)",
    ),
    (
        "crossing-window-mask-short",
        FROZEN,
        "for back in range(1, width):",
        "for back in range(1, width - 1):",
    ),
    (
        "ids-copied-for-counting",
        FROZEN,
        "np.frombuffer(ids, np.uint32)",
        "np.array(ids, np.uint32)",
    ),
    (
        "sampling-draw-skipped-once",
        CLI,
        "if draw() < fraction:",
        "if len(ends) == 1 or draw() < fraction:",
    ),
    (
        "ends-appended-before-extend",
        CLI,
        "            try:\n                ids.fromlist(tokenize(text, tokenizer, vocab))\n"
        "            except (OverflowError, TypeError) as exc:\n"
        '                raise ValueError(f"token ids must be integers in [0, 2**32): {exc}") from exc\n'
        "            ends.append(len(ids))",
        "            ends.append(len(ids))\n"
        "            try:\n                ids.fromlist(tokenize(text, tokenizer, vocab))\n"
        "            except (OverflowError, TypeError) as exc:\n"
        '                raise ValueError(f"token ids must be integers in [0, 2**32): {exc}") from exc',
    ),
    (
        "reader-splits-on-newline-only",
        CLI,
        "for line in physical.splitlines()",
        'for line in [physical.rstrip("\\n")]',
    ),
    (
        "new-words-numbered-sorted",
        CLI,
        "for word in words:\n                if word not in ids:",
        "for word in sorted(words):\n                if word not in ids:",
    ),
    ("prompt-split-moved", CLI, "cut = max(1, len(doc) // 2)", "cut = max(1, (len(doc) + 1) // 2)"),
    ("aggregate-mat-miscounted", CLI, '"mat": emitted / steps,', '"mat": emitted / (steps + 1),'),
    (
        "shared-verifier-reinstated",
        CLI,
        "KGramVerifier(cfg.kgram_order, [doc])",
        "KGramVerifier(cfg.kgram_order, docs)",
    ),
    (
        "dual-dynamic-labels-swapped",
        CLI,
        'mode = "dynamic" if frozen is None else "dual" if dynamic',
        'mode = "dual" if frozen is None else "dynamic" if dynamic',
    ),
    (
        "text-cells-formatted-apart",
        CLI,
        "[_cell(row[key]) for key in columns]",
        '[(_cell if fmt == "csv" else str)(row[key]) for key in columns]',
    ),
    (
        "text-aggregate-row-dropped",
        CLI,
        'if self.closing and self.closing["kind"] == "aggregate":',
        'if fmt == "csv" and self.closing and self.closing["kind"] == "aggregate":',
    ),
    (
        "text-closing-line-dropped",
        CLI,
        'lines += [f"# {_json(self.closing)}"] if self.closing else []',
        "lines += []",
    ),
    (
        "empty-task-document-skipped",
        CLI,
        "    for i, doc in enumerate(docs):\n        if not len(doc):\n"
        '            raise ValueError(f"task document {i} is empty")',
        "    docs = [doc for doc in docs if len(doc)]",
    ),
    (
        "sidecar-hashes-other-bytes",
        CLI,
        "vocab.table_sha256 = hashlib.sha256(data).hexdigest()",
        "vocab.table_sha256 = hashlib.sha256(data[:-1]).hexdigest()",
    ),
    ("save-returns-other-bytes", FROZEN, "        return data\n", "        return data[:-1]\n"),
    (
        "run-mark-keeps-last",
        FROZEN,
        "len(kept), index)\n    run = run[kept]\n    at = np.arange(len(kept), dtype=index)\n"
        "    np.minimum.at(",
        "-1, index)\n    run = run[kept]\n    at = np.arange(len(kept), dtype=index)\n"
        "    np.maximum.at(",
    ),
    (
        "follower-pool-keyed-by-first-token",
        FROZEN,
        "_pack(followers.T, base)",
        "_pack(followers.T[:1], base)",
    ),
    (
        "id-pool-skipped",
        FROZEN,
        "np.array(ids.tolist(), object)[id_of]",
        "np.array(ids[id_of].tolist(), object)",
    ),
    (
        "leader-ids-not-pooled",
        FROZEN,
        "zip(_tuples(shared[: leaders.size], ll), begins, ends)",
        "zip(map(tuple, leaders.tolist()), begins, ends)",
    ),
    (
        "load-skips-the-pool",
        FROZEN,
        "entries = _entries(leaders, followers, (ends - sizes).tolist(), ends.tolist())",
        "entries = {tuple(leader): tuple(map(tuple, followers[b:e].tolist())) for leader, b, e"
        " in zip(leaders.tolist(), (ends - sizes).tolist(), ends.tolist())}",
    ),
    (
        "first-token-slice-stride-one",
        FROZEN,
        "(offset + width) // 4 : fl]",
        "(offset + width) // 4 : 1]",
    ),
    (
        "first-token-guard-above-two",
        FROZEN,
        "if n_followers > 1 and",
        "if n_followers > 2 and",
    ),
    ("leader-never-marked-seen", FROZEN, "        seen.add(leader)\n", ""),
    (
        "save-fc-unchecked",
        FROZEN,
        "        if len(followers) > cfg.fc:\n            raise",
        "        if False:\n            raise",
    ),
    (
        "save-overflow-passed-through",
        FROZEN,
        "except OverflowError as exc:",
        "except ZeroDivisionError as exc:",
    ),
]


def misplaced() -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    problems = []
    for name, path, old, _ in MUTANTS:
        found = (ROOT / path).read_text(encoding="utf-8").count(old)
        if found != 1:
            problems.append(f"{name}: old text occurs {found} times in {path}")
    return problems


def suite_passes(mutant: tuple[str, str, str, str] | None) -> bool:
    """Run tier-1 with ``-x`` on a fresh copy of the repository, with the
    mutant applied (``None``: unmutated); True if every test passed.  The
    mutated module's own test files run first, and tier-1 only if they pass."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        runs = [[]]  # pytest arguments after TIER1: [] is the whole suite
        if mutant is not None:
            _, path, old, new = mutant
            target = copy / path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(old, new), encoding="utf-8")
            own = sorted(f"tests/{f.name}" for f in (copy / "tests").glob(f"test_{target.stem}*.py"))
            runs = [own, []] if own else runs
        paths = ["src", *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        for args in runs:
            try:
                done = subprocess.run(
                    [sys.executable, *TIER1, *args],
                    cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return False
            if done.returncode != 0:
                return False
        return True


def main(names: list[str]) -> int:
    known = [mutant[0] for mutant in MUTANTS]
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {' '.join(unknown)}; valid names:", *known, sep="\n", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant[0] in names]
    problems = misplaced()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    if not suite_passes(None):
        print("the unmutated suite fails: fix it before checking mutants", file=sys.stderr)
        return 1
    print(f"unmutated suite passes ({time.perf_counter() - t0:.1f}s)", flush=True)
    survivors = []
    for mutant in chosen:
        t1 = time.perf_counter()
        survived = suite_passes(mutant)
        if survived:
            survivors.append(mutant[0])
        verdict = "SURVIVED" if survived else "killed"
        print(f"{verdict:<9}{mutant[0]} ({time.perf_counter() - t1:.1f}s)", flush=True)
    total = time.perf_counter() - t0
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed in {total:.0f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
