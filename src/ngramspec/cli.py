"""Command-line harness: frozen-table builds, decode benchmarks, grid sweeps,
and the dual-table ablation.

Benchmarks are model-free: a task document is split in half, the first half
is the prompt, and a deterministic verifier produces the continuation (a
replay oracle replays the second half; a k-gram verifier is trained on the
task's own document, as perfbench does).  State is reset between tasks, so
every command is deterministic given its inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from array import array
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .cache_table import CacheTableConfig, LruCacheTable, check_int
from .decode_loop import DecodeState, KGramVerifier, ReplayOracle, run_decode
from .draft_tree import DraftConfig
from .frozen_table import FrozenTable, build_frozen, count_ngrams

# Reserved end-of-sequence id (u32 max); neither tokenizer can produce it.
EOS_TOKEN = 0xFFFF_FFFF

TOKENIZERS = ("whitespace", "byte")


class Vocab:
    """Insertion-ordered word-to-id map for the whitespace tokenizer.

    ``table_sha256`` is the SHA-256 of the CBFT table whose ids these are;
    ``build-table`` stores it in the ``.vocab.json`` sidecar so that a
    sidecar left beside another table is refused.
    """

    def __init__(self, words: Iterable[str] = (), table_sha256: str | None = None) -> None:
        self._ids: dict[str, int] = {}
        self.table_sha256 = table_sha256
        for word in words:
            self._ids.setdefault(word, len(self._ids))

    def encode(self, text: str) -> list[int]:
        words, ids = text.split(), self._ids
        try:
            return list(map(ids.__getitem__, words))
        except KeyError:  # a new word: give new words ids in first-seen order, then map
            for word in words:
                if word not in ids:
                    ids[word] = len(ids)
            return list(map(ids.__getitem__, words))

    def words(self) -> list[str]:
        return list(self._ids)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"table_sha256": self.table_sha256, "words": self.words()}),
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        words = data.get("words") if isinstance(data, dict) else None
        if not isinstance(words, list):
            raise ValueError(f"{path} is not a vocabulary file")
        # save never writes these: a non-string matches no word, a repeat shifts later ids.
        if not all(isinstance(word, str) for word in words) or len(set(words)) != len(words):
            raise ValueError(f"{path} does not list distinct words; rebuild the table")
        return cls(words, data.get("table_sha256"))


def tokenize(text: str, mode: str, vocab: Vocab | None = None) -> list[int]:
    """Token ids for ``text``: raw UTF-8 bytes (ids 0-255) in byte mode, or
    whitespace-split words mapped through ``vocab``, which that mode requires."""
    if mode not in TOKENIZERS:
        raise ValueError(f"unknown tokenizer mode {mode!r}")
    if mode == "byte":
        return list(text.encode("utf-8"))
    if vocab is None:
        raise ValueError("the whitespace tokenizer needs a vocabulary its texts share")
    return vocab.encode(text)


def _documents(paths: Sequence[str | Path], doc_mode: str) -> Iterator[str]:
    """Documents in file order: one per non-blank line, or one per file.  Line
    mode streams each file, and splits each line read again at the breaks
    ``splitlines`` adds to ``\\n``, ``\\r`` and ``\\r\\n``: the whole text's lines."""
    if doc_mode not in ("line", "file"):
        raise ValueError(f"unknown doc mode {doc_mode!r}")
    for path in paths:
        if doc_mode == "file":
            text = Path(path).read_text(encoding="utf-8")
            if text and not text.isspace():
                yield text
            continue
        with open(path, encoding="utf-8") as f:
            for physical in f:
                for line in physical.splitlines():
                    if line and not line.isspace():  # what strip() tests, without a copy
                        yield line


def read_documents(paths: Sequence[str | Path], doc_mode: str) -> list[str]:
    """Every document, as a list (prompts are read whole), split as the corpus streams."""
    return list(_documents(paths, doc_mode))


def _corpus_ids(
    paths: Sequence[str | Path], doc_mode: str, tokenizer: str, vocab: Vocab | None,
    fraction: float = 1.0, seed: int = 0,
) -> tuple[array, array]:
    """The corpus as ``count_ngrams`` takes it: every id in one u32 ``array('I')``
    and the cumulative document lengths in an ``array('q')``.  A document is
    kept if its ``random.Random(seed).random()`` draw, one per document in file
    order, is below ``fraction``, and is tokenized straight into the ids."""
    draw, ids, ends = random.Random(seed).random, array("I"), array("q")
    for text in _documents(paths, doc_mode):
        if draw() < fraction:
            try:
                ids.fromlist(tokenize(text, tokenizer, vocab))
            except (OverflowError, TypeError) as exc:
                raise ValueError(f"token ids must be integers in [0, 2**32): {exc}") from exc
            ends.append(len(ids))
    return ids, ends


@dataclass
class RunConfig:
    """Effective benchmark configuration (defaults: the empirically best
    table and budget settings), validated on construction and by ``replace``."""

    ll: int = 1
    fl: int = 3
    lc: int = 2**20
    fc: int = 128
    tdl: int = 96
    crt: int = 16
    tokenizer: str = "whitespace"
    doc_mode: str = "line"
    verifier: str = "kgram"
    kgram_order: int = 3
    max_new_tokens: int = 128

    def __post_init__(self) -> None:
        self.table_config()
        self.draft_config()
        if self.tokenizer not in TOKENIZERS:
            raise ValueError(f"unknown tokenizer {self.tokenizer!r}")
        if self.doc_mode not in ("line", "file"):
            raise ValueError(f"unknown doc mode {self.doc_mode!r}")
        if self.verifier not in ("kgram", "replay"):
            raise ValueError(f"unknown verifier {self.verifier!r}")
        for name in ("kgram_order", "max_new_tokens"):
            check_int(name, getattr(self, name))

    def table_config(self) -> CacheTableConfig:
        return CacheTableConfig(ll=self.ll, fl=self.fl, lc=self.lc, fc=self.fc)

    def draft_config(self) -> DraftConfig:
        return DraftConfig(tdl=self.tdl, crt=self.crt)


@dataclass
class Report:
    """One command's results: the effective config, rows keyed by their
    JSON/CSV names, and an optional closing line (``aggregate`` or
    ``summary``).  ``kind`` (``task``, ``cell`` or ``wiring``) tags the JSON rows.

    Every format renders the same report.  CSV and text share one table: a
    column per scalar row key, plus an ``AGGREGATE`` row when the closing line
    is an aggregate.  Text aligns that table's cells between the config line
    and the closing line's JSON object.
    """

    config: dict
    kind: str
    rows: list[dict]
    closing: dict | None = None

    def render(self, fmt: str) -> str:
        if fmt == "json":
            lines = [{"kind": "config", **self.config}]
            lines += [{"kind": self.kind, **row} for row in self.rows]
            lines += [self.closing] if self.closing else []
            return "\n".join(map(_json, lines))
        if fmt not in ("text", "csv"):
            raise ValueError(f"unknown format {fmt!r}")
        columns = [key for key, value in self.rows[0].items() if not isinstance(value, list)]
        rows = list(self.rows)
        if self.closing and self.closing["kind"] == "aggregate":
            rows.append({**self.closing, columns[0]: "AGGREGATE"})
        table = [columns, *([_cell(row[key]) for key in columns] for row in rows)]
        if fmt == "csv":
            return "\n".join(map(",".join, table))
        widths = [max(map(len, column)) for column in zip(*table)]
        lines = [f"# config: {json.dumps(self.config, sort_keys=True)}"]
        lines += ["  ".join(map(str.rjust, row, widths)) for row in table]
        lines += [f"# {_json(self.closing)}"] if self.closing else []
        return "\n".join(lines)


def _json(line: dict) -> str:
    # Dataclass values (a task's StepMetrics) render as their fields.
    return json.dumps(line, sort_keys=True, default=asdict)


def _cell(value: object) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def run_bench(
    cfg: RunConfig,
    docs: Sequence[Sequence[int]],
    frozen: FrozenTable | None = None,
    dynamic: bool = True,
) -> Report:
    """Run every task document, as given, through the decode loop with the
    tables given (``frozen`` if passed, a dynamic table if ``dynamic``): one
    ``task`` row per document and an ``aggregate`` closing line.  The
    config's ``mode`` names that wiring: ``dual``, ``dynamic`` or ``frozen``.
    As in perfbench, each task's k-gram verifier is trained on its own
    document; ``run_decode`` starts each task from a fresh dynamic table.
    An empty list, or an empty document (named by its index), is rejected
    before any task decodes."""
    if frozen is None and not dynamic:
        raise ValueError("frozen-only wiring requires a frozen table")
    if frozen is not None and (frozen.config.ll, frozen.config.fl) != (cfg.ll, cfg.fl):
        raise ValueError(
            f"table shape ll={frozen.config.ll},fl={frozen.config.fl} does not "
            f"match configured ll={cfg.ll},fl={cfg.fl}"
        )
    if not docs:
        raise ValueError("no task documents")
    for i, doc in enumerate(docs):
        if not len(doc):
            raise ValueError(f"task document {i} is empty")

    mode = "dynamic" if frozen is None else "dual" if dynamic else "frozen"
    dynamic_table = LruCacheTable(cfg.table_config()) if dynamic else None
    state = DecodeState(cfg.draft_config(), dynamic=dynamic_table, frozen=frozen)
    rows = []
    for i, doc in enumerate(docs):
        cut = max(1, len(doc) // 2)  # prompt: the first half, at least one token
        prompt, target = doc[:cut], doc[cut:]
        if cfg.verifier == "kgram":
            verifier = KGramVerifier(cfg.kgram_order, [doc])
        else:
            verifier = ReplayOracle(len(prompt), target, EOS_TOKEN)
        t0 = time.perf_counter()
        _, metrics = run_decode(state, prompt, verifier, cfg.max_new_tokens)
        wall = time.perf_counter() - t0
        rows.append(
            {
                "task": f"task-{i:03d}",
                "steps": metrics.steps,
                "emitted": metrics.total_emitted,
                "mat": metrics.mat,
                "wall_s": wall,
                "step_log": list(metrics.step_log),
            }
        )
    steps = sum(row["steps"] for row in rows)
    emitted = sum(row["emitted"] for row in rows)
    wall_s = sum(row["wall_s"] for row in rows)
    aggregate = {
        "kind": "aggregate",
        "steps": steps,
        "emitted": emitted,
        "mat": emitted / steps,
        "wall_s": wall_s,
        "tokens_per_sec": emitted / wall_s if wall_s > 0 else 0.0,
    }
    return Report({**asdict(cfg), "mode": mode}, "task", rows, aggregate)


def _vocab_sidecar(path: str | Path) -> Path:
    return Path(str(path) + ".vocab.json")


def cmd_build_table(
    corpus_paths: Sequence[str | Path],
    out: str | Path,
    tcfg: CacheTableConfig,
    tokenizer: str = "whitespace",
    doc_mode: str = "line",
    sample_fraction: float = 1.0,
    seed: int = 0,
) -> Path:
    """Sample the corpus, count n-grams, and write the frozen table.

    Whitespace runs also write the vocabulary next to the table
    (``<out>.vocab.json``) so later benchmarks can share token ids; it
    records the SHA-256 of the bytes ``FrozenTable.save`` wrote.  The
    corpus streams from its files into one u32 id array (4 bytes a token):
    neither the text, its lines nor a per-document array is held.  Each
    stage's input is released once the next stage holds its output, so
    ranking is not allocated on top of the ids.
    """
    if tokenizer not in TOKENIZERS:
        raise ValueError(f"unknown tokenizer mode {tokenizer!r}")
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(f"sample fraction must be in (0, 1], got {sample_fraction}")
    vocab = Vocab() if tokenizer == "whitespace" else None
    ids, ends = _corpus_ids(corpus_paths, doc_mode, tokenizer, vocab, sample_fraction, seed)
    if not ends:
        print("warning: corpus is empty after sampling; writing an empty table", file=sys.stderr)
    windows, counts = count_ngrams(ids, ends, tcfg)
    del ids, ends
    table = build_frozen(windows, counts, tcfg)
    del windows, counts
    out = Path(out)
    data = table.save(out)
    if vocab is not None:
        vocab.table_sha256 = hashlib.sha256(data).hexdigest()
        vocab.save(_vocab_sidecar(out))
    return out


def _load_inputs(
    cfg: RunConfig,
    prompt_paths: Sequence[str | Path],
    table_path: str | Path | None,
    corpus_paths: Sequence[str | Path] | None,
) -> tuple[list[list[int]], Callable[[CacheTableConfig], FrozenTable | None]]:
    """The prompts' token ids, and the one resolver of the run's frozen table:
    a function from a table shape to the table loaded from ``table_path`` (in
    its own shape; ``run_bench`` rejects a mismatch), a table of that shape
    built from the corpus, or None when neither is given.

    Whitespace ids come from one vocabulary: the table's sidecar, or a new
    one that numbers the corpus first, so that the prompts' ids match a
    table built from the corpus.
    """
    if table_path is not None and corpus_paths:
        raise ValueError("--table and --corpus each give the frozen table; pass only one")
    vocab = Vocab() if cfg.tokenizer == "whitespace" else None
    frozen = None
    if table_path is not None:
        data = Path(table_path).read_bytes()
        frozen = FrozenTable.load(data)
        sidecar = _vocab_sidecar(table_path)
        sha256 = hashlib.sha256(data).hexdigest()
        if vocab is not None:
            if not sidecar.exists():
                raise ValueError(
                    f"no vocabulary sidecar at {sidecar}; whitespace token ids "
                    "would not match the table"
                )
            vocab = Vocab.load(sidecar)
            if vocab.table_sha256 != sha256:
                raise ValueError(
                    f"vocabulary sidecar {sidecar} was written for another table; "
                    "rebuild the table to get matching token ids"
                )
        elif sidecar.exists():
            try:
                whitespace_table = Vocab.load(sidecar).table_sha256 == sha256
            except ValueError:  # not a vocabulary file: it vouches for no table
                whitespace_table = False
            if whitespace_table:
                raise ValueError(
                    f"{table_path} was built with the whitespace tokenizer (its sidecar "
                    f"{sidecar} matches it); byte token ids would not match the table"
                )
    frozen_for = lambda tcfg: frozen
    if corpus_paths:
        ids, ends = _corpus_ids(corpus_paths, cfg.doc_mode, cfg.tokenizer, vocab)
        frozen_for = lambda tcfg: build_frozen(*count_ngrams(ids, ends, tcfg), tcfg)
    texts = read_documents(prompt_paths, cfg.doc_mode)
    return [tokenize(text, cfg.tokenizer, vocab) for text in texts], frozen_for


def cmd_bench(
    cfg: RunConfig,
    prompt_paths: Sequence[str | Path],
    table_path: str | Path | None = None,
    corpus_paths: Sequence[str | Path] | None = None,
) -> Report:
    """Benchmark the decode loop over prompt documents: dual wiring with the
    frozen table from ``table_path`` or ``corpus_paths``, the dynamic table
    alone with neither.  On perfbench's inputs the MAT is perfbench's."""
    docs, frozen_for = _load_inputs(cfg, prompt_paths, table_path, corpus_paths)
    return run_bench(cfg, docs, frozen_for(cfg.table_config()))


def cmd_sweep(
    cfg: RunConfig,
    ll_values: Sequence[int],
    fl_values: Sequence[int],
    prompt_paths: Sequence[str | Path],
    corpus_paths: Sequence[str | Path] | None = None,
) -> Report:
    """Benchmark every (ll, fl) grid cell: one ``cell`` row each, and a
    ``summary`` line saying whether ``ll=1`` attains the grid maximum.

    A frozen table is rebuilt from the corpus per cell (a serialized table
    pins one shape, so sweeps take a corpus instead of a table); without a
    corpus the sweep runs on the dynamic table alone.
    """
    # Every cell is validated before any input is read or decoded.
    cells = [replace(cfg, ll=ll, fl=fl) for ll in ll_values for fl in fl_values]
    if not cells:
        raise ValueError("sweep needs at least one ll value and one fl value")
    # Token ids do not depend on (ll, fl): tokenize once for the whole grid.
    docs, frozen_for = _load_inputs(cfg, prompt_paths, None, corpus_paths)
    rows = []
    for cell in cells:
        mat = run_bench(cell, docs, frozen_for(cell.table_config())).closing["mat"]
        rows.append({"ll": cell.ll, "fl": cell.fl, "mat": mat})
    best = max(row["mat"] for row in rows)
    ll1_attains_max = any(row["ll"] == 1 and row["mat"] == best for row in rows)
    summary = {"kind": "summary", "ll1_attains_max": ll1_attains_max}
    config = {**asdict(cfg), "ll": list(ll_values), "fl": list(fl_values)}
    return Report(config, "cell", rows, summary)


def cmd_ablate(
    cfg: RunConfig,
    prompt_paths: Sequence[str | Path],
    table_path: str | Path | None = None,
    corpus_paths: Sequence[str | Path] | None = None,
) -> Report:
    """Three benchmark runs differing only in table wiring: one ``wiring``
    row each for dual, dynamic-only and frozen-only, from its aggregate."""
    if table_path is None and not corpus_paths:
        raise ValueError("ablation requires a frozen table (--table or --corpus)")
    docs, frozen_for = _load_inputs(cfg, prompt_paths, table_path, corpus_paths)
    frozen = frozen_for(cfg.table_config())
    rows = []
    for table, dynamic in ((frozen, True), (None, True), (frozen, False)):
        report = run_bench(cfg, docs, table, dynamic)
        row = {key: report.closing[key] for key in ("steps", "emitted", "mat", "tokens_per_sec")}
        rows.append({"wiring": report.config["mode"], **row})
    return Report(asdict(cfg), "wiring", rows)


def parse_int_list(spec: str) -> list[int]:
    """Parse "1,2,5" and "1-5" (also mixed: "1,3-5") into a list of ints."""
    values: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError(f"empty range {part!r}")
            values.extend(range(lo_i, hi_i + 1))
        else:
            values.append(int(part))
    if not values:
        raise ValueError(f"no values in {spec!r}")
    return values


def _add_table_shape_args(p: argparse.ArgumentParser, lengths: Callable = int) -> None:
    # String defaults go through ``type``, so a sweep's default is a list too.
    p.add_argument("--ll", type=lengths, default=str(RunConfig.ll), help="tokens per leader")
    p.add_argument("--fl", type=lengths, default=str(RunConfig.fl), help="tokens per follower")
    p.add_argument("--lc", type=int, default=RunConfig.lc, help="max leaders per table")
    p.add_argument("--fc", type=int, default=RunConfig.fc, help="max followers per leader")
    p.add_argument("--tokenizer", choices=TOKENIZERS, default=RunConfig.tokenizer)
    p.add_argument("--doc-mode", choices=("line", "file"), default=RunConfig.doc_mode)


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tdl", type=int, default=RunConfig.tdl, help="total draft length budget")
    p.add_argument("--crt", type=int, default=RunConfig.crt, help="tokens reserved for depth >= 2")
    p.add_argument("--verifier", choices=("kgram", "replay"), default=RunConfig.verifier)
    p.add_argument("--kgram-order", type=int, default=RunConfig.kgram_order)
    p.add_argument("--max-new-tokens", type=int, default=RunConfig.max_new_tokens)
    p.add_argument("--prompts", nargs="+", required=True, help="prompt document file(s)")
    p.add_argument("--table", default=None, help="frozen table file (CBFT)")
    p.add_argument(
        "--corpus", nargs="+", default=None, help="corpus file(s) to build a frozen table from"
    )
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("text", "json", "csv"), default=None)


def _config_from_args(args: argparse.Namespace, **shape: int) -> RunConfig:
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return RunConfig(**{**values, **shape})


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ngramspec",
        description="Speculative decoding from n-gram cache tables: build frozen tables, "
        "benchmark acceptance rates, sweep table shapes, and ablate table wirings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-table", help="build a frozen table from a corpus")
    p_build.add_argument("corpus", nargs="+", help="corpus text file(s)")
    p_build.add_argument("--out", required=True, help="output table path")
    p_build.add_argument("--sample-fraction", type=float, default=1.0)
    p_build.add_argument("--seed", type=int, default=0, help="document sampling seed")
    _add_table_shape_args(p_build)

    grid_help = "benchmark an (ll, fl) grid: --ll and --fl take lists such as 1,2 or 1-5"
    for name, lengths, summary in (
        ("bench", int, "run the decode benchmark over prompts"),
        ("sweep", parse_int_list, grid_help),
        ("ablate", int, "compare dual / dynamic-only / frozen-only wirings"),
    ):
        p_run = sub.add_parser(name, help=summary, description=summary)
        _add_table_shape_args(p_run, lengths)
        _add_run_args(p_run)

    args = parser.parse_args(argv)
    try:
        if args.command == "build-table":
            tcfg = CacheTableConfig(ll=args.ll, fl=args.fl, lc=args.lc, fc=args.fc)
            out = cmd_build_table(
                args.corpus,
                args.out,
                tcfg,
                tokenizer=args.tokenizer,
                doc_mode=args.doc_mode,
                sample_fraction=args.sample_fraction,
                seed=args.seed,
            )
            print(f"wrote {out}")
            return 0
        if args.command == "sweep":
            if args.table is not None:
                raise ValueError(
                    "sweep does not take --table: it rebuilds the frozen table "
                    "for every (ll, fl) cell from --corpus"
                )
            cfg = _config_from_args(args, ll=args.ll[0], fl=args.fl[0])
            report = cmd_sweep(cfg, args.ll, args.fl, args.prompts, args.corpus)
        else:
            command = cmd_bench if args.command == "bench" else cmd_ablate
            cfg = _config_from_args(args)
            report = command(cfg, args.prompts, args.table, args.corpus)
        text = report.render(args.format or ("csv" if args.command == "sweep" else "text"))
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
    except BrokenPipeError:
        # The reader closed stdout early: send what is left to devnull, so the
        # flush at exit does not fail again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
