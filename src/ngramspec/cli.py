"""Command-line harness: frozen-table builds, decode benchmarks, grid sweeps,
and the dual-table ablation.

Benchmarks are model-free: a task document is split in half, the first half
is the prompt, and a deterministic verifier produces the continuation (a
replay oracle replays the second half; a k-gram verifier is trained on the
full task documents).  State is reset between tasks, so every command is
deterministic given its inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .cache_table import CacheTableConfig, LruCacheTable
from .decode_loop import (
    DecodeState,
    KGramVerifier,
    ReplayOracle,
    reset,
    run_decode,
)
from .draft_tree import DraftConfig
from .frozen_table import FrozenTable, build_frozen, count_ngrams

# Reserved end-of-sequence id (u32 max); neither tokenizer can produce it.
EOS_TOKEN = 0xFFFF_FFFF

MODES = ("dual", "dynamic", "frozen")


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
            self.id(word)

    def id(self, word: str) -> int:
        at = self._ids.get(word)
        if at is None:
            at = self._ids[word] = len(self._ids)
        return at

    def encode(self, text: str) -> list[int]:
        words = text.split()
        try:
            return list(map(self._ids.__getitem__, words))
        except KeyError:  # a new word: assign ids in first-seen order
            return [self.id(word) for word in words]

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
        if not isinstance(data, dict) or not isinstance(data.get("words"), list):
            raise ValueError(f"{path} is not a vocabulary file")
        return cls(data["words"], data.get("table_sha256"))


def tokenize(text: str, mode: str, vocab: Vocab | None = None) -> list[int]:
    """Token ids for ``text``: raw UTF-8 bytes (ids 0-255) in byte mode, or
    whitespace-split words mapped through an insertion-ordered vocabulary."""
    if mode == "byte":
        return list(text.encode("utf-8"))
    if mode == "whitespace":
        return (vocab if vocab is not None else Vocab()).encode(text)
    raise ValueError(f"unknown tokenizer mode {mode!r}")


def read_documents(paths: Sequence[str | Path], doc_mode: str) -> list[str]:
    """Load corpus documents: one per non-blank line, or one per file."""
    if doc_mode not in ("line", "file"):
        raise ValueError(f"unknown doc mode {doc_mode!r}")
    docs: list[str] = []
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        if doc_mode == "line":
            docs.extend(line for line in text.splitlines() if line.strip())
        elif text.strip():
            docs.append(text)
    return docs


def sample_documents(docs: Sequence[str], fraction: float, seed: int) -> list[str]:
    """Seeded Bernoulli document sample; ``fraction`` must be in (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"sample fraction must be in (0, 1], got {fraction}")
    if fraction >= 1.0:
        return list(docs)
    rng = random.Random(seed)
    return [doc for doc in docs if rng.random() < fraction]


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
    verifier: str = "kgram"
    kgram_order: int = 3
    max_new_tokens: int = 128

    def __post_init__(self) -> None:
        self.table_config()
        self.draft_config()
        if self.tokenizer not in ("whitespace", "byte"):
            raise ValueError(f"unknown tokenizer {self.tokenizer!r}")
        if self.verifier not in ("kgram", "replay"):
            raise ValueError(f"unknown verifier {self.verifier!r}")
        for name in ("kgram_order", "max_new_tokens"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")

    def table_config(self) -> CacheTableConfig:
        return CacheTableConfig(ll=self.ll, fl=self.fl, lc=self.lc, fc=self.fc)

    def draft_config(self) -> DraftConfig:
        return DraftConfig(tdl=self.tdl, crt=self.crt)


@dataclass
class Report:
    """One command's results: the effective config, rows of one ``kind``
    (``task``, ``cell`` or ``wiring``) keyed by their JSON/CSV names, and an
    optional closing JSON line (``aggregate`` or ``summary``).

    JSON and CSV render every report alike; only the text layout depends on
    the row kind.
    """

    config: dict
    kind: str
    rows: list[dict]
    closing: dict | None = None

    def render(self, fmt: str) -> str:
        if fmt == "text":
            config_line = f"# config: {json.dumps(self.config, sort_keys=True)}"
            return "\n".join([config_line, *_TEXT_LAYOUTS[self.kind](self)])
        if fmt == "json":
            lines = [{"kind": "config", **self.config}]
            lines += [{"kind": self.kind, **row} for row in self.rows]
            lines += [self.closing] if self.closing else []
            # Dataclass values (a task's StepMetrics) render as their fields.
            return "\n".join(json.dumps(line, sort_keys=True, default=asdict) for line in lines)
        if fmt == "csv":
            # Every non-list key is a column; an aggregate closes the table.
            columns = [key for key, value in self.rows[0].items() if not isinstance(value, list)]
            rows = list(self.rows)
            if self.closing and self.closing["kind"] == "aggregate":
                rows.append({**self.closing, columns[0]: "AGGREGATE"})
            lines = [",".join(columns)]
            lines += [",".join(_csv_cell(row[key]) for key in columns) for row in rows]
            return "\n".join(lines)
        raise ValueError(f"unknown format {fmt!r}")


def _csv_cell(value: object) -> str:
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _bench_text(report: Report) -> list[str]:
    agg = report.closing
    lines = [f"{'task':<24}{'steps':>8}{'tokens':>8}{'mat':>8}{'wall_s':>10}"]
    for row in [*report.rows, {**agg, "task": "aggregate"}]:
        lines.append(
            f"{row['task']:<24}{row['steps']:>8}{row['emitted']:>8}{row['mat']:>8.3f}"
            f"{row['wall_s']:>10.4f}"
        )
    lines.append(f"# mode={report.config['mode']} tokens_per_sec={agg['tokens_per_sec']:.1f}")
    return lines


def _sweep_text(report: Report) -> list[str]:
    return [report.render("csv"), f"# ll=1 attains grid max: {report.closing['ll1_attains_max']}"]


def _ablate_text(report: Report) -> list[str]:
    lines = [f"{'wiring':<16}{'steps':>8}{'tokens':>8}{'mat':>8}{'tok/s':>10}"]
    for row in report.rows:
        lines.append(
            f"{row['wiring']:<16}{row['steps']:>8}{row['emitted']:>8}{row['mat']:>8.3f}"
            f"{row['tokens_per_sec']:>10.1f}"
        )
    return lines


_TEXT_LAYOUTS = {"task": _bench_text, "cell": _sweep_text, "wiring": _ablate_text}


def _split_task(doc: Sequence[int]) -> tuple[list[int], list[int]]:
    # Prompt = first half (at least one token), target = remainder.
    cut = max(1, len(doc) // 2)
    return list(doc[:cut]), list(doc[cut:])


def run_bench(
    cfg: RunConfig,
    docs: Sequence[Sequence[int]],
    frozen: FrozenTable | None = None,
    mode: str = "dual",
) -> Report:
    """Run every task document through the decode loop under one wiring:
    one ``task`` row per document and an ``aggregate`` closing line.

    mode selects the table wiring: "dual" (both tables), "dynamic" (no
    frozen table), "frozen" (no dynamic table).  One state is reused and
    reset between tasks.
    """
    if mode not in MODES:
        raise ValueError(f"unknown wiring mode {mode!r}")
    if mode == "frozen" and frozen is None:
        raise ValueError("frozen-only wiring requires a frozen table")
    if frozen is not None and (frozen.config.ll, frozen.config.fl) != (cfg.ll, cfg.fl):
        raise ValueError(
            f"table shape ll={frozen.config.ll},fl={frozen.config.fl} does not "
            f"match configured ll={cfg.ll},fl={cfg.fl}"
        )
    docs = [list(d) for d in docs if len(d)]
    if not docs:
        raise ValueError("no non-empty task documents")

    shared = KGramVerifier(cfg.kgram_order, docs) if cfg.verifier == "kgram" else None
    state = DecodeState(
        cfg.draft_config(),
        dynamic=None if mode == "frozen" else LruCacheTable(cfg.table_config()),
        frozen=None if mode == "dynamic" else frozen,
    )
    rows = []
    for i, doc in enumerate(docs):
        prompt, target = _split_task(doc)
        verifier = shared or ReplayOracle(len(prompt), target, EOS_TOKEN)
        reset(state)
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


def _build_table(corpus: list[list[int]], tcfg: CacheTableConfig) -> FrozenTable:
    return build_frozen(count_ngrams(corpus, tcfg), tcfg)


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
    (``<out>.vocab.json``) so later benchmarks can share token ids.
    """
    docs = read_documents(corpus_paths, doc_mode)
    sampled = sample_documents(docs, sample_fraction, seed)
    if not sampled:
        print("warning: corpus is empty after sampling; writing an empty table", file=sys.stderr)
    vocab = Vocab() if tokenizer == "whitespace" else None
    table = _build_table([tokenize(text, tokenizer, vocab) for text in sampled], tcfg)
    out = Path(out)
    table.save(out)
    if vocab is not None:
        vocab.table_sha256 = hashlib.sha256(out.read_bytes()).hexdigest()
        vocab.save(_vocab_sidecar(out))
    return out


def _load_inputs(
    cfg: RunConfig,
    prompt_paths: Sequence[str | Path],
    table_path: str | Path | None,
    corpus_paths: Sequence[str | Path] | None,
    doc_mode: str,
) -> tuple[list[list[int]], FrozenTable | None, list[list[int]] | None]:
    """The prompts' token ids, the frozen table loaded from ``table_path``
    and the corpus's token ids (None for an absent table or corpus).

    Whitespace ids come from one vocabulary: the table's sidecar, or a new
    one that numbers the corpus first, so that the prompts' ids match a
    table built from the corpus.
    """
    if table_path is not None and corpus_paths:
        raise ValueError("--table and --corpus each give the frozen table; pass only one")
    vocab = Vocab() if cfg.tokenizer == "whitespace" else None
    frozen = corpus = None
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
    if corpus_paths:
        texts = read_documents(corpus_paths, doc_mode)
        corpus = [tokenize(text, cfg.tokenizer, vocab) for text in texts]
    texts = read_documents(prompt_paths, doc_mode)
    return [tokenize(text, cfg.tokenizer, vocab) for text in texts], frozen, corpus


def cmd_bench(
    cfg: RunConfig,
    prompt_paths: Sequence[str | Path],
    table_path: str | Path | None = None,
    corpus_paths: Sequence[str | Path] | None = None,
    doc_mode: str = "line",
) -> Report:
    """Benchmark the decode loop over prompt documents (dual wiring; the
    dynamic table alone when no frozen table is supplied)."""
    docs, frozen, corpus = _load_inputs(cfg, prompt_paths, table_path, corpus_paths, doc_mode)
    if corpus is not None:
        frozen = _build_table(corpus, cfg.table_config())
    return run_bench(cfg, docs, frozen, mode="dual")


def cmd_sweep(
    cfg: RunConfig,
    ll_values: Sequence[int],
    fl_values: Sequence[int],
    prompt_paths: Sequence[str | Path],
    corpus_paths: Sequence[str | Path] | None = None,
    doc_mode: str = "line",
) -> Report:
    """Benchmark every (ll, fl) grid cell: one ``cell`` row each, and a
    ``summary`` line saying whether ``ll=1`` attains the grid maximum.

    A frozen table is rebuilt from the corpus per cell (a serialized table
    pins one shape, so sweeps take a corpus instead of a table); without a
    corpus the sweep runs on the dynamic table alone.
    """
    if not ll_values or not fl_values:
        raise ValueError("sweep needs at least one ll value and one fl value")
    # Token ids do not depend on (ll, fl): tokenize once for the whole grid.
    docs, _, corpus = _load_inputs(cfg, prompt_paths, None, corpus_paths, doc_mode)
    rows = []
    for ll in ll_values:
        for fl in fl_values:
            cell = replace(cfg, ll=ll, fl=fl)
            frozen = None if corpus is None else _build_table(corpus, cell.table_config())
            mat = run_bench(cell, docs, frozen, mode="dual").closing["mat"]
            rows.append({"ll": ll, "fl": fl, "mat": mat})
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
    doc_mode: str = "line",
) -> Report:
    """Three benchmark runs differing only in table wiring: one ``wiring``
    row each for dual, dynamic-only and frozen-only, from its aggregate."""
    if table_path is None and not corpus_paths:
        raise ValueError("ablation requires a frozen table (--table or --corpus)")
    docs, frozen, corpus = _load_inputs(cfg, prompt_paths, table_path, corpus_paths, doc_mode)
    if corpus is not None:
        frozen = _build_table(corpus, cfg.table_config())
    rows = []
    for mode in MODES:
        agg = run_bench(cfg, docs, frozen, mode=mode).closing
        row = {key: agg[key] for key in ("steps", "emitted", "mat", "tokens_per_sec")}
        rows.append({"wiring": mode, **row})
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


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _add_table_shape_args(p: argparse.ArgumentParser, lengths: Callable = int) -> None:
    # String defaults go through ``type``, so a sweep's default is a list too.
    p.add_argument("--ll", type=lengths, default=str(RunConfig.ll), help="tokens per leader")
    p.add_argument("--fl", type=lengths, default=str(RunConfig.fl), help="tokens per follower")
    p.add_argument("--lc", type=int, default=RunConfig.lc, help="max leaders per table")
    p.add_argument("--fc", type=int, default=RunConfig.fc, help="max followers per leader")


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


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tokenizer", choices=("whitespace", "byte"), default=RunConfig.tokenizer)
    p.add_argument("--doc-mode", choices=("line", "file"), default="line")


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
    _add_common_args(p_build)

    p_bench = sub.add_parser("bench", help="run the decode benchmark over prompts")
    _add_table_shape_args(p_bench)
    _add_run_args(p_bench)
    _add_common_args(p_bench)

    sweep_help = "benchmark an (ll, fl) grid: --ll and --fl take lists such as 1,2 or 1-5"
    p_sweep = sub.add_parser("sweep", help=sweep_help, description=sweep_help)
    _add_table_shape_args(p_sweep, lengths=parse_int_list)
    _add_run_args(p_sweep)
    _add_common_args(p_sweep)

    p_ablate = sub.add_parser("ablate", help="compare dual / dynamic-only / frozen-only wirings")
    _add_table_shape_args(p_ablate)
    _add_run_args(p_ablate)
    _add_common_args(p_ablate)

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
        elif args.command == "bench":
            cfg = _config_from_args(args)
            report = cmd_bench(cfg, args.prompts, args.table, args.corpus, args.doc_mode)
            _emit(report.render(args.format or "text"), args.out)
        elif args.command == "sweep":
            if args.table is not None:
                raise ValueError(
                    "sweep does not take --table: it rebuilds the frozen table "
                    "for every (ll, fl) cell from --corpus"
                )
            cfg = _config_from_args(args, ll=args.ll[0], fl=args.fl[0])
            report = cmd_sweep(cfg, args.ll, args.fl, args.prompts, args.corpus, args.doc_mode)
            _emit(report.render(args.format or "csv"), args.out)
        elif args.command == "ablate":
            cfg = _config_from_args(args)
            report = cmd_ablate(cfg, args.prompts, args.table, args.corpus, args.doc_mode)
            _emit(report.render(args.format or "text"), args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
