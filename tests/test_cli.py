"""CLI surface: tokenizers, table builds, bench/sweep/ablate, formats, exits."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngramspec import cli
from ngramspec.cache_table import CacheTableConfig
from ngramspec.cli import (
    EOS_TOKEN,
    TOKENIZERS,
    RunConfig,
    Vocab,
    cmd_ablate,
    cmd_bench,
    cmd_build_table,
    cmd_sweep,
    main,
    parse_int_list,
    read_documents,
    run_bench,
    tokenize,
)
from ngramspec.decode_loop import ReplayOracle
from ngramspec.frozen_table import FrozenTable, build_frozen, count_ngrams

from corpus import background_texts, eval_texts, flat, repetitive_docs
from oracles import SimDecoder, cbft_bytes, naive_frozen_map, sampled_lines


class TestTokenize:
    def test_byte_mode(self):
        assert tokenize("ab", "byte") == [97, 98]

    def test_whitespace_insertion_order(self):
        assert tokenize("a b a", "whitespace", Vocab()) == [0, 1, 0]

    def test_empty_text(self):
        assert tokenize("", "byte") == []
        assert tokenize("", "whitespace", Vocab()) == []

    def test_whitespace_needs_a_vocabulary(self):
        # Without one, every call would number its words from 0.
        with pytest.raises(ValueError, match="vocabulary"):
            tokenize("a b", "whitespace")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tokenize("a", "words")

    def test_new_words_take_ids_in_first_seen_order(self):
        vocab = Vocab()
        assert vocab.encode("a b a") == [0, 1, 0]
        assert vocab.encode("b a b") == [1, 0, 1]
        assert vocab.encode("b c a d c") == [1, 2, 0, 3, 2]

    @given(
        docs=st.lists(
            st.lists(st.tuples(st.sampled_from("abcdefghijkl"), st.sampled_from([" ", "\n", " \t "]))),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_vocab_matches_a_first_seen_order_encoder(self, docs):
        # Documents share one vocabulary, so a new word often comes after known
        # ones, in the middle of a document, and repeats later in it.
        texts = ["".join(f"{word}{gap}" for word, gap in doc) for doc in docs]
        ids: dict[str, int] = {}  # the naive encoder: a word's id is its rank of first use
        want = []
        for text in texts:
            want.append([])
            for word in text.split():
                if word not in ids:
                    ids[word] = len(ids)
                want[-1].append(ids[word])
        vocab = Vocab()
        assert [vocab.encode(text) for text in texts] == want
        assert vocab.words() == list(ids)
        assert [Vocab(list(ids)).encode(text) for text in texts] == want

    def test_vocab_round_trip(self, tmp_path):
        vocab = Vocab()
        ids = vocab.encode("alpha beta alpha gamma")
        vocab.save(tmp_path / "v.json")
        again = Vocab.load(tmp_path / "v.json")
        assert again.encode("alpha beta alpha gamma") == ids
        assert again.words() == ["alpha", "beta", "gamma"]


class TestParseIntList:
    def test_forms(self):
        assert parse_int_list("1,2,5") == [1, 2, 5]
        assert parse_int_list("1-4") == [1, 2, 3, 4]
        assert parse_int_list("1,3-5") == [1, 3, 4, 5]

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_int_list("5-1")
        with pytest.raises(ValueError):
            parse_int_list(",")


class TestReadAndSample:
    def test_line_and_file_modes(self, tmp_path):
        p = tmp_path / "docs.txt"
        p.write_text("one two\n\nthree\n", encoding="utf-8")
        assert read_documents([p], "line") == ["one two", "three"]
        assert read_documents([p], "file") == ["one two\n\nthree\n"]

    def test_unicode_whitespace_lines_skipped_and_zero_width_space_kept(self, tmp_path):
        p = tmp_path / "docs.txt"
        p.write_text("a\n\t\x0b\u3000\n\u3000\n\u200b\n\nb\n", encoding="utf-8")
        assert read_documents([p], "line") == ["a", "\u200b", "b"]
        p.write_text("\t\x0b\u3000\n", encoding="utf-8")
        assert read_documents([p], "file") == []
        p.write_text("\u200b", encoding="utf-8")
        assert read_documents([p], "file") == ["\u200b"]

    def test_unknown_doc_mode_rejected(self, tmp_path):
        p = tmp_path / "docs.txt"
        p.write_text("one two\n", encoding="utf-8")
        with pytest.raises(ValueError, match="doc mode"):
            read_documents([p], "para")

    def test_sampling_is_seeded(self, tmp_path, monkeypatch):
        # One draw per non-blank line, in file order, continuing across files;
        # blank and whitespace-only lines take none.  The oracle picks the lines.
        texts = [
            "\n".join(f"a{i}" if i % 5 else " \t" for i in range(120)),
            "\r\n".join(f"b{i}" if i % 7 else "" for i in range(90)) + "\r\n",
        ]
        paths = [tmp_path / "c0.txt", tmp_path / "c1.txt"]
        for path, text in zip(paths, texts):
            path.write_bytes(text.encode("utf-8"))
        counted = counted_documents(monkeypatch)
        for fraction, seed in ((0.5, 42), (0.5, 42), (0.5, 43), (1.0, 0)):
            cmd_build_table(
                paths, tmp_path / "t.cbft", CacheTableConfig(1, 1, 8, 8), "byte", "line", fraction, seed
            )
        a, b, c, whole = counted
        assert a == b == sampled_lines(texts, 0.5, 42)
        assert c == sampled_lines(texts, 0.5, 43) != a
        assert whole == sampled_lines(texts, 1.0, 0)
        assert 0 < len(a) < len(whole) == 96 + 77

    def test_fraction_out_of_range(self, tmp_path, monkeypatch):
        # (0, 1] is open at 0 and closed at 1: a fraction of 1 keeps every
        # document, the smallest positive float is accepted, and the next
        # float above 1 is refused.
        text = "a b\n\nc d\n"
        src = tmp_path / "corpus.txt"
        src.write_text(text, encoding="utf-8")
        counted = counted_documents(monkeypatch)
        tcfg = CacheTableConfig(1, 1, 8, 8)
        for fraction in (0.0, math.nextafter(1.0, 2.0)):
            with pytest.raises(ValueError, match="sample fraction"):
                cmd_build_table([src], tmp_path / "t.cbft", tcfg, "byte", "line", fraction, 7)
        assert counted == []
        for fraction in (1.0, 5e-324):
            cmd_build_table([src], tmp_path / "t.cbft", tcfg, "byte", "line", fraction, 7)
        assert counted == [["a b", "c d"], []]


def byte_documents(ids, ends) -> list[str]:
    """The texts of byte-token documents given as one id array and their ends."""
    return [bytes(ids[a:b].tolist()).decode("utf-8") for a, b in zip([0, *ends], ends)]


def counted_documents(monkeypatch) -> list[list[str]]:
    """Patch ``cli.count_ngrams`` to record, per call, the texts of the
    byte-token documents it counts."""
    calls = []

    def probe(ids, ends, tcfg):
        calls.append(byte_documents(ids, ends))
        return count_ngrams(ids, ends, tcfg)

    monkeypatch.setattr(cli, "count_ngrams", probe)
    return calls


LINE_PIECES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LINE_PIECES += ["a", "b", " ", "\t", "\u3000", "\u200b", "\xe9"]


@given(
    pad=st.sampled_from([0, 8190, 8191, 8192]),
    text=st.lists(st.sampled_from(LINE_PIECES), max_size=40).map("".join),
)
@example(pad=8191, text="\r\nb")  # a \r\n across the first 8 KiB read
@example(pad=0, text="a\n \t\n\u3000\r\n\x85b")  # whitespace-only lines, no final newline
@settings(max_examples=300, deadline=None)
def test_line_documents_are_the_texts_nonblank_splitlines(pad, text):
    """Line mode streams a file, yet its documents, read for prompts or
    streamed into the corpus ids, are the non-blank lines of the whole text's
    ``splitlines()``, whatever line breaks it holds."""
    text = "x" * pad + text
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "docs.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = [line for line in text.splitlines() if line and not line.isspace()]
        assert read_documents([path], "line") == expected
        assert byte_documents(*cli._corpus_ids([path], "line", "byte", None)) == expected


class TestBuildTable:
    def test_two_line_corpus_hand_counted(self, tmp_path):
        src = tmp_path / "corpus.txt"
        src.write_text("a b a\nb a b\n", encoding="utf-8")
        out = tmp_path / "t.cbft"
        cmd_build_table([src], out, CacheTableConfig(1, 1, 8, 4))
        table = FrozenTable.load(out)
        # vocab: a=0, b=1; windows: (a->b) x2, (b->a) x2.
        assert table.entries == {(0,): ((1,),), (1,): ((0,),)}
        vocab = Vocab.load(tmp_path / "t.cbft.vocab.json")
        assert vocab.words() == ["a", "b"]

    def test_rebuild_is_byte_identical(self, tmp_path):
        src = tmp_path / "corpus.txt"
        src.write_text("\n".join(background_texts(10)), encoding="utf-8")
        outs = []
        for name in ("one.cbft", "two.cbft"):
            out = tmp_path / name
            cmd_build_table([src], out, CacheTableConfig(1, 2, 64, 8))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sampled_build_is_seeded(self, tmp_path):
        src = tmp_path / "corpus.txt"
        src.write_text("\n".join(background_texts(30)), encoding="utf-8")
        blobs = []
        for name in ("a.cbft", "b.cbft"):
            out = tmp_path / name
            cmd_build_table(
                [src], out, CacheTableConfig(1, 2, 64, 8), sample_fraction=0.5, seed=42
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("ll, fl, lc, fc", [(1, 3, 4096, 32), (2, 2, 5, 3)])
    def test_bytes_match_oracle_serialization(self, tmp_path, ll, fl, lc, fc):
        texts = background_texts()
        src = tmp_path / "corpus.txt"
        src.write_text("\n".join(texts), encoding="utf-8")
        out = tmp_path / "t.cbft"
        cmd_build_table([src], out, CacheTableConfig(ll, fl, lc, fc))
        ids: dict[str, int] = {}
        docs = [[ids.setdefault(word, len(ids)) for word in text.split()] for text in texts]
        expected = naive_frozen_map(docs, ll, fl, lc, fc, stored=True)
        assert out.read_bytes() == cbft_bytes(expected, ll, fl, fc)

    @pytest.mark.parametrize("text, fraction", [("", 1.0), ("a b c\nc d e\n", 0.1)])
    def test_corpus_sampled_to_nothing_writes_an_empty_table(self, tmp_path, capsys, text, fraction):
        src = tmp_path / "corpus.txt"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / "t.cbft"
        cmd_build_table([src], out, CacheTableConfig(1, 2, 8, 4), sample_fraction=fraction)
        assert "warning: corpus is empty after sampling" in capsys.readouterr().err
        table = FrozenTable.load(out)
        assert table.entries == {}
        assert (table.config.ll, table.config.fl, table.config.fc) == (1, 2, 4)
        assert Vocab.load(tmp_path / "t.cbft.vocab.json").words() == []

    @pytest.mark.parametrize("text", ["", "a b c\n", None], ids=["empty", "words", "missing"])
    def test_unknown_tokenizer_rejected_before_the_corpus_is_read(self, tmp_path, capsys, text):
        src = tmp_path / "corpus.txt"
        if text is not None:
            src.write_text(text, encoding="utf-8")
        out = tmp_path / "t.cbft"
        with pytest.raises(ValueError, match="unknown tokenizer mode 'words'"):
            cmd_build_table([src], out, CacheTableConfig(1, 3, 8, 8), tokenizer="words")
        assert not out.exists()
        assert not (tmp_path / "t.cbft.vocab.json").exists()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_bad_fraction_rejected_before_the_corpus_is_read(self, tmp_path, fraction):
        out = tmp_path / "t.cbft"
        with pytest.raises(ValueError, match=r"sample fraction must be in \(0, 1\]"):
            cmd_build_table(
                [tmp_path / "missing.txt"], out, CacheTableConfig(1, 3, 8, 8), sample_fraction=fraction
            )
        assert not out.exists()
        assert not (tmp_path / "t.cbft.vocab.json").exists()

    @pytest.mark.parametrize("tokenizer", TOKENIZERS)
    def test_corpus_reaches_counting_as_u32_arrays(self, tmp_path, monkeypatch, tokenizer):
        # build-table and bench --corpus both hand counting every id in one
        # array('I') (4 bytes an id, read in place) and the document ends in
        # one array('q'), not an object per document.
        texts = background_texts(5)
        src = tmp_path / "corpus.txt"
        src.write_text("\n".join(texts), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text(eval_texts(1)[0], encoding="utf-8")
        seen = []

        def probe(ids, ends, tcfg):
            seen.append((type(ids), ids.typecode, ids.tolist(), type(ends), ends.typecode, ends.tolist()))
            return count_ngrams(ids, ends, tcfg)

        monkeypatch.setattr(cli, "count_ngrams", probe)
        tcfg = CacheTableConfig(1, 3, 64, 8)
        cmd_build_table([src], tmp_path / "t.cbft", tcfg, tokenizer=tokenizer)
        cfg = RunConfig(lc=64, fc=8, tdl=24, crt=4, tokenizer=tokenizer, max_new_tokens=4)
        cmd_bench(cfg, [prompts], corpus_paths=[src])
        vocab = Vocab() if tokenizer == "whitespace" else None
        ids, ends = flat([tokenize(text, tokenizer, vocab) for text in texts])
        assert seen == [(array, "I", ids.tolist(), array, "q", ends.tolist())] * 2

    def test_peak_memory_per_token(self, tmp_path):
        # The corpus streams into one u32 id array, so the peak is counting's:
        # the ids (4 bytes a token, 4.5 with the array's spare room) and their
        # int64 packed keys, 14.0 bytes a token here.  Holding the file's
        # lines while tokenizing reads 19.0 (as a list of documents) to 27.4
        # (its text and splitlines()), and one array per document held while
        # counting 20.2.  12-character words make the text 13 bytes a token.
        docs = repetitive_docs()
        src = tmp_path / "corpus.txt"
        src.write_text("\n".join(" ".join(f"word{t:08d}" for t in doc) for doc in docs), encoding="utf-8")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cmd_build_table([src], tmp_path / "t.cbft", CacheTableConfig(1, 3, 2**20, 128))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak / sum(map(len, docs)) <= 16

    def test_corpus_released_before_ranking(self, tmp_path, monkeypatch):
        # On a repetitive corpus the counts are far smaller than the text, so
        # the bytes still live when ranking starts stay below the file's size
        # only if the lines and the id lists are gone by then.
        src = tmp_path / "corpus.txt"
        lines = (" ".join(f"w{t}" for t in doc) for doc in repetitive_docs())
        src.write_text("\n".join(lines), encoding="utf-8")
        live = []

        def probe(windows, counts, tcfg):
            live.append(tracemalloc.get_traced_memory()[0] - before)
            return build_frozen(windows, counts, tcfg)

        monkeypatch.setattr(cli, "build_frozen", probe)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cmd_build_table([src], tmp_path / "t.cbft", CacheTableConfig(1, 3, 2**20, 128))
        finally:
            tracemalloc.stop()
        assert len(live) == 1
        assert live[0] < src.stat().st_size

    def test_sidecar_names_the_sha256_of_the_table_file(self, tmp_path):
        src = tmp_path / "corpus.txt"
        src.write_text("\n".join(background_texts(5)), encoding="utf-8")
        out = tmp_path / "t.cbft"
        cmd_build_table([src], out, CacheTableConfig(1, 2, 64, 8))
        sha256 = hashlib.sha256(out.read_bytes()).hexdigest()
        assert Vocab.load(tmp_path / "t.cbft.vocab.json").table_sha256 == sha256

    def test_byte_mode_writes_no_sidecar(self, tmp_path):
        src = tmp_path / "corpus.txt"
        src.write_text("abcabc\n", encoding="utf-8")
        out = tmp_path / "t.cbft"
        cmd_build_table([src], out, CacheTableConfig(1, 1, 8, 4), tokenizer="byte")
        assert out.exists()
        assert not (tmp_path / "t.cbft.vocab.json").exists()


def distinct_doc(n: int = 24) -> str:
    return " ".join(f"w{i}" for i in range(n))


class TestBench:
    def test_worst_case_mat_is_one(self, tmp_path):
        prompts = tmp_path / "p.txt"
        prompts.write_text(distinct_doc() + "\n", encoding="utf-8")
        cfg = RunConfig(ll=1, fl=2, lc=64, fc=8, tdl=12, crt=2, verifier="replay", max_new_tokens=12)
        agg = cmd_bench(cfg, [prompts]).closing
        assert agg["mat"] == 1.0
        assert agg["steps"] == agg["emitted"] == 12

    def test_replay_matches_simulator(self, tmp_path):
        doc_text = eval_texts(1)[0]
        prompts = tmp_path / "p.txt"
        prompts.write_text(doc_text + "\n", encoding="utf-8")
        cfg = RunConfig(ll=1, fl=3, lc=256, fc=16, tdl=24, crt=4, verifier="replay", max_new_tokens=60)
        agg = cmd_bench(cfg, [prompts]).closing

        doc = tokenize(doc_text, "whitespace", Vocab())
        cut = max(1, len(doc) // 2)
        oracle = ReplayOracle(cut, doc[cut:], EOS_TOKEN)
        sim = SimDecoder(1, 3, 256, 16, 24, 4)
        _, steps, emitted = sim.run(doc[:cut], oracle, 60)
        assert (agg["steps"], agg["emitted"]) == (steps, emitted)

    def test_aggregate_recomputable_from_rows(self, tmp_path):
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(3)), encoding="utf-8")
        cfg = RunConfig(lc=1024, fc=16, tdl=24, crt=4, max_new_tokens=50)
        report = cmd_bench(cfg, [prompts])
        agg = report.closing
        assert agg["steps"] == sum(t["steps"] for t in report.rows)
        assert agg["emitted"] == sum(t["emitted"] for t in report.rows)
        assert agg["mat"] == agg["emitted"] / agg["steps"]
        for task in report.rows:
            assert task["emitted"] == sum(m.emitted for m in task["step_log"])

    def test_table_shape_mismatch_rejected(self, tmp_path):
        src = tmp_path / "c.txt"
        src.write_text("\n".join(background_texts(5)), encoding="utf-8")
        table = tmp_path / "t.cbft"
        cmd_build_table([src], table, CacheTableConfig(2, 2, 64, 8))
        prompts = tmp_path / "p.txt"
        prompts.write_text(distinct_doc(), encoding="utf-8")
        cfg = RunConfig(ll=1, fl=3, max_new_tokens=5)
        with pytest.raises(ValueError):
            cmd_bench(cfg, [prompts], table_path=table)

    def test_empty_prompts_rejected(self, tmp_path):
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n", encoding="utf-8")
        with pytest.raises(ValueError):
            cmd_bench(RunConfig(max_new_tokens=5), [prompts])

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_mode_names_the_wiring_that_ran(self, tmp_path, capsys, fmt):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(5)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
        run = ["bench", "--prompts", str(prompts), "--max-new-tokens", "10", "--format", fmt]
        for extra, mode in (([], "dynamic"), (["--corpus", str(corpus)], "dual")):
            assert main([*run, *extra]) == 0
            lines = capsys.readouterr().out.splitlines()
            config = lines[0] if fmt == "json" else lines[0].removeprefix("# config: ")
            assert json.loads(config)["mode"] == mode


class TestSweep:
    def test_single_cell_equals_bench(self, tmp_path):
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(10)), encoding="utf-8")
        cfg = RunConfig(ll=1, fl=3, lc=256, fc=16, tdl=24, crt=4, max_new_tokens=40)
        sweep = cmd_sweep(cfg, [1], [3], [prompts], corpus_paths=[corpus])
        bench = cmd_bench(cfg, [prompts], corpus_paths=[corpus])
        assert len(sweep.rows) == 1
        assert sweep.rows[0]["mat"] == bench.closing["mat"]

    def test_grid_rows_and_lower_bound(self, tmp_path):
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
        cfg = RunConfig(lc=256, fc=16, tdl=24, crt=4, max_new_tokens=30)
        sweep = cmd_sweep(cfg, [1, 2, 3], [1, 2, 3], [prompts])
        assert len(sweep.rows) == 9
        assert [(r["ll"], r["fl"]) for r in sweep.rows] == [
            (ll, fl) for ll in (1, 2, 3) for fl in (1, 2, 3)
        ]
        assert all(r["mat"] >= 1.0 for r in sweep.rows)
        header, *rows = sweep.render("csv").splitlines()
        assert header == "ll,fl,mat"
        assert len(rows) == 9

    def test_corpus_and_prompts_tokenized_once(self, tmp_path, monkeypatch):
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(5)), encoding="utf-8")
        calls = []
        real_tokenize = cli.tokenize
        monkeypatch.setattr(cli, "tokenize", lambda *args: calls.append(args) or real_tokenize(*args))
        cfg = RunConfig(lc=256, fc=16, tdl=24, crt=4, max_new_tokens=10)
        sweep = cmd_sweep(cfg, [1, 2], [1, 2], [prompts], corpus_paths=[corpus])
        assert len(sweep.rows) == 4
        # One call per document for the whole grid, corpus first.
        assert [text for text, *_ in calls] == background_texts(5) + eval_texts(2)

    def test_each_cell_builds_its_table_through_the_cli_names(self, tmp_path, monkeypatch):
        # perfbench's tracer patches count_ngrams and build_frozen on ``cli``.
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(5)), encoding="utf-8")
        shapes = []
        for name, real in (("count_ngrams", count_ngrams), ("build_frozen", build_frozen)):
            monkeypatch.setattr(cli, name, lambda *args, real=real: shapes.append(args[-1]) or real(*args))
        cfg = RunConfig(lc=256, fc=16, tdl=24, crt=4, max_new_tokens=10)
        cmd_sweep(cfg, [1, 2], [1, 3], [prompts], corpus_paths=[corpus])
        cells = [replace(cfg, ll=ll, fl=fl).table_config() for ll in (1, 2) for fl in (1, 3)]
        assert shapes == [tcfg for tcfg in cells for _ in range(2)]

    def test_empty_ranges_rejected(self, tmp_path):
        prompts = tmp_path / "p.txt"
        prompts.write_text("x y z", encoding="utf-8")
        with pytest.raises(ValueError):
            cmd_sweep(RunConfig(), [], [1], [prompts])

    def test_invalid_later_cell_rejected_before_any_decode(self, tmp_path, monkeypatch):
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        calls = []
        monkeypatch.setattr(cli, "run_bench", lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match="ll must be a positive integer"):
            cmd_sweep(RunConfig(max_new_tokens=5), [1, 2, 0], [1, 2, 3], [prompts])
        assert calls == []


class TestAblate:
    def test_requires_frozen_source(self, tmp_path):
        prompts = tmp_path / "p.txt"
        prompts.write_text(distinct_doc(), encoding="utf-8")
        with pytest.raises(ValueError):
            cmd_ablate(RunConfig(max_new_tokens=5), [prompts])

    def test_frozen_only_on_disjoint_prompts_is_worst_case(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(10)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text(" ".join(f"z{i}" for i in range(30)), encoding="utf-8")
        cfg = RunConfig(lc=256, fc=16, tdl=24, crt=4, verifier="replay", max_new_tokens=15)
        report = cmd_ablate(cfg, [prompts], corpus_paths=[corpus])
        assert [r["wiring"] for r in report.rows] == ["dual", "dynamic", "frozen"]
        assert report.rows[2]["mat"] == 1.0

    def test_dual_row_equals_plain_bench(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(10)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
        cfg = RunConfig(lc=256, fc=16, tdl=24, crt=4, max_new_tokens=40)
        ablate = cmd_ablate(cfg, [prompts], corpus_paths=[corpus])
        bench = cmd_bench(cfg, [prompts], corpus_paths=[corpus])
        dual, agg = ablate.rows[0], bench.closing
        assert dual["wiring"] == "dual"
        assert (dual["steps"], dual["emitted"]) == (agg["steps"], agg["emitted"])

    def test_saved_table_equals_its_corpus(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(10)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
        cfg = RunConfig(lc=256, fc=16, tdl=24, crt=4, max_new_tokens=40)
        table = cmd_build_table([corpus], tmp_path / "t.cbft", cfg.table_config())
        from_table = cmd_ablate(cfg, [prompts], table_path=table)
        from_corpus = cmd_ablate(cfg, [prompts], corpus_paths=[corpus])
        keys = ("wiring", "steps", "emitted", "mat")
        rows = [tuple(row[key] for key in keys) for row in from_table.rows]
        assert rows == [tuple(row[key] for key in keys) for row in from_corpus.rows]
        assert rows[2][0] == "frozen" and rows[2][3] > 1.0  # the loaded table drafts

    def test_report_has_three_rows(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(6)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        cfg = RunConfig(lc=256, fc=16, tdl=24, crt=4, max_new_tokens=20)
        report = cmd_ablate(cfg, [prompts], corpus_paths=[corpus])
        lines = report.render("csv").splitlines()
        assert lines[0] == "wiring,steps,emitted,mat,tokens_per_sec"
        assert [line.split(",")[0] for line in lines[1:]] == ["dual", "dynamic", "frozen"]


class TestRunConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"tdl": True, "crt": False},
            {"fc": 0},
            {"tokenizer": "words"},
            {"verifier": "gpt"},
            {"kgram_order": 0},
            {"kgram_order": 2.5},
            {"kgram_order": True},
            {"max_new_tokens": 0},
            {"max_new_tokens": 3.0},
            {"max_new_tokens": True},
            {"doc_mode": "para"},
        ],
    )
    def test_invalid_field_rejected_on_construction(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="ll"):
            replace(RunConfig(), ll=0)


class TestRunBenchWiring:
    @pytest.mark.parametrize("dynamic", [True, False], ids=["dual", "frozen"])
    def test_table_of_another_shape_rejected(self, dynamic):
        tcfg = CacheTableConfig(1, 2, 64, 8)
        frozen = build_frozen(*count_ngrams(*flat([[1, 2, 3, 1, 2, 3]]), tcfg), tcfg)
        with pytest.raises(ValueError, match="table shape"):
            run_bench(RunConfig(ll=1, fl=3, max_new_tokens=5), [[1, 2, 3, 4]], frozen, dynamic)

    def test_frozen_mode_without_table_rejected(self):
        with pytest.raises(ValueError, match="requires a frozen table"):
            run_bench(RunConfig(max_new_tokens=5), [[1, 2, 3, 4]], None, dynamic=False)

    def test_empty_document_named_before_any_task_decodes(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_decode", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="task document 1 is empty"):
            run_bench(RunConfig(max_new_tokens=5), [[1, 2, 3], []])
        assert calls == []

    @pytest.mark.parametrize("verifier", ["kgram", "replay"])
    def test_tuple_documents_give_the_rows_of_lists(self, verifier):
        docs = [[1, 2, 3, 4, 1, 2, 3, 4], [5, 6, 5, 6, 5], [7]]
        cfg = RunConfig(lc=64, fc=8, tdl=24, crt=4, verifier=verifier, max_new_tokens=8)
        frozen = build_frozen(*count_ngrams(*flat(docs), cfg.table_config()), cfg.table_config())
        rows = [
            [{key: value for key, value in row.items() if key != "wall_s"} for row in report.rows]
            for report in (run_bench(cfg, docs, frozen), run_bench(cfg, [tuple(d) for d in docs], frozen))
        ]
        assert rows[0] == rows[1] and len(rows[0]) == 3

    def test_no_frozen_table_is_reported_as_dynamic(self):
        report = run_bench(RunConfig(max_new_tokens=5), [[1, 2, 3, 4, 1, 2, 3, 4]])
        assert report.config["mode"] == "dynamic"
        config = report.render("text").splitlines()[0].removeprefix("# config: ")
        assert json.loads(config)["mode"] == "dynamic"

    def test_a_frozen_table_passed_is_always_drafted_from(self):
        # No token repeats, so only a table built from the document drafts.
        doc = list(range(40))
        cfg = RunConfig(lc=64, fc=8, tdl=24, crt=4, verifier="replay", max_new_tokens=20)
        frozen = build_frozen(*count_ngrams(*flat([doc]), cfg.table_config()), cfg.table_config())
        for dynamic, mode in ((True, "dual"), (False, "frozen")):
            report = run_bench(cfg, [doc], frozen, dynamic)
            assert report.config["mode"] == mode
            assert report.closing["mat"] > 1.0
        alone = run_bench(cfg, [doc])
        assert alone.config["mode"] == "dynamic" and alone.closing["mat"] == 1.0


class TestMain:
    def test_build_and_bench_end_to_end(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(10)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
        table = tmp_path / "t.cbft"
        assert main(["build-table", str(corpus), "--out", str(table), "--fl", "3"]) == 0
        out = tmp_path / "report.jsonl"
        code = main(
            [
                "bench",
                "--prompts", str(prompts),
                "--table", str(table),
                "--fl", "3",
                "--lc", "256",
                "--fc", "16",
                "--tdl", "24",
                "--crt", "4",
                "--max-new-tokens", "30",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = [line["kind"] for line in lines]
        assert kinds[0] == "config" and kinds[-1] == "aggregate"
        assert kinds.count("task") == 2
        agg = lines[-1]
        tasks = [l for l in lines if l["kind"] == "task"]
        assert agg["steps"] == sum(t["steps"] for t in tasks)
        assert agg["emitted"] == sum(t["emitted"] for t in tasks)

    def test_doc_mode_reaches_the_config_line(self, tmp_path, capsys):
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(2)), encoding="utf-8")
        run = ["bench", "--prompts", str(prompts), "--max-new-tokens", "5"]
        assert main([*run, "--doc-mode", "file", "--format", "json"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[0]["kind"] == "config" and lines[0]["doc_mode"] == "file"
        assert [line["kind"] for line in lines].count("task") == 1  # the file is one document

    def test_sweep_csv_to_stdout(self, tmp_path, capsys):
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        code = main(
            [
                "sweep",
                "--prompts", str(prompts),
                "--ll", "1,2",
                "--fl", "1-2",
                "--lc", "64",
                "--fc", "8",
                "--tdl", "12",
                "--crt", "2",
                "--max-new-tokens", "15",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ll,fl,mat"
        assert len(lines) == 5

    def test_cli_defaults_are_run_config_defaults(self, tmp_path, monkeypatch):
        prompts = tmp_path / "p.txt"
        prompts.write_text("a b c", encoding="utf-8")
        seen = []
        report = SimpleNamespace(render=lambda fmt: "")
        commands = ("bench", "sweep", "ablate")
        for command in commands:
            record = lambda cfg, *_, name=command: seen.append((name, cfg)) or report
            monkeypatch.setattr(cli, f"cmd_{command}", record)
            assert main([command, "--prompts", str(prompts)]) == 0
        assert seen == [(command, RunConfig()) for command in commands]

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        prompts = tmp_path / "big.txt"
        prompts.write_text("\n".join(eval_texts() * 40), encoding="utf-8")  # > 64 KB of JSON
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "ngramspec.cli", "bench", "--prompts", str(prompts)]
        command += ["--doc-mode", "line", "--format", "json"]
        env = {**os.environ, "PYTHONPATH": path}
        with subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(300)) == 300
            proc.stdout.close()  # the reader stops early, as ``head -c 300`` does
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 1

    def test_table_with_a_huge_empty_follower_shape_exits_2(self, tmp_path):
        # 36 bytes: a header with fl = 2**31 and one leader with no followers.
        table = tmp_path / "bad.cbft"
        table.write_bytes(cbft_bytes({(7,): []}, ll=1, fl=2**31, fc=4))
        prompts = tmp_path / "p.txt"
        prompts.write_text(distinct_doc(), encoding="utf-8")
        # Capped address space, so that a load which allocates in proportion
        # to fl fails in the child instead of filling the machine's memory.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from ngramspec.cli import main\n"
            "from ngramspec.frozen_table import FrozenTable\n"
            "table = FrozenTable.load(sys.argv[1])\n"
            "print(table.config.fl, table.entries, flush=True)\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
        run = ["bench", "--tokenizer", "byte", "--prompts", str(prompts), "--table", str(table)]
        done = subprocess.run(
            [sys.executable, "-c", script, str(table), *run],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert table.stat().st_size == 36
        assert done.stdout == f"{2**31} {{(7,): ()}}\n"
        assert done.returncode == 2
        assert "does not match configured ll=1,fl=3" in done.stderr

    def test_table_with_followers_sharing_a_first_token_exits_2(self, tmp_path, capsys):
        table = tmp_path / "old.cbft"
        table.write_bytes(cbft_bytes({(97,): [(98, 99, 100), (98, 98, 98)]}, ll=1, fl=3, fc=4))
        prompts = tmp_path / "p.txt"
        prompts.write_text(distinct_doc(), encoding="utf-8")
        run = ["bench", "--tokenizer", "byte", "--prompts", str(prompts), "--table", str(table)]
        assert main(run) == 2
        captured = capsys.readouterr()
        assert "same first token; rebuild the table (at byte 28)" in captured.err
        assert captured.out == ""

    def test_sweep_bad_length_list_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--prompts", str(tmp_path / "p.txt"), "--ll", "1,x"])
        assert exc.value.code == 2
        assert "--ll" in capsys.readouterr().err

    def test_missing_prompt_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["bench", "--prompts", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_budget_exits_nonzero(self, tmp_path, capsys):
        prompts = tmp_path / "p.txt"
        prompts.write_text("a b c", encoding="utf-8")
        code = main(["bench", "--prompts", str(prompts), "--crt", "96", "--tdl", "96"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_ablate_text_output(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(6)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        code = main(
            [
                "ablate",
                "--prompts", str(prompts),
                "--corpus", str(corpus),
                "--lc", "256",
                "--fc", "16",
                "--tdl", "24",
                "--crt", "4",
                "--max-new-tokens", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dual" in out and "dynamic" in out and "frozen" in out

    def test_seed_is_build_table_only(self, tmp_path, capsys):
        prompts = tmp_path / "p.txt"
        prompts.write_text("a b c", encoding="utf-8")
        for command in ("bench", "sweep", "ablate"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--prompts", str(prompts), "--seed", "1"])
            assert exit_info.value.code == 2
            assert "--seed" in capsys.readouterr().err

    def test_corpus_without_files_exits_2(self, tmp_path, capsys):
        prompts = tmp_path / "p.txt"
        prompts.write_text("a b c", encoding="utf-8")
        for command in ("bench", "sweep"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--prompts", str(prompts), "--corpus"])
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert "--corpus" in captured.err
            assert captured.out == ""  # no report was printed

    def test_sweep_with_table_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(6)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        table = tmp_path / "t.cbft"
        assert main(["build-table", str(corpus), "--out", str(table)]) == 0
        code = main(
            ["sweep", "--prompts", str(prompts), "--table", str(table), "--max-new-tokens", "5"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "--corpus" in captured.err
        assert captured.out.strip() == f"wrote {table}"  # no report was printed

    def test_table_with_corpus_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(6)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        table = tmp_path / "t.cbft"
        assert main(["build-table", str(corpus), "--out", str(table)]) == 0
        capsys.readouterr()
        for command in ("bench", "ablate"):
            code = main(
                [command, "--prompts", str(prompts), "--table", str(table),
                 "--corpus", str(corpus), "--max-new-tokens", "5"]
            )
            assert code == 2
            captured = capsys.readouterr()
            assert "--table and --corpus" in captured.err
            assert captured.out == ""  # no report was printed

    def test_whitespace_table_without_sidecar_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(6)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        table = tmp_path / "t.cbft"
        assert main(["build-table", str(corpus), "--out", str(table)]) == 0
        (tmp_path / "t.cbft.vocab.json").unlink()
        for command in ("bench", "ablate"):
            code = main(
                [command, "--prompts", str(prompts), "--table", str(table), "--max-new-tokens", "5"]
            )
            assert code == 2
            assert "vocabulary sidecar" in capsys.readouterr().err


    def test_byte_run_on_whitespace_table_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(6)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        table = tmp_path / "t.cbft"
        run = ["--tokenizer", "byte", "--prompts", str(prompts), "--table", str(table),
               "--max-new-tokens", "5"]
        assert main(["build-table", str(corpus), "--out", str(table)]) == 0
        capsys.readouterr()
        for command in ("bench", "ablate"):
            assert main([command, *run]) == 2
            captured = capsys.readouterr()
            assert "built with the whitespace tokenizer" in captured.err
            assert captured.out == ""
        # A byte table keeps accepting the whitespace build's now stale sidecar,
        # and a sidecar that is not a vocabulary file.
        assert main(["build-table", str(corpus), "--out", str(table), "--tokenizer", "byte"]) == 0
        sidecar = tmp_path / "t.cbft.vocab.json"
        for stale in (sidecar.read_text(encoding="utf-8"), json.dumps(["w0", "w1"])):
            sidecar.write_text(stale, encoding="utf-8")
            for command in ("bench", "ablate"):
                assert main([command, *run]) == 0

    def test_sidecar_of_another_table_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(6)), encoding="utf-8")
        other = tmp_path / "o.txt"
        other.write_text("\n".join(eval_texts(3)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        table = tmp_path / "t.cbft"
        sidecar = tmp_path / "t.cbft.vocab.json"
        assert main(["build-table", str(corpus), "--out", str(table)]) == 0
        stale = sidecar.read_text(encoding="utf-8")
        assert main(["build-table", str(other), "--out", str(table)]) == 0
        run = ["--prompts", str(prompts), "--table", str(table), "--max-new-tokens", "5"]
        assert main(["bench", *run]) == 0
        capsys.readouterr()
        for old_sidecar, message in (
            (stale, "written for another table"),
            (json.dumps(Vocab.load(sidecar).words()), "not a vocabulary file"),
        ):
            sidecar.write_text(old_sidecar, encoding="utf-8")
            for command in ("bench", "ablate"):
                assert main([command, *run]) == 2
                captured = capsys.readouterr()
                assert message in captured.err
                assert captured.out == ""

    def test_sidecar_without_distinct_words_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("\n".join(background_texts(6)), encoding="utf-8")
        prompts = tmp_path / "p.txt"
        prompts.write_text("\n".join(eval_texts(1)), encoding="utf-8")
        table = tmp_path / "t.cbft"
        sidecar = tmp_path / "t.cbft.vocab.json"
        assert main(["build-table", str(corpus), "--out", str(table)]) == 0
        capsys.readouterr()
        saved = json.loads(sidecar.read_text(encoding="utf-8"))
        words = saved["words"]
        run = ["--prompts", str(prompts), "--table", str(table), "--max-new-tokens", "5"]
        # Not strings, and one word listed twice (which shifts every later id);
        # the sidecar still names the table's own SHA-256.
        for bad in ([1, 2, 3], words[:2] + words[:1] + words[2:]):
            sidecar.write_text(json.dumps({**saved, "words": bad}), encoding="utf-8")
            assert main(["bench", *run]) == 2
            captured = capsys.readouterr()
            assert "does not list distinct words" in captured.err
            assert captured.out == ""


def test_bench_report_render_dispatch():
    report = run_bench(RunConfig(max_new_tokens=5), [[1, 2, 3, 4]])
    for fmt in ("text", "json", "csv"):
        assert isinstance(report.render(fmt), str)
    with pytest.raises(ValueError):
        report.render("xml")
