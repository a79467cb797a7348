"""CLI surface: tokenizers, table builds, bench/sweep/ablate, formats, exits."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from ngramspec import cli
from ngramspec.cache_table import CacheTableConfig
from ngramspec.cli import (
    EOS_TOKEN,
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
    sample_documents,
    tokenize,
)
from ngramspec.decode_loop import ReplayOracle
from ngramspec.frozen_table import FrozenTable, build_frozen, count_ngrams

from corpus import background_texts, eval_texts
from oracles import SimDecoder, cbft_bytes, naive_frozen_map


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

    def test_sampling_is_seeded(self):
        docs = [f"d{i}" for i in range(200)]
        a = sample_documents(docs, 0.5, 42)
        b = sample_documents(docs, 0.5, 42)
        c = sample_documents(docs, 0.5, 43)
        assert a == b
        assert a != c
        assert sample_documents(docs, 1.0, 0) == docs

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            sample_documents(["x"], 0.0, 1)


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

    def test_empty_ranges_rejected(self, tmp_path):
        prompts = tmp_path / "p.txt"
        prompts.write_text("x y z", encoding="utf-8")
        with pytest.raises(ValueError):
            cmd_sweep(RunConfig(), [], [1], [prompts])


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
        ],
    )
    def test_invalid_field_rejected_on_construction(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="ll"):
            replace(RunConfig(), ll=0)


class TestRunBenchWiring:
    @pytest.mark.parametrize("mode", ["dual", "frozen"])
    def test_table_of_another_shape_rejected(self, mode):
        tcfg = CacheTableConfig(1, 2, 64, 8)
        frozen = build_frozen(count_ngrams([[1, 2, 3, 1, 2, 3]], tcfg), tcfg)
        with pytest.raises(ValueError, match="table shape"):
            run_bench(RunConfig(ll=1, fl=3, max_new_tokens=5), [[1, 2, 3, 4]], frozen, mode=mode)

    def test_frozen_mode_without_table_rejected(self):
        with pytest.raises(ValueError):
            run_bench(RunConfig(max_new_tokens=5), [[1, 2, 3, 4]], None, mode="frozen")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_bench(RunConfig(max_new_tokens=5), [[1, 2, 3, 4]], None, mode="both")


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
        monkeypatch.setattr(cli, "cmd_bench", lambda cfg, *_: seen.append(cfg) or report)
        assert main(["bench", "--prompts", str(prompts)]) == 0
        assert seen == [RunConfig()]

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
