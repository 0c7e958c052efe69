import codecs
import contextlib
import dataclasses
import io
import json
import os
import struct
import tempfile
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from trrgen import cli, corpus, evaluation, generation
from trrgen.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from trrgen.cli import main
from trrgen.corpus import AdConfig, PreprocessConfig, ReviewRecord
from trrgen.generation import DecodeConfig
from trrgen.model import ModelConfig
from trrgen.training import TrainOptions

from conftest import make_records
from test_checkpoint import rewrite_header


def jsonl_line(record):
    return json.dumps({"app_name": record.app_name, "category": record.category,
                       "rating": record.rating, "review": record.review_text,
                       "response": record.response_text}, ensure_ascii=False)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(jsonl_line(r) + "\n")


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, make_records(12, seed=3))
    return path


def run(args):
    return main([str(a) for a in args])


class TestPreprocess:
    def test_golden_fixture_byte_equality(self, tmp_path):
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        src.write_text(json.dumps({
            "app_name": "Shine", "category": "TOOLS", "rating": 4,
            "review": "Mail me at Bob.Smith@mail.com or visit https://shine.example/help NOW",
            "response": "Thanks @BobSmith! See www.shine.example/faq"}) + "\n")
        assert run(["preprocess", "--input", src, "--output", out]) == 0
        expected = json.dumps({
            "app_name": "Shine", "category": "TOOLS", "rating": 4,
            "review": "mail me at ⟨email⟩ or visit ⟨url⟩ now",
            "response": "thanks ⟨user_name⟩! see ⟨url⟩"}, ensure_ascii=False) + "\n"
        assert out.read_text(encoding="utf-8") == expected

    def test_blocklist_applied(self, tmp_path):
        src = tmp_path / "in.jsonl"
        out = tmp_path / "out.jsonl"
        ad = "alpha beta gamma delta epsilon"
        src.write_text(json.dumps({
            "app_name": "a", "category": "T", "rating": 3,
            "review": "fine", "response": f"hello there my friend. {ad}."}) + "\n")
        block = tmp_path / "block.txt"
        block.write_text(ad + "\n")
        assert run(["preprocess", "--input", src, "--output", out,
                    "--blocklist", block]) == 0
        rec = json.loads(out.read_text())
        assert "alpha" not in rec["response"]
        assert "hello there my friend." in rec["response"]

    def test_blocklist_applied_after_a_byte_order_mark(self, tmp_path):
        """The first expression of a blocklist that starts with a UTF-8
        byte-order mark removes its sentence, as it does without the mark."""
        src, out, block = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "block.txt"
        src.write_text(json.dumps({
            "app_name": "a", "category": "T", "rating": 3, "review": "fine",
            "response": "thanks for the review. please rate us five stars now."}) + "\n")
        block.write_bytes(codecs.BOM_UTF8 + b"rate us five stars now\nalpha beta gamma delta epsilon\n")
        assert run(["preprocess", "--input", src, "--output", out, "--blocklist", block]) == 0
        assert json.loads(out.read_text())["response"] == "thanks for the review. "

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert run(["preprocess", "--input", tmp_path / "nope.jsonl",
                    "--output", tmp_path / "x"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("field,value", [("review", None), ("review", 12345),
                                             ("response", None), ("app_name", ["a"])])
    def test_text_field_must_be_a_string(self, tmp_path, capsys, field, value):
        """Not the text "none" or "12345": the run writes no corpus."""
        good = {"app_name": "a", "category": "T", "rating": 3, "review": "x", "response": "y"}
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        assert run(["preprocess", "--input", src, "--output", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {src}:2: {field} must be a string, got {value!r}"]
        assert captured.out == "" and not out.exists()


class TestReportAds:
    def test_planted_ngram_reported(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        rows = []
        for i in range(10):
            rows.append({"app_name": "a", "category": "T", "rating": 3,
                         "review": "r", "response": "shine is a free phone cleaner today"})
        src.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert run(["report-ads", "--input", src]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("10\t")

    def test_flag_column(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        rows = [{"app_name": "a", "category": "T", "rating": 3, "review": "r",
                 "response": ("shine is a free phone cleaner today" if i < 3
                              else f"reply number {i} here and there")} for i in range(100)]
        src.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        # cut-off 0.02 * 100 responses = 2: the planted 5-gram (3) is flagged,
        # every one-off 5-gram is not
        assert run(["report-ads", "--input", src, "--ad-flag-threshold", "0.02"]) == 0
        lines = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
        assert lines[0] == ["3", "is a free phone cleaner", "1"]
        assert len(lines) == 98 and all(l[0] == "1" and l[2] == "0" for l in lines[1:])


class TestBuildVocab:
    def test_deterministic_output(self, corpus_file, tmp_path):
        v1 = tmp_path / "v1.json"
        v2 = tmp_path / "v2.json"
        assert run(["build-vocab", "--input", corpus_file, "--output", v1,
                    "--min-freq", 1]) == 0
        assert run(["build-vocab", "--input", corpus_file, "--output", v2,
                    "--min-freq", 1]) == 0
        assert v1.read_bytes() == v2.read_bytes()

    @pytest.mark.parametrize("command", ["build-vocab", "ablate"])
    def test_min_freq_below_one_is_one_error_line(self, corpus_file, tmp_path, capsys, command):
        """Both used to keep every token and exit 0."""
        vocab = tmp_path / "vocab.json"
        args = {"build-vocab": ["--input", corpus_file, "--output", vocab],
                "ablate": ["--data", corpus_file]}[command]
        code = run([command, *args, "--min-freq", -3])
        assert_one_error_line(code, capsys, "error: min_freq must be >= 1, got -3")
        assert not vocab.exists()

    def test_empty_corpus_is_one_error_line(self, tmp_path, capsys):
        """It used to write a vocabulary of the special tokens only and exit 0."""
        empty, vocab = tmp_path / "empty.jsonl", tmp_path / "vocab.json"
        empty.write_text("")
        code = run(["build-vocab", "--input", empty, "--output", vocab])
        assert_one_error_line(code, capsys, f"error: {empty}: empty corpus")
        assert not vocab.exists()


def train_tiny(tmp_path, corpus_file, seed=0, variant="trrgen_concat", epochs=2):
    vocab = tmp_path / "vocab.json"
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "train.log"
    assert run(["build-vocab", "--input", corpus_file, "--output", vocab,
                "--min-freq", 1]) == 0
    assert run(["train", "--train", corpus_file, "--vocab", vocab,
                "--output", ckpt, "--log", log,
                "--d-model", 16, "--d-ff", 32, "--n-heads", 2,
                "--epochs", epochs, "--batch-size", 4, "--lr", "0.002",
                "--dropout", "0.0", "--seed", seed,
                "--fusion-variant", variant]) == 0
    return ckpt, log


@pytest.fixture(scope="session")
def session_checkpoint(tmp_path_factory):
    """One tiny trained checkpoint shared by the tests that only read it."""
    tmp = tmp_path_factory.mktemp("session_ckpt")
    corpus = tmp / "corpus.jsonl"
    write_jsonl(corpus, make_records(12, seed=3))
    return train_tiny(tmp, corpus, epochs=1)[0]


class TestTrainGenerateEvaluate:
    def test_checkpoint_header_is_strict_json(self, session_checkpoint):
        """A run without `--valid` stores `null` as its best validation loss,
        not `Infinity`, which strict JSON parsers reject."""
        def not_json(constant):
            raise ValueError(f"{constant} is not JSON")
        raw = session_checkpoint.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[len(MAGIC) + 4:len(MAGIC) + 12])
        header = json.loads(raw[len(MAGIC) + 12:len(MAGIC) + 12 + hlen], parse_constant=not_json)
        assert header["metadata"] == {"best_epoch": -1, "best_valid_loss": None}

    def test_train_writes_log_and_checkpoint(self, tmp_path, corpus_file, capsys):
        ckpt, log = train_tiny(tmp_path, corpus_file)
        capsys.readouterr()
        entries = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(entries) == 2
        assert entries[0]["epoch"] == 1 and "train_loss" in entries[0]
        assert ckpt.exists()

    @pytest.mark.parametrize("flag", ["--train", "--valid"])
    def test_empty_corpus_is_one_error_line(self, tmp_path, corpus_file, capsys, flag):
        """Before any epoch runs, and no checkpoint is written. An empty
        --valid used to train with no validation, and an empty --train
        failed without naming the file."""
        vocab, ckpt, empty = tmp_path / "vocab.json", tmp_path / "m.ckpt", tmp_path / "e.jsonl"
        empty.write_text("")
        assert run(["build-vocab", "--input", corpus_file, "--output", vocab,
                    "--min-freq", 1]) == 0
        capsys.readouterr()
        corpora = {"--train": corpus_file, "--valid": corpus_file, flag: empty}
        code = run(["train", *(x for pair in corpora.items() for x in pair), "--vocab", vocab,
                    "--output", ckpt, "--epochs", 1, "--d-model", 8, "--n-heads", 2,
                    "--d-ff", 16])
        assert_one_error_line(code, capsys, f"error: {empty}: empty corpus")
        assert not ckpt.exists()

    def test_training_log_is_seed_deterministic(self, tmp_path, corpus_file, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, log1 = train_tiny(tmp_path / "a", corpus_file)
        _, log2 = train_tiny(tmp_path / "b", corpus_file)
        capsys.readouterr()
        assert log1.read_text() == log2.read_text()

    @pytest.fixture
    def trained(self, tmp_path, corpus_file, capsys):
        ckpt, _ = train_tiny(tmp_path, corpus_file)
        capsys.readouterr()
        return ckpt

    def test_generate_deterministic(self, trained, capsys):
        args = ["generate", "--checkpoint", trained, "--review", "love this app",
                "--rating", 5, "--category", "TOOLS"]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first

    def test_generate_unknown_category_fails(self, trained, capsys):
        assert run(["generate", "--checkpoint", trained, "--review", "x",
                    "--rating", 5, "--category", "FOO"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_generate_truncated_checkpoint_fails(self, trained, tmp_path, capsys):
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(trained.read_bytes()[:9])
        assert run(["generate", "--checkpoint", cut, "--review", "x",
                    "--rating", 5, "--category", "TOOLS"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_generate_batch_mode(self, trained, tmp_path, capsys):
        batch = tmp_path / "batch.jsonl"
        batch.write_text(json.dumps({"review": "love it", "rating": 5,
                                     "category": "GAME"}) + "\n")
        assert run(["generate", "--checkpoint", trained, "--batch", batch]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        obj = json.loads(out[-1])
        assert "response" in obj and obj["input"]["rating"] == 5

    def test_generate_batch_bad_line_fails(self, trained, tmp_path, capsys):
        good = json.dumps({"review": "love it", "rating": 5, "category": "GAME"})
        batch = tmp_path / "batch.jsonl"
        for bad in ['{"review": "love it", "rating": 5}',
                    '{"review": "love it", "category": "GAME"}',
                    '{"rating": 5, "category": "GAME"}',
                    '["love it", 5, "GAME"]', '"love it"', 'null',
                    '{"review": "love it", "rating": 5,',
                    '{"review": "love it", "rating": "five", "category": "GAME"}',
                    '{"review": "love it", "rating": 4.7, "category": "GAME"}',
                    '{"review": "love it", "rating": true, "category": "GAME"}',
                    '{"review": "love it", "rating": 9, "category": "GAME"}',
                    '{"review": "love it", "rating": 5, "category": "FOO"}']:
            batch.write_text(good + "\n\n" + bad + "\n" + good + "\n")
            assert run(["generate", "--checkpoint", trained, "--batch", batch]) == 1, bad
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {batch}:3: "), (bad, err)
            assert captured.out == "", bad

    @pytest.mark.parametrize("field,value", [("review", None), ("review", 12345),
                                             ("category", None), ("category", ["GAME"])])
    def test_generate_batch_text_field_must_be_a_string(self, session_checkpoint, tmp_path,
                                                       capsys, field, value):
        """A null or numeric review is one error line, not a response to "none"."""
        good = {"review": "love it", "rating": 5, "category": "GAME"}
        batch = tmp_path / "batch.jsonl"
        batch.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
        assert run(["generate", "--checkpoint", session_checkpoint, "--batch", batch]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {batch}:2: {field} must be a string, got {value!r}"]
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [["--review", "love it"], ["--rating", "5"],
                                       ["--category", "GAME"]])
    def test_generate_batch_excludes_a_flag_review(self, tmp_path, capsys, flags):
        """The flag review is not silently dropped: the run ends before the
        checkpoint is read."""
        batch = tmp_path / "batch.jsonl"
        batch.write_text(json.dumps({"review": "love it", "rating": 5, "category": "GAME"}))
        code = run(["generate", "--checkpoint", tmp_path / "missing.ckpt", "--batch", batch,
                    *flags])
        assert_one_error_line(code, capsys, "error: generate takes --batch or --review, "
                              "--rating and --category, not both")

    @pytest.mark.parametrize("review", ["⟨⟩", " ⟨ ⟩ "])
    def test_review_without_tokens_is_one_error_line(self, session_checkpoint, corpus_file,
                                                     tmp_path, capsys, review):
        """"⟨⟩" is not blank, but it has no tokens for the encoder; every
        command that reads a review rejects it before it trains or decodes."""
        vocab, ckpt = tmp_path / "vocab.json", tmp_path / "model.ckpt"
        assert run(["build-vocab", "--input", corpus_file, "--output", vocab]) == 0
        capsys.readouterr()
        line = json.dumps({"app_name": "a", "category": "TOOLS", "rating": 3,
                           "review": review, "response": "thanks"}, ensure_ascii=False)
        batch, test = tmp_path / "batch.jsonl", tmp_path / "test.jsonl"
        good = json.dumps({"review": "love it", "rating": 5, "category": "GAME"})
        batch.write_text(good + "\n" + line + "\n", encoding="utf-8")
        test.write_text(line + "\n", encoding="utf-8")
        checkpoint = ["--checkpoint", session_checkpoint]
        for args, where in [(["generate", "--review", review, "--rating", 3,
                              "--category", "TOOLS", *checkpoint], "input"),
                            (["generate", "--batch", batch, *checkpoint], f"{batch}:2"),
                            (["evaluate", "--test", test, *checkpoint], f"{test}:1"),
                            (["train", "--train", corpus_file, "--valid", test, "--vocab", vocab,
                              "--output", ckpt], f"{test}:1")]:
            assert run(args) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"error: {where}: review text has no tokens"]
            assert captured.out == ""
        assert not ckpt.exists()

    def test_generate_max_len_above_model_limit_fails(self, trained, capsys):
        assert run(["generate", "--checkpoint", trained, "--review", "love it",
                    "--rating", 5, "--category", "GAME", "--decode-max-len", 500]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "max_len" in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("penalty", ["1e8", "inf", "nan", "-1"])
    def test_generate_bad_length_penalty_fails(self, trained, capsys, penalty):
        assert run(["generate", "--checkpoint", trained, "--review", "love it",
                    "--rating", 5, "--category", "GAME", "--strategy", "beam",
                    "--length-penalty", penalty]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: length_penalty"), err
        assert captured.out == ""

    @pytest.mark.parametrize("decode", [[], ["--strategy", "beam", "--beam-width", 4],
                                        ["--strategy", "beam", "--beam-width", 30,
                                         "--length-penalty", 1]])
    def test_generate_batch_prints_what_one_call_per_line_prints(self, session_checkpoint,
                                                                 tmp_path, capsys, decode):
        """The batch is decoded in groups (two reviews a group at width 30);
        each line's response is what decoding that review alone gives."""
        rows = [("love it", 5, "GAME"), ("app", 1, "TOOLS"),
                ("slow app crash please fix the update battery", 2, "TOOLS"),
                ("great", 4, "GAME"), ("ads ads free", 3, "GAME")]
        batch = tmp_path / "batch.jsonl"
        batch.write_text("".join(json.dumps({"review": r, "rating": n, "category": c}) + "\n"
                                 for r, n, c in rows))
        command = ["generate", "--checkpoint", session_checkpoint, *decode]
        expected = []
        for review, rating, category in rows:
            assert run([*command, "--review", review, "--rating", rating,
                        "--category", category]) == 0
            expected.append(capsys.readouterr().out)
        assert run([*command, "--batch", batch]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert len(lines) == len(rows)
        for line, (review, rating, category), out in zip(lines, rows, expected):
            obj = json.loads(line)
            assert obj["input"] == {"review": review, "rating": rating, "category": category}
            assert obj["response"] + "\n" == out

    @pytest.mark.parametrize("decode", [[], ["--strategy", "beam", "--beam-width", 3]])
    def test_generate_non_finite_checkpoint_is_one_error_line(self, session_checkpoint,
                                                             tmp_path, capsys, decode):
        params, config, vocab, run_config, metadata = load_checkpoint(session_checkpoint)
        params.out_proj.values[0, 5] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(bad, params, config, vocab, run_config, metadata)
        assert run(["generate", "--checkpoint", bad, "--review", "love it", "--rating", 5,
                    "--category", "GAME", *decode]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {bad}: tensor out_proj holds a NaN or infinite value"]
        assert captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr gets only the error line
    @pytest.mark.parametrize("args", [
        ["generate", "--review", "love it", "--rating", 5, "--category", "GAME"],
        ["generate", "--batch", "batch.jsonl"],
        ["generate", "--review", "love it", "--rating", 5, "--category", "GAME",
         "--strategy", "beam", "--beam-width", 3],
        ["evaluate", "--test", "corpus.jsonl"]])
    def test_overflowing_checkpoint_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                      args):
        """Finite weights as large as 1e308, which the checkpoint loader
        accepts, overflow the logits; decoding used to answer ⟨pad⟩ tokens
        (or nothing) and exit 0."""
        assert train_one_batch(tmp_path, monkeypatch) == 0
        (tmp_path / "batch.jsonl").write_text(
            '{"review": "love it", "rating": 5, "category": "GAME"}\n')
        params, config, vocab, run_config, metadata = load_checkpoint("model.ckpt")
        params.out_proj.values[:] = 1e308
        save_checkpoint("big.ckpt", params, config, vocab, run_config, metadata)
        assert np.max(load_checkpoint("big.ckpt")[0].out_proj.values) > 1e299
        capsys.readouterr()
        code = run([*args, "--checkpoint", "big.ckpt"])
        assert_one_error_line(code, capsys, "error: non-finite decoder logits")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr gets only the error line
    def test_training_into_overflow_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        """One Adam step at --lr 1e300 leaves weights as large as 1e300. With
        no --valid nothing ran on them, and `train` used to save them and
        exit 0, so only a later `generate` failed."""
        code = train_one_batch(tmp_path, monkeypatch, "--lr", "1e300")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == ["error: non-finite training loss"]
        assert "saved checkpoint" not in captured.out
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("key,value", [("n_layers", 20_000), ("d_model", 10**11)])
    def test_oversized_checkpoint_header_is_one_error_line(self, session_checkpoint, tmp_path,
                                                          capsys, key, value):
        """A header's model size is checked against its manifest before it
        allocates anything. 20,000 layers took seconds and hundreds of MB to
        be rejected, and d_model 10^11 ended in a MemoryError traceback."""
        bad = tmp_path / "big.ckpt"
        bad.write_bytes(session_checkpoint.read_bytes())
        rewrite_header(bad, lambda h: h["model_config"].update({key: value}))
        start = time.perf_counter()
        code = run(["generate", "--checkpoint", bad, "--review", "love it", "--rating", 5,
                    "--category", "GAME"])
        assert time.perf_counter() - start < 0.5
        assert_one_error_line(code, capsys, f"error: {bad}: tensor manifest does not match")

    def test_model_too_large_for_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        """numpy refuses a 10^11-wide embedding at once, without using the
        memory; its MemoryError used to end in a traceback."""
        code = train_one_batch(tmp_path, monkeypatch, "--d-model", 10**11)
        captured = capsys.readouterr()
        assert code == 1
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: Unable to allocate")
        assert "saved checkpoint" not in captured.out
        assert not (tmp_path / "model.ckpt").exists()

    def test_memory_error_without_a_message_is_named(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr(cli, "train_model", out_of_memory)
        code = train_one_batch(tmp_path, monkeypatch)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == ["error: MemoryError"]

    @pytest.mark.parametrize("edit", [lambda v: 5, lambda v: dict.fromkeys(v, 0),
                                      lambda v: v[:-1] + [7], lambda v: v[:-1] + [v[-1:]]])
    def test_train_vocab_not_a_list_of_strings_is_one_error_line(self, session_checkpoint,
                                                                 corpus_file, tmp_path,
                                                                 capsys, edit):
        path, ckpt = tmp_path / "vocab.json", tmp_path / "model.ckpt"
        path.write_text(json.dumps(edit(load_checkpoint(session_checkpoint)[2].id_to_token)))
        assert run(["train", "--train", corpus_file, "--vocab", path, "--output", ckpt,
                    "--epochs", 1]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {path}: vocabulary must be a JSON list of strings"]
        assert captured.out == ""
        assert not ckpt.exists()

    def test_checkpoint_vocabulary_with_a_number_is_one_error_line(self, session_checkpoint,
                                                                   corpus_file, tmp_path,
                                                                   capsys):
        """The number would only fail once `generate` emitted its id."""
        params, config, vocab, run_config, metadata = load_checkpoint(session_checkpoint)
        bad = tmp_path / "number.ckpt"
        save_checkpoint(bad, params, config,
                        SimpleNamespace(id_to_token=vocab.id_to_token[:-1] + [7]),
                        run_config, metadata)
        for args in (["generate", "--review", "love it", "--rating", 5, "--category", "GAME"],
                     ["evaluate", "--test", corpus_file]):
            assert run([*args, "--checkpoint", bad]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                f"error: {bad}: malformed header: vocabulary must be a JSON list of strings"]
            assert captured.out == ""

    def test_generate_flag_review_is_one_decode_call(self, session_checkpoint, capsys,
                                                    monkeypatch):
        """A flag review is a batch of one: one `generate_all` call, one record."""
        calls = []

        def counting(records, *args):
            calls.append(len(records))
            return generation.generate_all(records, *args)
        monkeypatch.setattr(cli, "generate_all", counting)
        assert run(["generate", "--checkpoint", session_checkpoint, "--review", "love it",
                    "--rating", 5, "--category", "GAME"]) == 0
        assert calls == [1]
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_generate_beam_width_above_ceiling_fails(self, session_checkpoint, capsys):
        assert run(["generate", "--checkpoint", session_checkpoint, "--review", "love it",
                    "--rating", 5, "--category", "GAME", "--strategy", "beam",
                    "--beam-width", 100000]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: beam_width"), err
        assert captured.out == ""

    def test_model_and_training_flags_rejected(self, trained, corpus_file, tmp_path,
                                               capsys):
        generate = ["generate", "--checkpoint", trained, "--review", "love it",
                    "--rating", 5, "--category", "GAME"]
        evaluate = ["evaluate", "--checkpoint", trained, "--test", corpus_file]
        flags = ["--d-model", 512, "--lr", 9, "--max-tgt-len", 3]
        for args in (generate, evaluate):
            assert run(args + flags) == 1
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {args[0]} "), err
            assert all(flag in err[0] for flag in ("--d-model", "--lr", "--max-tgt-len"))
            assert captured.out == ""

        cfg = tmp_path / "shared.json"
        cfg.write_text(json.dumps({"d_model": 512, "lr": 9, "max_tgt_len": 3, "dropout": 0.5}))
        for args in (generate, evaluate):
            assert run(args + ["--config", cfg]) == 0
            assert capsys.readouterr().err == ""

    def test_evaluate_emits_report(self, trained, corpus_file, capsys):
        assert run(["evaluate", "--checkpoint", trained, "--test", corpus_file]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        for key in ("bleu", "p1", "p2", "p3", "p4", "brevity_penalty"):
            assert key in report

    def test_evaluate_empty_test_fails(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = run(["evaluate", "--checkpoint", trained, "--test", empty])
        assert_one_error_line(code, capsys, f"error: {empty}: empty corpus")


@pytest.mark.parametrize("args,words", [
    (["generate", "--checkpoint", "x", "--rating", "abc"], ("--rating", "abc")),
    (["generate", "--review", "x"], ("required", "--checkpoint")),
    (["preprocess", "--input", "a", "--output", "b", "--format", "csv"], ("--format", "csv"))])
def test_command_line_errors_are_one_error_line(args, words, capsys):
    assert run(args) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: trrgen "), err
    assert all(word in err[0] for word in words), err
    assert captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--help"])
    assert exc.value.code == 0
    assert "--checkpoint" in capsys.readouterr().out


def train_one_batch(tmp_path, monkeypatch, *flags):
    """`train` on a two-record corpus in `tmp_path`, one epoch of one batch
    without --valid, writing model.ckpt; returns its exit code."""
    monkeypatch.chdir(tmp_path)
    write_jsonl("corpus.jsonl", [ReviewRecord("a", "TOOLS", 4, "love this app", "thanks"),
                                 ReviewRecord("b", "GAME", 1, "it crashes", "sorry")])
    assert run(["build-vocab", "--input", "corpus.jsonl", "--output", "vocab.json",
                "--min-freq", 1]) == 0
    return run(["train", "--train", "corpus.jsonl", "--vocab", "vocab.json",
                "--output", "model.ckpt", "--epochs", 1, "--d-model", 8, "--n-heads", 2,
                "--d-ff", 16, *flags])


def assert_one_error_line(code, capsys, *words):
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert all(word in err[0] for word in words), err
    assert captured.out == ""


class TestBadTrainingSettings:
    """A bad epoch count, FFN width or dropout rate is one `error:` line naming
    the setting, with nothing on stdout and no checkpoint written."""

    @pytest.fixture
    def vocab(self, tmp_path, corpus_file, capsys):
        path = tmp_path / "vocab.json"
        assert run(["build-vocab", "--input", corpus_file, "--output", path,
                    "--min-freq", 1]) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("flag,value,field", [
        ("--epochs", "0", "epochs"), ("--epochs", "-1", "epochs"),
        ("--d-ff", "0", "d_ff"), ("--d-ff", "-4", "d_ff"),
        ("--dropout", "1.0", "dropout"), ("--dropout", "nan", "dropout"),
        ("--dropout", "-0.5", "dropout")])
    def test_train(self, tmp_path, corpus_file, vocab, capsys, flag, value, field):
        ckpt = tmp_path / "model.ckpt"
        code = run(["train", "--train", corpus_file, "--vocab", vocab, "--output", ckpt,
                    "--d-model", 16, "--d-ff", 32, "--n-heads", 2, "--batch-size", 4,
                    "--epochs", 1, flag, value])
        assert_one_error_line(code, capsys, f"{field} must be")
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--epochs", "0", "epochs"), ("--d-ff", "0", "d_ff"), ("--dropout", "1.0", "dropout")])
    def test_ablate(self, tmp_path, capsys, flag, value, field):
        data = tmp_path / "data.jsonl"
        write_jsonl(data, make_records(40, seed=9))
        code = run(["ablate", "--data", data, "--variants", "vanilla",
                    "--d-model", 16, "--d-ff", 32, "--n-heads", 2, "--batch-size", 8,
                    "--epochs", 1, "--train-ratio", "0.6", "--valid-ratio", "0.2",
                    "--test-ratio", "0.2", flag, value])
        assert_one_error_line(code, capsys, f"{field} must be")


class TestAblate:
    def test_emits_one_row_per_variant(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl(data, make_records(40, seed=9))
        assert run(["ablate", "--data", data, "--variants", "vanilla,category_only",
                    "--d-model", 16, "--d-ff", 32, "--n-heads", 2,
                    "--epochs", 1, "--batch-size", 8, "--dropout", "0.0",
                    "--train-ratio", "0.6", "--valid-ratio", "0.2",
                    "--test-ratio", "0.2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        labels = [json.loads(l)["label"] for l in out]
        assert labels == ["vanilla", "category_only"]

    @pytest.mark.parametrize("variants", ["", "vanilla,vanilla", "vanilla,,trrgen_order"])
    def test_empty_or_repeated_variant_is_one_error_line(self, tmp_path, capsys, variants):
        """Checked before the corpus is read; `''` used to train every variant."""
        code = run(["ablate", "--data", tmp_path / "missing.jsonl", "--variants", variants])
        assert_one_error_line(code, capsys, f"error: --variants must name distinct variants, "
                                            f"got {variants!r}")

    def test_unknown_variant_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl(data, make_records(10))
        assert run(["ablate", "--data", data, "--variants", "bogus"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEncodingContract:
    """`train` fixes the text encoding, its checkpoint carries it, and
    `generate` and `evaluate` read it back. Every command that encodes text
    normalizes it first."""

    REVIEW = "Mail ME at Bob.Smith@Example.com, THIS app crashes on every update"

    @pytest.fixture
    def encoded(self, monkeypatch):
        """Each (record, config, encoding) that `corpus.encode_record` is called with."""
        calls, encode_record = [], corpus.encode_record

        def spy(record, vocab, config):
            calls.append((record, config, encode_record(record, vocab, config)))
            return calls[-1][2]
        monkeypatch.setattr(corpus, "encode_record", spy)
        return calls

    def inputs(self, tmp_path, review):
        """A `--batch` file and a `--test` corpus, each holding `review`."""
        batch, test = tmp_path / "batch.jsonl", tmp_path / "test.jsonl"
        batch.write_text(json.dumps({"review": review, "rating": 4, "category": "TOOLS"}) + "\n",
                         encoding="utf-8")
        write_jsonl(test, [ReviewRecord("a", "TOOLS", 4, review, "Thanks, WE fix it")])
        return batch, test

    def test_generate_and_evaluate_encode_as_train_did(self, tmp_path, corpus_file, encoded,
                                                       capsys):
        vocab, ckpt = tmp_path / "vocab.json", tmp_path / "model.ckpt"
        assert run(["build-vocab", "--input", corpus_file, "--output", vocab,
                    "--min-freq", 1]) == 0
        assert run(["train", "--train", corpus_file, "--vocab", vocab, "--output", ckpt,
                    *TINY_MODEL, "--max-review-tokens", 3, "--lowercase", "false"]) == 0
        batch, test = self.inputs(tmp_path, self.REVIEW)
        encoded.clear()
        for args in (["generate", "--review", self.REVIEW, "--rating", 4, "--category", "TOOLS"],
                     ["generate", "--batch", batch], ["evaluate", "--test", test]):
            assert run([*args, "--checkpoint", ckpt]) == 0
        assert capsys.readouterr().err == ""
        assert len(encoded) == 3
        for record, config, ids in encoded:
            assert (config.lowercase, config.max_review_tokens) == (False, 3)
            assert record.review_text == "Mail ME at ⟨email⟩, THIS app crashes on every update"
            assert len(ids.src_ids) == 3

    def test_generate_batch_and_evaluate_answer_a_raw_review_alike(self, session_checkpoint,
                                                                   tmp_path, encoded,
                                                                   monkeypatch, capsys):
        answers = []

        def postprocess(ids, vocab):
            answers.append(generation.postprocess(ids, vocab))
            return answers[-1]
        monkeypatch.setattr(evaluation, "postprocess", postprocess)
        batch, test = self.inputs(tmp_path, self.REVIEW)
        assert run(["generate", "--checkpoint", session_checkpoint, "--batch", batch]) == 0
        response = json.loads(capsys.readouterr().out)["response"]
        assert run(["evaluate", "--checkpoint", session_checkpoint, "--test", test]) == 0
        capsys.readouterr()
        assert answers == [response]
        (by_generate, _, generated), (by_evaluate, _, evaluated) = encoded
        assert by_generate.review_text == by_evaluate.review_text == (
            "mail me at ⟨email⟩, this app crashes on every update")
        assert by_evaluate.response_text == "thanks, we fix it"
        assert generated.src_ids == evaluated.src_ids

    @pytest.mark.parametrize("run_config,words", [
        (["lowercase"], "run_config must be a flat JSON object"),
        ({"max_review_tokens": "3"}, "max_review_tokens must be an integer, got '3'"),
        ({"max_review_tokens": 0}, "max_review_tokens must be >= 1"),
        ({"max_response_tokens": 1}, "max_response_tokens must be >= 2, got 1"),
        ({"lowercase": 1, "max_review_tokens": 3}, "lowercase must be true or false, got 1")])
    def test_bad_stored_setting_is_one_error_line(self, session_checkpoint, corpus_file,
                                                  tmp_path, capsys, run_config, words):
        params, config, vocab, _, metadata = load_checkpoint(session_checkpoint)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, params, config, vocab, run_config, metadata)
        for args in (["generate", "--review", "love it", "--rating", 5, "--category", "GAME"],
                     ["evaluate", "--test", corpus_file]):
            assert_one_error_line(run([*args, "--checkpoint", bad]), capsys,
                                  f"error: {bad}: {words}")

    def test_checkpoint_without_settings_decodes_with_the_defaults(self, session_checkpoint,
                                                                  tmp_path, encoded, capsys):
        params, config, vocab, _, _ = load_checkpoint(session_checkpoint)
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(bare, params, config, vocab)  # a library caller's: no run_config
        assert load_checkpoint(bare)[3] == {}
        assert run(["generate", "--checkpoint", bare, "--review", "love it", "--rating", 5,
                    "--category", "GAME"]) == 0
        assert capsys.readouterr().out
        assert [config for _, config, _ in encoded] == [PreprocessConfig()]

    def test_encoding_error_names_the_file_and_record(self, session_files, tmp_path, capsys):
        """Records are counted from 1, blank lines not counted."""
        good, bad = make_records(2, seed=1)
        bad.category = "GAMES"
        data, ckpt = tmp_path / "games.jsonl", tmp_path / "model.ckpt"
        data.write_text(f"{jsonl_line(good)}\n\n{jsonl_line(bad)}\n", encoding="utf-8")
        for args in (["evaluate", "--checkpoint", session_files.checkpoint, "--test", data],
                     ["train", "--train", session_files.corpus, "--valid", data,
                      "--vocab", session_files.vocab, "--output", ckpt, *TINY_MODEL],
                     ["train", "--train", data, "--vocab", session_files.vocab,
                      "--output", ckpt, *TINY_MODEL]):
            assert_one_error_line(run(args), capsys,
                                  f"error: {data}: record 2: unknown category 'GAMES'")
        assert not ckpt.exists()


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"min_freq": 5}))
        v1 = tmp_path / "v1.json"
        v2 = tmp_path / "v2.json"
        assert run(["build-vocab", "--input", corpus_file, "--output", v1,
                    "--config", cfg]) == 0
        assert run(["build-vocab", "--input", corpus_file, "--output", v2,
                    "--config", cfg, "--min-freq", 1]) == 0
        capsys.readouterr()
        assert len(json.loads(v2.read_text())) > len(json.loads(v1.read_text()))

    def test_unknown_config_key_rejected(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"learning_rate_typo": 1}))
        assert run(["build-vocab", "--input", corpus_file,
                    "--output", tmp_path / "v.json", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_env_seed_override(self, tmp_path, corpus_file, monkeypatch, capsys):
        monkeypatch.setenv("TRRGEN_SEED", "123")
        ckpt, _ = train_tiny(tmp_path, corpus_file, seed=0, epochs=1)
        capsys.readouterr()
        from trrgen.checkpoint import load_checkpoint
        _, _, _, run_cfg, _ = load_checkpoint(ckpt)
        assert run_cfg["seed"] == 123


# (default, type) of every setting, as the CLI has always had them.
SETTINGS_AT_ORIGIN = {
    "d_model": (256, "int"), "n_heads": (4, "int"), "n_layers": (1, "int"),
    "d_ff": (1024, "int"), "max_tgt_len": (120, "int"),
    "fusion_variant": ("trrgen_concat", "str"), "dropout": (0.1, "float"),
    "lowercase": (True, "bool"), "ad_ngram_n": (5, "int"),
    "ad_flag_threshold": (0.005, "float"), "max_review_tokens": (100, "int"),
    "max_response_tokens": (120, "int"), "min_freq": (2, "int"), "lr": (1e-4, "float"),
    "beta1": (0.9, "float"), "beta2": (0.999, "float"), "adam_eps": (1e-8, "float"),
    "batch_size": (32, "int"), "epochs": (30, "int"), "patience": (5, "int"),
    "validate_every": (1, "int"), "strategy": ("greedy", "str"), "beam_width": (4, "int"),
    "decode_max_len": (None, "int | None"), "length_penalty": (0.0, "float"),
    "train_ratio": (0.8, "float"), "valid_ratio": (0.1, "float"),
    "test_ratio": (0.1, "float"), "seed": (0, "int"),
}
DEFAULTS = {key: default for key, (default, _) in SETTINGS_AT_ORIGIN.items()}
COMPONENTS = (ModelConfig, PreprocessConfig, AdConfig, TrainOptions, DecodeConfig,
              cli.PipelineConfig)

# The settings each command takes flags for, written out so that the tests do
# not read the table they check: the keys the command reads. `preprocess` and
# `report-ads` only normalize, so of the encoding keys they read `lowercase`;
# of the ad keys, `preprocess` reads only the n-gram length its blocklist needs.
PREPROCESS_KEYS = {"lowercase", "max_review_tokens", "max_response_tokens"}
AD_KEYS = {"ad_ngram_n", "ad_flag_threshold"}
DECODE_KEYS = {"strategy", "beam_width", "decode_max_len", "length_penalty"}
MODEL_KEYS = {"d_model", "n_heads", "n_layers", "d_ff", "max_tgt_len", "fusion_variant",
              "dropout", "seed"}
TRAIN_OPTION_KEYS = {"lr", "beta1", "beta2", "adam_eps", "batch_size", "epochs", "patience",
                     "validate_every", "seed"}
ACCEPTED = {"preprocess": {"lowercase", "ad_ngram_n"}, "report-ads": {"lowercase"} | AD_KEYS,
            "build-vocab": {"min_freq"},
            "train": MODEL_KEYS | PREPROCESS_KEYS | TRAIN_OPTION_KEYS,
            "generate": DECODE_KEYS, "evaluate": DECODE_KEYS,
            "ablate": set(SETTINGS_AT_ORIGIN) - AD_KEYS - {"fusion_variant"}}
FOREIGN = {command: sorted(set(SETTINGS_AT_ORIGIN) - keys) for command, keys in ACCEPTED.items()}
ACCEPTED_PAIRS = [(command, key) for command, keys in ACCEPTED.items() for key in sorted(keys)]
FOREIGN_PAIRS = [(command, key) for command, keys in FOREIGN.items() for key in keys]


class TestSettingsTable:
    def test_keys_defaults_and_types(self):
        assert len(SETTINGS_AT_ORIGIN) == 29
        assert {key: (f.default, f.type) for key, f in cli.SETTINGS.items()} == SETTINGS_AT_ORIGIN

    def test_shared_key_has_one_type_and_default(self):
        owners = {}
        for cls in COMPONENTS:
            for f in dataclasses.fields(cls):
                owners.setdefault(cli._key(cls, f.name), []).append((f.default, f.type))
        shared = {key: v for key, v in owners.items() if key in cli.SETTINGS and len(v) > 1}
        assert shared == {"seed": [(0, "int")] * 3}

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("TRRGEN_SEED", raising=False)
        assert cli.load_settings(None, {}) == DEFAULTS

    def test_checkpoint_stores_every_setting(self, tmp_path, corpus_file, monkeypatch, capsys):
        monkeypatch.delenv("TRRGEN_SEED", raising=False)
        ckpt, _ = train_tiny(tmp_path, corpus_file)
        capsys.readouterr()
        assert load_checkpoint(ckpt)[3] == {
            **DEFAULTS, "d_model": 16, "d_ff": 32, "n_heads": 2, "epochs": 2,
            "batch_size": 4, "lr": 0.002, "dropout": 0.0}

    def test_build(self):
        cfg = cli.load_settings(None, {"decode_max_len": "7", "d_model": "32"})
        assert cli.build(DecodeConfig, cfg).max_len == 7
        model = cli.build(ModelConfig, cfg, vocab_size=50, fusion_variant="vanilla")
        assert (model.vocab_size, model.d_model, model.fusion_variant) == (50, 32, "vanilla")
        assert cli.build(TrainOptions, cfg).stop_loss == TrainOptions().stop_loss

    @pytest.mark.parametrize("text,value", [("1", True), ("0", False), ("true", True),
                                            ("FALSE", False), ("yes", True), ("No", False)])
    def test_bool_flag_spellings(self, text, value):
        assert cli.load_settings(None, {"lowercase": text})["lowercase"] is value


class TestBadSettings:
    @pytest.fixture
    def train_args(self, tmp_path, corpus_file, capsys):
        vocab = tmp_path / "vocab.json"
        assert run(["build-vocab", "--input", corpus_file, "--output", vocab,
                    "--min-freq", 1]) == 0
        capsys.readouterr()
        return ["train", "--train", corpus_file, "--vocab", vocab,
                "--output", tmp_path / "model.ckpt", "--d-model", 16, "--d-ff", 32,
                "--n-heads", 2, "--epochs", 1, "--batch-size", 4, "--dropout", "0.0"]

    def fails_with_one_line(self, args, capsys, tmp_path, names):
        assert run(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert names in err[0], err
        assert not (tmp_path / "model.ckpt").exists()

    @pytest.mark.parametrize("key,value", [
        ("d_model", '"16"'), ("epochs", '"2"'), ("lr", '"0.01"'), ("dropout", "null"),
        ("d_model", "16.0"), ("d_model", "true"), ("lowercase", '"no"'),
        ("lr", "1e999"), ("lr", "1" + "0" * 400),
        # settings train does not read, which its checkpoint header still stores
        ("train_ratio", "NaN"), ("length_penalty", "-Infinity")])
    def test_bad_config_value(self, train_args, tmp_path, capsys, key, value):
        path = tmp_path / "run.json"
        path.write_text(f'{{"{key}": {value}}}')
        self.fails_with_one_line(train_args + ["--config", path], capsys, tmp_path, key)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr gets only the error line
    @pytest.mark.parametrize("flags,names", [
        (["--lowercase", "nope"], "lowercase"), (["--batch-size", -1], "batch_size"),
        (["--batch-size", 0], "batch_size"), (["--validate-every", 0], "validate_every"),
        (["--d-model", "abc"], "d-model"), (["--lr", "1e300"], "non-finite")])
    def test_bad_flag(self, train_args, tmp_path, capsys, flags, names):
        self.fails_with_one_line(train_args + flags, capsys, tmp_path, names)

    @pytest.mark.parametrize("config,key,value", [('{"decode_max_len": null}', "decode_max_len", None),
                                                  ('{"lr": 1}', "lr", 1.0)])
    def test_accepted_config_value(self, train_args, tmp_path, capsys, config, key, value):
        path = tmp_path / "run.json"
        path.write_text(config)
        assert run(train_args + ["--config", path]) == 0
        assert capsys.readouterr().err == ""
        stored = load_checkpoint(tmp_path / "model.ckpt")[3][key]
        assert stored == value and type(stored) is type(value)


JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                        st.just(float("nan")), st.text(max_size=6))
# Values of the key's own type are drawn often, so that a run gets past the
# type check and reaches each dataclass's own checks.
TYPED_VALUES = {"int": st.integers(-2, 4), "float": st.floats() | st.integers(-2, 4),
                "str": st.sampled_from(["greedy", "beam", "vanilla", "trrgen_concat"]),
                "bool": st.booleans(), "int | None": st.none() | st.integers(-2, 4)}
SETTING_ITEMS = st.sampled_from(sorted(SETTINGS_AT_ORIGIN)).flatmap(lambda key: st.tuples(
    st.just(key), TYPED_VALUES[SETTINGS_AT_ORIGIN[key][1]] | JSON_VALUES))


@settings(max_examples=200, deadline=None)
@given(st.lists(SETTING_ITEMS, max_size=6).map(dict))
def test_any_config_file_builds_or_is_one_error_line(data):
    """The config layer either builds all five configs or raises an error
    `main` reports as a single `error:` line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        try:
            cfg = cli.load_settings(path, {})
            built = [cli.build(cls, cfg, **({"vocab_size": 40} if cls is ModelConfig else {}))
                     for cls in COMPONENTS]
        except cli.REPORTED_ERRORS as exc:
            assert "\n" not in str(exc)
        else:
            assert [type(c) for c in built] == list(COMPONENTS)


GOOD_BATCH_LINE = st.fixed_dictionaries({
    "review": st.lists(st.sampled_from(["love", "app", "crash", "⟨sos⟩", "!"]), min_size=1)
              .map(" ".join) | st.text(min_size=1, max_size=8),
    "rating": st.integers(1, 5), "category": st.sampled_from(["GAME", "TOOLS"])}).map(
        lambda obj: json.dumps(obj, ensure_ascii=False).encode())
BLANK_LINE = st.sampled_from([b"", b"  ", b"\t", b"\r"])
ODD_FIELD = st.sampled_from(["love it", " ", "", "GAME", "FOO"]) | st.integers(0, 6) | JSON_VALUES
BAD_BATCH_LINE = st.one_of(
    st.fixed_dictionaries({}, optional={"review": ODD_FIELD, "rating": ODD_FIELD,
                                        "category": ODD_FIELD})
    .map(lambda obj: json.dumps(obj, ensure_ascii=False).encode()),
    st.sampled_from([b"{", b"null", b"[]", b'"x"']), st.text(max_size=12).map(str.encode),
    st.binary(max_size=6))


@settings(max_examples=100, deadline=None)
@given(st.lists(GOOD_BATCH_LINE | BLANK_LINE, max_size=4), st.none() | BAD_BATCH_LINE,
       st.integers(0, 4), st.booleans())
def test_any_batch_file_generates_or_is_one_error_line(session_checkpoint, lines, odd, at,
                                                       newline):
    """`generate --batch` either answers every non-blank line with one JSON
    line, or exits 1 with a single `error:` line and no traceback."""
    if odd is not None:
        lines.insert(at, odd)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "batch.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines) + (b"\n" if newline else b""))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["generate", "--checkpoint", str(session_checkpoint), "--batch", path])
        if code == 0:
            with open(path, encoding="utf-8") as fh:  # lines as the command reads them
                inputs = [line for line in fh if line.strip()]
            answers = out.getvalue().split("\n")
            assert answers.pop() == "" and len(answers) == len(inputs)
            assert all(set(json.loads(a)) == {"input", "response"} for a in answers)
            assert err.getvalue() == ""
        else:
            assert code == 1
            errors = err.getvalue().splitlines()
            assert len(errors) == 1 and errors[0].startswith("error: "), errors
            assert "Traceback" not in err.getvalue()


def flag_of(key):
    return "--" + key.replace("_", "-")


FLAG_TEXT = {"int": st.integers(-1, 6).map(str),
             "float": st.sampled_from(["0", "0.5", "1", "2.5", "-1", "11", "1e400", "nan"]),
             "str": st.sampled_from(["greedy", "beam", "vanilla", "sampling"]),
             "bool": st.sampled_from(["true", "no", "1", "maybe"]),
             "int | None": st.integers(-1, 6).map(str)}
MALFORMED_TEXT = st.sampled_from(["", " ", "abc", "1.5", "0x10", "null", "-", "--x"]) | st.text(
    max_size=5)


def one_in_four(rare, common):
    return st.integers(0, 3).flatmap(lambda i: rare if i == 0 else common)


def flag_value(key):
    """A flag's text for `key`: one time in four malformed, else of the key's
    own type, valid or out of range."""
    return one_in_four(MALFORMED_TEXT, FLAG_TEXT[SETTINGS_AT_ORIGIN[key][1]])


def command_flags(commands):
    """A command from `commands`; up to four flags for settings it takes; and
    one time in four a flag for a setting it does not take, with a value of
    the key's own type, else None."""
    return st.sampled_from(commands).flatmap(lambda command: st.tuples(
        st.just(command),
        st.lists(st.sampled_from(sorted(ACCEPTED[command])).flatmap(
            lambda key: st.tuples(st.just(flag_of(key)), flag_value(key))), max_size=4).map(dict),
        one_in_four(st.sampled_from(FOREIGN[command]).flatmap(lambda key: st.tuples(
            st.just(flag_of(key)), FLAG_TEXT[SETTINGS_AT_ORIGIN[key][1]])), st.none())))


def assert_foreign_flag_named(errors, command, flag):
    """The run ended at the flag check, unless argparse had already refused
    a malformed value (such as `--x`) of a flag the command takes."""
    if not errors[0].startswith(f"error: trrgen {command}: argument "):
        assert errors == [f"error: {command} does not accept {flag}"]


@pytest.fixture(scope="session")
def held_out_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("held_out") / "test.jsonl"
    write_jsonl(path, make_records(2, seed=5))
    return path


@pytest.fixture(scope="session")
def session_files(session_checkpoint, held_out_corpus):
    """The session checkpoint, the corpus and vocabulary it was trained from,
    and a two-review held-out corpus."""
    return SimpleNamespace(checkpoint=session_checkpoint, test=held_out_corpus,
                           corpus=session_checkpoint.parent / "corpus.jsonl",
                           vocab=session_checkpoint.parent / "vocab.json")


def missing_files(tmp_path):
    missing = tmp_path / "missing"
    return SimpleNamespace(checkpoint=missing, test=missing, corpus=missing, vocab=missing)


# Small model and one epoch, so that a run is quick unless a later flag
# overrides them.
TINY_MODEL = ["--d-model", "8", "--d-ff", "16", "--n-heads", "2", "--epochs", "1",
              "--batch-size", "4"]


def command_line(command, files, out):
    """A quick run of `command` on `files`, writing `out` where it writes a
    file (`report-ads` prints its TSV instead)."""
    return [str(a) for a in {
        "preprocess": ["preprocess", "--input", files.corpus, "--output", out],
        "report-ads": ["report-ads", "--input", files.corpus],
        "build-vocab": ["build-vocab", "--input", files.corpus, "--output", out],
        "train": ["train", "--train", files.corpus, "--vocab", files.vocab, "--output", out,
                  *TINY_MODEL],
        "generate": ["generate", "--checkpoint", files.checkpoint, "--review", "love this app",
                     "--rating", "4", "--category", "TOOLS"],
        "evaluate": ["evaluate", "--checkpoint", files.checkpoint, "--test", files.test],
        "ablate": ["ablate", "--data", files.corpus, "--variants", "trrgen_order",
                   "--train-ratio", "0.6", "--valid-ratio", "0.2", "--test-ratio", "0.2",
                   *TINY_MODEL, "--decode-max-len", "4"]}[command]]


# `command_line`'s ablate split, since the three ratios must sum to 1
ABLATE_RATIOS = {"train_ratio": "0.6", "valid_ratio": "0.2", "test_ratio": "0.2"}


def valid_text(key):
    """A valid flag value for `key`: its default, 4 for `decode_max_len`, or
    a split ratio of `command_line`'s ablate run."""
    default = SETTINGS_AT_ORIGIN[key][0]
    if key in ABLATE_RATIOS:
        return ABLATE_RATIOS[key]
    return "4" if default is None else "true" if default is True else str(default)


class TestFlagsPerCommand:
    def test_table_sizes(self):
        """Seven commands by 29 settings: 59 pairs are taken, 144 are not."""
        assert len(ACCEPTED) == 7 and len(ACCEPTED_PAIRS) == 59 and len(FOREIGN_PAIRS) == 144

    @pytest.mark.parametrize("command,key", FOREIGN_PAIRS)
    def test_foreign_flag_is_one_error_line(self, session_files, tmp_path, capsys, command, key):
        """A flag for a setting the command does not take, even with a valid
        value, ends the run before it writes anything."""
        out = tmp_path / "out"
        args = command_line(command, session_files, out)
        args += ["--output", str(out)] if command == "report-ads" else []
        code = run(args + [flag_of(key), valid_text(key)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [f"error: {command} does not accept {flag_of(key)}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command,key", ACCEPTED_PAIRS)
    def test_accepted_flag_reaches_the_input_files(self, tmp_path, capsys, command, key):
        """Each flag a command takes passes the flag check and the settings
        checks: with its input files missing, the run ends at the first one."""
        files = missing_files(tmp_path)
        code = run(command_line(command, files, tmp_path / "out") + [flag_of(key), valid_text(key)])
        assert_one_error_line(code, capsys, "No such file", str(files.corpus))

    @pytest.mark.parametrize("command", sorted(ACCEPTED))
    def test_shared_config_with_every_setting_runs(self, session_files, tmp_path, capsys,
                                                   command):
        """A `--config` file may hold any setting, for any command."""
        cfg = tmp_path / "shared.json"
        cfg.write_text(json.dumps({**DEFAULTS, "d_model": 8, "d_ff": 16, "n_heads": 2,
                                   "epochs": 1, "batch_size": 4, "decode_max_len": 4}))
        assert run(command_line(command, session_files, tmp_path / "out")
                   + ["--config", str(cfg)]) == 0
        assert "error:" not in capsys.readouterr().err


GOOD_CORPUS_LINE = jsonl_line(ReviewRecord("a", "GAME", 3, "love it", "thanks")).encode()
GOOD_BATCH_LINE_TEXT = b'{"review": "love it", "rating": 3, "category": "GAME"}'
NOT_UTF8 = b'{"review": "caf\xff"}'
# Per reader: the command line, with {bad} the file under test and {out} an
# output path, and per case the bad file's bytes and the words its one error
# line holds.
READERS = {
    "config": (["build-vocab", "--input", "{corpus}", "--output", "{out}", "--config", "{bad}"],
               {"malformed": (b"{bad", ["{bad}: malformed JSON"]),
                "not-utf8": (b'{"min_freq": 1,\n "seed": "\xff"}', ["{bad}:2: not UTF-8 text"])}),
    "vocab": (["train", "--train", "{corpus}", "--vocab", "{bad}", "--output", "{out}",
               "--epochs", "1"],
              {"malformed": (b"[bad", ["{bad}: malformed JSON"]),
               "not-utf8": (b'["\xff"]', ["{bad}:1: not UTF-8 text"]),
               "duplicate": (json.dumps([corpus.PAD, corpus.UNK, corpus.SOS, corpus.EOS, "a", "a"])
                             .encode(), ["{bad}: duplicate token in vocabulary"]),
               "misplaced": (json.dumps([corpus.UNK, corpus.PAD, corpus.SOS, corpus.EOS]).encode(),
                             ["{bad}: special token", "missing or misplaced"])}),
    "input": (["preprocess", "--input", "{bad}", "--output", "{out}"],
              {"not-utf8": (GOOD_CORPUS_LINE + b"\n" + NOT_UTF8 + b"\n",
                            ["{bad}:2: not UTF-8 text"]),
               "malformed": (GOOD_CORPUS_LINE + b"\n\n{bad\n", ["{bad}:3: malformed JSON"]),
               # json raises RecursionError past its nesting limit, and a
               # plain ValueError for an integer past Python's digit limit
               "too-deep": (b"[" * 100_000, ["{bad}:1: malformed JSON"]),
               "too-many-digits": (b'{"rating": ' + b"1" * 5_000 + b"}",
                                   ["{bad}:1: malformed JSON"]),
               "not-utf8-cr": (GOOD_CORPUS_LINE + b"\r" + GOOD_CORPUS_LINE + b"\r" + NOT_UTF8,
                               ["{bad}:3: not UTF-8 text"])}),
    "test": (["evaluate", "--checkpoint", "{checkpoint}", "--test", "{bad}"],
             {"not-utf8-crlf": (GOOD_CORPUS_LINE + b"\r\n" + NOT_UTF8,
                                ["{bad}:2: not UTF-8 text"])}),
    "batch": (["generate", "--checkpoint", "{checkpoint}", "--batch", "{bad}"],
              {"not-utf8": (GOOD_BATCH_LINE_TEXT + b"\n" + NOT_UTF8 + b"\n",
                            ["{bad}:2: not UTF-8 text"]),
               "not-an-object": (GOOD_BATCH_LINE_TEXT + b"\n[1]\n",
                                 ["{bad}:2: expected an object"]),
               "missing-key": (GOOD_BATCH_LINE_TEXT + b'\n{"review": "x", "rating": 3}\n',
                               ["{bad}:2: expected an object with review, rating and category"])}),
    "blocklist": (["preprocess", "--input", "{corpus}", "--output", "{out}",
                   "--blocklist", "{bad}"],
                  {"not-utf8": (b"a b c d e\n caf\xff x y z w\n", ["{bad}:2: not UTF-8 text"])}),
}


@pytest.mark.parametrize("reader,case", [(reader, case) for reader, (_, cases) in READERS.items()
                                         for case in cases])
def test_bad_file_is_one_error_line_naming_it(session_files, tmp_path, capsys, reader, case):
    """A file that is not UTF-8 text, is not the JSON it should hold or holds
    a bad vocabulary ends the run in one `error:` line that names the file
    (and the line, for a file read line by line), and writes nothing."""
    argv, cases = READERS[reader]
    content, words = cases[case]
    bad, out = tmp_path / f"{reader}.bad", tmp_path / "out"
    bad.write_bytes(content)
    names = {"bad": bad, "out": out, "corpus": session_files.corpus,
             "checkpoint": session_files.checkpoint}
    code = run([arg.format(**names) for arg in argv])
    assert_one_error_line(code, capsys, *(word.format(bad=bad) for word in words))
    assert not out.exists()


# Per reader: the command line, with {file} the file under test and {out} an
# output path, and that file's bytes from the session files.
READ_AFTER_A_BYTE_ORDER_MARK = {
    "input": (["preprocess", "--input", "{file}", "--output", "{out}"],
              lambda files: files.corpus.read_bytes()),
    "config": (["build-vocab", "--input", "{corpus}", "--output", "{out}", "--config", "{file}"],
               lambda files: b'{"min_freq": 1}'),
    "vocab": (["train", "--train", "{corpus}", "--vocab", "{file}", "--output", "{out}",
               *TINY_MODEL], lambda files: files.vocab.read_bytes()),
    "batch": (["generate", "--checkpoint", "{checkpoint}", "--batch", "{file}"],
              lambda files: GOOD_BATCH_LINE_TEXT + b"\n" + GOOD_BATCH_LINE_TEXT + b"\n"),
}


@pytest.mark.parametrize("reader", READ_AFTER_A_BYTE_ORDER_MARK)
def test_byte_order_mark_is_dropped(session_files, tmp_path, capsys, reader):
    """A file that starts with a UTF-8 byte-order mark gives the run, its
    output and its written file of the same file without the mark."""
    argv, content = READ_AFTER_A_BYTE_ORDER_MARK[reader]
    file, out, runs = tmp_path / reader, tmp_path / "out", []
    names = {"file": file, "out": out, "corpus": session_files.corpus,
             "checkpoint": session_files.checkpoint}
    for prefix in (b"", codecs.BOM_UTF8):
        file.write_bytes(prefix + content(session_files))
        code = run([arg.format(**names) for arg in argv])
        runs.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert runs[0][0] == 0 and runs[0][1].err == ""
    assert runs[1] == runs[0]


class TestTrainingSettingsFirst:
    """`train` and `ablate` check their settings before they open a file."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("flags,words", [
        (["--d-ff", "0"], ["error: d_ff must be >= 1, got 0"]),
        (["--dropout", "1.5"], ["dropout must be"]),
        (["--n-heads", "3"], ["n_heads must"]),
        (["--epochs", "0"], ["epochs must be"]),
        (["--max-response-tokens", "200"],
         ["error: --max-response-tokens 200 needs --max-tgt-len 199 or more, got 120"]),
        (["--max-tgt-len", "50"],
         ["error: --max-response-tokens 120 needs --max-tgt-len 119 or more, got 50"]),
        (["--seed", "-1"], ["error: seed must be >= 0, got -1"])])
    def test_bad_setting_with_missing_files(self, tmp_path, capsys, command, flags, words):
        files = missing_files(tmp_path)
        out = tmp_path / "out"
        assert_one_error_line(run(command_line(command, files, out) + flags), capsys, *words)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_env_seed_with_missing_files(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv("TRRGEN_SEED", "-1")
        files, out = missing_files(tmp_path), tmp_path / "out"
        assert_one_error_line(run(command_line(command, files, out)), capsys,
                              "error: seed must be >= 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("flags,words", [
        (["--decode-max-len", "500"], ["error: decode max_len 500 exceeds max_tgt_len - 1 = 119"]),
        (["--train-ratio", "0.3"], ["error: split ratios must sum to 1, got (0.3, 0.1, 0.1)"]),
        (["--train-ratio", "-0.5", "--valid-ratio", "0.3", "--test-ratio", "1.2"],
         ["error: split ratios must each lie in [0, 1], got (-0.5, 0.3, 1.2)"])])
    def test_ablate_decode_and_split_settings_with_missing_data(self, tmp_path, capsys, flags,
                                                               words):
        """A decode length or split ratio that `ablate` cannot use ends the
        run before the corpus is read, not after it or the first variant's
        training."""
        missing = tmp_path / "missing.jsonl"
        assert_one_error_line(run(["ablate", "--data", missing] + flags), capsys, *words)

    def test_longest_response_fills_max_tgt_len(self, tmp_path, capsys):
        """A response cut to `max_response_tokens` is a decoder input of one
        position fewer: `--max-tgt-len 10` trains with 11 response tokens, and
        12 are rejected before the corpus is read."""
        records = make_records(8, seed=4)
        records[0].response_text = " ".join(["thanks"] * 30)
        data, vocab, ckpt = tmp_path / "long.jsonl", tmp_path / "vocab.json", tmp_path / "m.ckpt"
        write_jsonl(data, records)
        assert run(["build-vocab", "--input", data, "--output", vocab, "--min-freq", 1]) == 0
        capsys.readouterr()
        train = ["train", "--train", data, "--vocab", vocab, "--output", ckpt, *TINY_MODEL,
                 "--max-tgt-len", 10]
        assert_one_error_line(run(train + ["--max-response-tokens", 12]), capsys,
                              "--max-tgt-len 11 or more, got 10")
        assert not ckpt.exists()
        assert run(train + ["--max-response-tokens", 11]) == 0
        assert capsys.readouterr().err == "" and ckpt.exists()

    @pytest.mark.parametrize("output", ["missing/model.ckpt", "a_file/model.ckpt", "a_dir"])
    def test_output_that_cannot_take_the_checkpoint(self, session_files, tmp_path, capsys,
                                                    output):
        """An `--output` in a missing folder or in a file, or one that is a
        folder, ends the run before the corpus is read and any epoch runs,
        in one line naming it."""
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_dir").mkdir()
        out = tmp_path / output
        code = run(command_line("train", session_files, out))
        assert_one_error_line(code, capsys, f"error: --output {out}: not a file path in a "
                                            "writable directory")
        assert not (tmp_path / "missing").exists() and list((tmp_path / "a_dir").iterdir()) == []


@settings(max_examples=200, deadline=None)
@given(command_flags(["generate", "evaluate"]))
def test_any_settings_flags_run_or_are_one_error_line(session_files, drawn):
    """`generate` and `evaluate` with any flags for the settings they take,
    each value valid or malformed, either exit 0 with output or exit 1 with
    a single `error:` line and no traceback; a flag for a setting they do not
    take always ends in exit 1 and names that flag."""
    command, flags, foreign = drawn
    args = command_line(command, session_files, None)
    for flag, text in [*flags.items(), *([foreign] if foreign else [])]:
        args += [flag, text]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    event(f"{command} exit {code}")
    if code == 0:
        assert out.getvalue() and err.getvalue() == "" and foreign is None
    else:
        assert code == 1
        errors = err.getvalue().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
        assert "Traceback" not in err.getvalue() and out.getvalue() == ""
        if foreign:
            assert_foreign_flag_named(errors, command, foreign[0])


@settings(max_examples=200, deadline=None)
@given(command_flags(["train", "ablate", "preprocess", "report-ads", "build-vocab"]))
def test_any_settings_flags_train_or_are_one_error_line(session_files, drawn):
    """`train`, `ablate` and the corpus commands with any flags for the
    settings they take, each value valid or malformed, either exit 0 with
    output or exit 1 with a single `error:` line, no traceback and no output
    file; a flag for a setting they do not take always ends in exit 1 and
    names that flag. `report-ads` output is TSV lines, none when no response
    sentence is `--ad-ngram-n` tokens long."""
    command, flags, foreign = drawn
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        args = command_line(command, session_files, out)
        for flag, text in [*flags.items(), *([foreign] if foreign else [])]:
            args += [flag, text]
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            code = main(args)
        event(f"{command} exit {code}")
        if code == 0:
            assert "Traceback" not in err.getvalue() and foreign is None
            if command == "report-ads":
                for line in stdout.getvalue().splitlines():
                    count, expression, flagged = line.split("\t")
                    assert int(count) >= 1 and expression and flagged in ("0", "1"), line
            else:
                assert stdout.getvalue()
            assert command in ("report-ads", "ablate") or os.path.exists(out)
        else:
            assert code == 1
            errors = err.getvalue().splitlines()
            assert len(errors) == 1 and errors[0].startswith("error: "), errors
            assert "Traceback" not in err.getvalue() and not os.path.exists(out)
            if foreign:
                assert_foreign_flag_named(errors, command, foreign[0])
