import json

import pytest

from trrgen.cli import main

from conftest import make_records


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"app_name": r.app_name, "category": r.category,
                                 "rating": r.rating, "review": r.review_text,
                                 "response": r.response_text},
                                ensure_ascii=False) + "\n")


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

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert run(["preprocess", "--input", tmp_path / "nope.jsonl",
                    "--output", tmp_path / "x"]) == 1
        assert capsys.readouterr().err.startswith("error:")


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


class TestBuildVocab:
    def test_deterministic_output(self, corpus_file, tmp_path):
        v1 = tmp_path / "v1.json"
        v2 = tmp_path / "v2.json"
        assert run(["build-vocab", "--input", corpus_file, "--output", v1,
                    "--min-freq", 1]) == 0
        assert run(["build-vocab", "--input", corpus_file, "--output", v2,
                    "--min-freq", 1]) == 0
        assert v1.read_bytes() == v2.read_bytes()


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


class TestTrainGenerateEvaluate:
    def test_train_writes_log_and_checkpoint(self, tmp_path, corpus_file, capsys):
        ckpt, log = train_tiny(tmp_path, corpus_file)
        capsys.readouterr()
        entries = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(entries) == 2
        assert entries[0]["epoch"] == 1 and "train_loss" in entries[0]
        assert ckpt.exists()

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
                "--rating", 5, "--category", "TOOLS", "--dropout", "0.0"]
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
                    '{"review": "love it", "rating": 9, "category": "GAME"}',
                    '{"review": "love it", "rating": 5, "category": "FOO"}']:
            batch.write_text(good + "\n\n" + bad + "\n" + good + "\n")
            assert run(["generate", "--checkpoint", trained, "--batch", batch]) == 1, bad
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {batch}:3: "), (bad, err)
            assert captured.out == "", bad

    def test_generate_max_len_above_model_limit_fails(self, trained, capsys):
        assert run(["generate", "--checkpoint", trained, "--review", "love it",
                    "--rating", 5, "--category", "GAME", "--decode-max-len", 500]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "max_len" in err[0]
        assert captured.out == ""

    def test_evaluate_emits_report(self, trained, corpus_file, capsys):
        assert run(["evaluate", "--checkpoint", trained, "--test", corpus_file]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        for key in ("bleu", "p1", "p2", "p3", "p4", "brevity_penalty"):
            assert key in report

    def test_evaluate_empty_test_fails(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run(["evaluate", "--checkpoint", trained, "--test", empty]) == 1
        assert capsys.readouterr().err.startswith("error:")


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

    def test_unknown_variant_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl(data, make_records(10))
        assert run(["ablate", "--data", data, "--variants", "bogus"]) == 1
        assert capsys.readouterr().err.startswith("error:")


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
