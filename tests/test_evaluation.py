import json
import math
import random

import pytest

from trrgen.corpus import EOS_ID, PreprocessConfig, build_vocabulary, tokenize
from trrgen.evaluation import (modified_precision, brevity_penalty, corpus_bleu,
                               random_selection_baseline, EvaluationError,
                               format_report_table, evaluate_model)
from trrgen.generation import DecodeConfig, generate, postprocess
from trrgen.model import ModelConfig, init_parameters

from bleu_oracle import oracle_bleu, oracle_precision_counts
from conftest import encode_corpus, make_records


def random_corpus(rng, n_pairs, vocab=("a", "b", "c", "d", "e")):
    candidates, references = [], []
    for _ in range(n_pairs):
        candidates.append([rng.choice(vocab) for _ in range(rng.randint(0, 9))])
        references.append([rng.choice(vocab) for _ in range(rng.randint(1, 9))])
    return candidates, references


class TestModifiedPrecision:
    def test_perfect_match(self):
        sent = "we will fix this soon".split()
        for n in range(1, 5):
            assert modified_precision([sent], [sent], n) == 1.0

    def test_clipping_hand_count(self):
        cand = "the the the the the the the".split()
        ref = "the cat is on the mat".split()
        assert modified_precision([cand], [ref], 1) == pytest.approx(2 / 7)

    def test_short_candidate_contributes_nothing(self):
        # 2-token candidate has no 4-grams; only the second pair counts
        p4 = modified_precision([["a", "b"], list("wxyz")],
                                [["a", "b"], list("wxyz")], 4)
        assert p4 == 1.0

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            modified_precision([["a"]], [], 1)

    def test_order_below_one_rejected(self):
        """Order 0 used to count empty n-grams, here a precision of 1.0."""
        with pytest.raises(EvaluationError, match="^n-gram order must be at least 1, got 0$"):
            modified_precision([["a"]], [["a"]], 0)


class TestBrevityPenalty:
    def test_longer_candidate(self):
        assert brevity_penalty(10, 8) == 1.0

    def test_equal_length(self):
        assert brevity_penalty(8, 8) == 1.0

    def test_shorter_candidate(self):
        assert brevity_penalty(3, 4) == pytest.approx(math.exp(-1 / 3), abs=1e-12)

    def test_empty_candidate(self):
        assert brevity_penalty(0, 4) == 0.0


class TestCorpusBleu:
    def test_identity_scores_100(self):
        refs = [s.split() for s in ("thanks for the feedback friend",
                                    "we will look into that issue")]
        report = corpus_bleu(refs, refs)
        assert report.bleu == pytest.approx(100.0)
        assert report.brevity_penalty == 1.0

    def test_disjoint_vocabularies_score_zero(self):
        report = corpus_bleu([list("abcde")], [list("vwxyz")])
        assert report.bleu == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EvaluationError):
            corpus_bleu([], [])

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_order_below_one_rejected(self, max_n):
        """Order 0 used to divide by zero, and -1 to score 100 over no precision."""
        with pytest.raises(EvaluationError, match=f"^n-gram order must be at least 1, got {max_n}"):
            corpus_bleu([["a"]], [["a"]], max_n=max_n)

    def test_matches_oracle_on_toy_corpus(self):
        cands = [["the", "cat", "sat"], ["a", "dog", "ran", "far"],
                 ["b", "b", "b"], ["the", "cat"], ["x"]]
        refs = [["the", "cat", "sat", "down"], ["a", "dog", "ran"],
                ["b", "c", "b"], ["the", "cat"], ["y"]]
        report = corpus_bleu(cands, refs)
        expected_score, expected_ps, expected_bp = oracle_bleu(cands, refs)
        assert report.bleu == pytest.approx(expected_score, abs=1e-9)
        assert report.precisions == pytest.approx(expected_ps, abs=1e-12)
        assert report.brevity_penalty == pytest.approx(expected_bp, abs=1e-12)

    def test_matches_oracle_on_200_random_corpora(self):
        rng = random.Random(42)
        for trial in range(200):
            cands, refs = random_corpus(rng, rng.randint(1, 6))
            report = corpus_bleu(cands, refs)
            expected_score, expected_ps, _ = oracle_bleu(cands, refs)
            # exact clipped-count equality per order
            for n, p in enumerate(report.precisions, start=1):
                matched, total = oracle_precision_counts(cands, refs, n)
                assert p == pytest.approx(matched / total if total else 0.0, abs=1e-12)
            assert report.bleu == pytest.approx(expected_score, abs=1e-9)

    def test_pair_order_invariance(self):
        rng = random.Random(7)
        cands, refs = random_corpus(rng, 6)
        base = corpus_bleu(cands, refs)
        perm = list(range(6))
        rng.shuffle(perm)
        shuffled = corpus_bleu([cands[i] for i in perm], [refs[i] for i in perm])
        assert shuffled.bleu == pytest.approx(base.bleu, abs=1e-12)

    def test_duplication_invariance(self):
        rng = random.Random(9)
        cands, refs = random_corpus(rng, 4)
        base = corpus_bleu(cands, refs)
        doubled = corpus_bleu(cands + cands, refs + refs)
        assert doubled.bleu == pytest.approx(base.bleu, abs=1e-12)
        assert doubled.precisions == pytest.approx(base.precisions, abs=1e-12)

    def test_monotone_clipping(self):
        cand = ["the", "the", "cat"]
        low = modified_precision([cand], [["the", "cat"]], 1)
        high = modified_precision([cand], [["the", "the", "cat"]], 1)
        assert high >= low

    def test_smoothing_only_behind_flag(self):
        cands = [["a", "b"]]
        refs = [["a", "b"]]
        plain = corpus_bleu(cands, refs)            # p3, p4 have no grams -> 0
        smoothed = corpus_bleu(cands, refs, smooth=True)
        assert plain.bleu == 0.0
        assert smoothed.bleu > 0.0


class TestRandomSelectionBaseline:
    def test_single_pool(self):
        out = random_selection_baseline(["only reply"], 5, seed=0)
        assert out == ["only reply"] * 5

    def test_seed_deterministic(self):
        pool = [f"reply {i}" for i in range(10)]
        assert random_selection_baseline(pool, 20, 3) == \
            random_selection_baseline(pool, 20, 3)

    def test_empty_pool_rejected(self):
        with pytest.raises(EvaluationError):
            random_selection_baseline([], 3, 0)


def test_report_json_and_table():
    report = corpus_bleu([["a", "b"]], [["a", "b"]], label="vanilla")
    line = report.to_json()
    assert '"label": "vanilla"' in line and '"bleu"' in line
    table = format_report_table([report])
    assert "vanilla" in table and "BLEU-4" in table


class TestEvaluateModel:
    """`evaluate_model` decodes in groups and reports how many responses
    stopped at the length cap."""

    @staticmethod
    def setup(eos_bias):
        records = make_records(8, seed=1)
        vocab = build_vocabulary(records, min_freq=1)
        encoded, responses = encode_corpus(records, vocab, PreprocessConfig())
        config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, d_ff=16,
                             max_tgt_len=8, dropout=0.0, seed=3)
        params = init_parameters(config, seed=0)
        params.out_proj.values *= 3
        params.out_bias.values[EOS_ID] += eos_bias
        return params, config, vocab, encoded, responses

    @pytest.mark.parametrize("eos_bias,frac", [(100.0, 0.0), (-1e9, 1.0)])
    @pytest.mark.parametrize("decode", [DecodeConfig(), DecodeConfig(strategy="beam"),
                                        DecodeConfig(strategy="beam", max_len=3)])
    def test_length_capped_frac_at_the_extremes(self, eos_bias, frac, decode):
        params, config, vocab, encoded, responses = self.setup(eos_bias)
        report = evaluate_model(params, config, vocab, encoded, responses, decode)
        assert report.extra == {"n_pairs": 8, "length_capped_frac": frac}

    @pytest.mark.parametrize("decode,frac", [(DecodeConfig(), 0.75),
                                             (DecodeConfig(strategy="beam", beam_width=3), 0.25)])
    def test_mixed_length_capped_frac_and_outputs_match_one_review_at_a_time(self, decode,
                                                                             frac):
        """Some reviews stop on ⟨eos⟩ and some at the cap; a response is
        capped exactly when decoding it alone fills all max_len steps."""
        params, config, vocab, encoded, responses = self.setup(2.0)
        report = evaluate_model(params, config, vocab, encoded, responses, decode,
                                label="mixed")
        alone = [generate(rec, params, config, decode) for rec in encoded]
        cap = config.max_tgt_len - 1
        assert report.extra["length_capped_frac"] == frac
        assert frac == sum(len(ids) == cap for ids in alone) / len(alone)
        candidates = [tokenize(postprocess(ids, vocab)) for ids in alone]
        expected = corpus_bleu(candidates, [tokenize(r) for r in responses], label="mixed")
        assert (report.bleu, report.precisions, report.candidate_length) == \
            (expected.bleu, expected.precisions, expected.candidate_length)
        keys = set(json.loads(report.to_json()))
        assert keys == {"label", "bleu", "p1", "p2", "p3", "p4", "brevity_penalty",
                        "candidate_length", "reference_length", "n_pairs",
                        "length_capped_frac"}
        assert report.extra["n_pairs"] == 8
