"""Acceptance suite: one test per gate criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The training-based criteria use tiny configurations and finish in a
few minutes on a laptop CPU.
"""

import dataclasses
import math
import random
import time

import numpy as np
import pytest

import trrgen.model as M
from trrgen.corpus import (AdConfig, PreprocessConfig, ReviewRecord, EncodedRecord,
                           build_vocabulary, encode_record, normalize_text,
                           tokenize, ad_report, filter_ads, mid_ngram,
                           split_sentences, EOS_ID)
from trrgen.tensor import Tensor, grad_check, _accum
from trrgen.training import TrainOptions, train_model
from trrgen.generation import DecodeConfig, beam_decode, generate, postprocess
from trrgen.evaluation import corpus_bleu, brevity_penalty, random_selection_baseline
from trrgen.checkpoint import save_checkpoint, load_checkpoint

from bleu_oracle import oracle_bleu, oracle_precision_counts
from decode_reference import greedy_decode as reference_greedy
from conftest import (category_corpus, rating_corpus, encode_corpus,
                      build_tiny_setup, make_records)


def report(name, detail):
    print(f"PASS {name}: {detail}")


def grad_check_setup():
    config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=4, n_layers=1,
                           d_ff=16, max_tgt_len=20,
                           dropout=0.0, fusion_variant="trrgen_concat", seed=0)
    params = M.init_parameters(config, seed=1)
    batch = [EncodedRecord([10, 11, 12], [2, 13, 14, 3], 4, 9),
             EncodedRecord([15, 16], [2, 17, 3], 5, 9)]
    return config, params, batch


def test_c01_gradient_correctness():
    config, params, batch = grad_check_setup()

    def build(tape):
        return M.forward_training(batch, params, config, tape)

    start = time.time()
    err = grad_check(build, params.all_tensors())
    elapsed = time.time() - start
    assert err <= 1e-4
    assert elapsed <= 60.0

    # negative control: corrupt one backward rule and require a loud failure
    real_relu = M.relu
    def corrupted_relu(a, tape=None):
        out = real_relu(a, None)
        if tape is not None:
            mask = a.values > 0
            def bwd():
                if out.grad is None:
                    return
                _accum(a, out.grad * mask * 0.5)
            tape.record(bwd)
        return out
    M.relu = corrupted_relu
    try:
        bad_err = grad_check(build, params.all_tensors())
    finally:
        M.relu = real_relu
    assert bad_err > 1e-2
    report("criterion 1 gradient correctness",
           f"max rel err {err:.2e} in {elapsed:.1f}s; corrupted rule err {bad_err:.2e}")


def test_c02_decoder_causality():
    config, params, _ = grad_check_setup()
    rng = np.random.default_rng(7)
    enc = M.encode_review(EncodedRecord([10, 11, 12, 13], [2, 3], 4, 9),
                          params, config)
    checked = 0
    for _ in range(100):
        t = int(rng.integers(2, 12))
        tgt = list(rng.integers(4, 20, size=t))
        j = int(rng.integers(1, t))
        base = M.decoder_forward(tgt, enc, params, config).values
        perturbed = list(tgt)
        perturbed[j] = (perturbed[j] - 4 + int(rng.integers(1, 16))) % 16 + 4
        got = M.decoder_forward(perturbed, enc, params, config).values
        assert np.array_equal(base[:j], got[:j]), "logits before perturbation changed"
        checked += 1
    report("criterion 2 causality", f"{checked} random perturbations bitwise clean")


def test_c03_positional_encoding_oracle():
    worst = 0.0
    for seq_len, d_model in [(1, 2), (5, 8), (17, 30), (64, 64), (64, 2), (3, 64)]:
        got = M.positional_encoding(seq_len, d_model)
        expected = np.zeros((seq_len, d_model))
        for pos in range(seq_len):
            for i in range(d_model // 2):
                angle = pos / (10000.0 ** (2 * i / d_model))
                expected[pos, 2 * i] = math.sin(angle)
                expected[pos, 2 * i + 1] = math.cos(angle)
        worst = max(worst, float(np.abs(got - expected).max()))
    assert worst <= 1e-12
    report("criterion 3 positional encoding", f"max abs dev {worst:.2e}")


def test_c04_fusion_shape_ledger():
    config, params, _ = grad_check_setup()
    src = [10, 11, 12, 13, 14, 15, 16]
    expected = {"vanilla": 7, "rating_only": 7, "category_only": 8,
                "trrgen_concat": 8, "trrgen_sum": 7, "trrgen_order": 9}
    got = {v: M.embed_review(src, 4, 9, v, params).values.shape[0]
           for v in M.FUSION_VARIANTS}
    assert got == expected
    report("criterion 4 fusion shape ledger",
           "/".join(str(got[v]) for v in M.FUSION_VARIANTS))


def test_c05_feature_sensitivity():
    config, params, _ = grad_check_setup()
    norms = {}
    for variant in M.FUSION_VARIANTS:
        cfg = dataclasses.replace(config, fusion_variant=variant)
        outs = []
        for rating_id in (4, 8):
            rec = EncodedRecord([10, 11, 12], [2, 3], rating_id, 9)
            outs.append(M.encode_review(rec, params, cfg).values)
        norms[variant] = float(np.linalg.norm(outs[0] - outs[1]))
    for variant in ("trrgen_concat", "trrgen_sum", "trrgen_order", "rating_only"):
        assert norms[variant] > 0.0
    for variant in ("vanilla", "category_only"):
        assert norms[variant] == 0.0
    report("criterion 5 feature sensitivity",
           ", ".join(f"{v}={n:.3f}" for v, n in norms.items()))


def test_c06_overfit_memorization():
    pre = PreprocessConfig()
    records = make_records(32, seed=1)
    vocab, config = build_tiny_setup(records, pre, d_model=64, d_ff=128)
    encoded, responses = encode_corpus(records, vocab, pre)
    start = time.time()
    result = train_model(encoded, [], config,
                         TrainOptions(lr=2e-3, batch_size=8, epochs=500,
                                      seed=0, stop_loss=0.02))
    decode = DecodeConfig()
    cands = [tokenize(postprocess(generate(e, result.params, config, decode), vocab))
             for e in encoded]
    refs = [tokenize(r) for r in responses]
    bleu = corpus_bleu(cands, refs).bleu
    elapsed = time.time() - start
    assert bleu >= 95.0
    assert elapsed <= 600.0
    report("criterion 6 overfit memorization",
           f"train BLEU-4 {bleu:.2f} after {len(result.log)} epochs in {elapsed:.0f}s")


def _synthetic_experiment(train_recs, test_recs, variants, seed=0):
    pre = PreprocessConfig()
    vocab, config = build_tiny_setup(train_recs, pre, d_model=32, d_ff=64)
    train_e, _ = encode_corpus(train_recs, vocab, pre)
    test_e, test_resp = encode_corpus(test_recs, vocab, pre)
    refs = [tokenize(r) for r in test_resp]
    decode = DecodeConfig()
    scores = {}
    for variant, epochs in variants.items():
        cfg = dataclasses.replace(config, fusion_variant=variant)
        result = train_model(train_e, [], cfg,
                             TrainOptions(lr=3e-3, batch_size=32, epochs=epochs,
                                          seed=seed, stop_loss=0.05))
        cands = [tokenize(postprocess(generate(e, result.params, cfg, decode), vocab))
                 for e in test_e]
        scores[variant] = corpus_bleu(cands, refs).bleu
    return scores, refs, vocab


def test_c07_synthetic_category_ablation():
    train_recs, test_recs = category_corpus()
    start = time.time()
    variants = {"category_only": 40, "trrgen_concat": 40, "trrgen_order": 40,
                "vanilla": 15}
    scores, refs, _ = _synthetic_experiment(train_recs, test_recs, variants)
    baseline = random_selection_baseline([r.response_text for r in train_recs],
                                         len(test_recs), seed=0)
    scores["random_selection"] = corpus_bleu([tokenize(c) for c in baseline], refs).bleu
    elapsed = time.time() - start
    for variant in ("category_only", "trrgen_concat", "trrgen_order"):
        assert scores[variant] >= 90.0, scores
    assert scores["vanilla"] <= 50.0, scores
    assert scores["random_selection"] <= 40.0, scores
    assert elapsed <= 1200.0
    report("criterion 7 category ablation",
           ", ".join(f"{v}={s:.1f}" for v, s in scores.items()) + f" ({elapsed:.0f}s)")


def test_c08_synthetic_rating_experiment():
    train_recs, test_recs = rating_corpus()
    variants = {"rating_only": 40, "trrgen_concat": 40, "trrgen_sum": 40,
                "vanilla": 15}
    scores, _, _ = _synthetic_experiment(train_recs, test_recs, variants)
    for variant in ("rating_only", "trrgen_concat", "trrgen_sum"):
        assert scores[variant] >= 90.0, scores
    assert scores["vanilla"] <= 50.0, scores
    report("criterion 8 rating experiment",
           ", ".join(f"{v}={s:.1f}" for v, s in scores.items()))


def test_c09_bleu_oracle_equivalence():
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(200):
        n_pairs = rng.randint(1, 6)
        vocab = ("a", "b", "c", "d", "e")
        cands = [[rng.choice(vocab) for _ in range(rng.randint(0, 9))]
                 for _ in range(n_pairs)]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 9))]
                for _ in range(n_pairs)]
        got = corpus_bleu(cands, refs)
        expected_score, expected_ps, expected_bp = oracle_bleu(cands, refs)
        for n, p in enumerate(got.precisions, start=1):
            matched, total = oracle_precision_counts(cands, refs, n)
            oracle_p = matched / total if total else 0.0
            assert p == oracle_p or abs(p - oracle_p) == 0.0
        assert got.brevity_penalty == expected_bp
        worst = max(worst, abs(got.bleu - expected_score))
    assert worst <= 1e-9
    assert abs(brevity_penalty(3, 4) - math.exp(-1.0 / 3.0)) <= 1e-12
    assert brevity_penalty(8, 8) == 1.0 and brevity_penalty(9, 8) == 1.0
    report("criterion 9 BLEU oracle equivalence",
           f"200 corpora, max score dev {worst:.2e}")


def test_c10_numeric_invariants():
    from trrgen.tensor import softmax, layer_norm
    rng = np.random.default_rng(0)
    for _ in range(20):
        # widths >= 4 keep raw row variance far above the layer-norm eps
        x = rng.normal(scale=3.0, size=(rng.integers(1, 9), rng.integers(4, 17)))
        y = softmax(Tensor(x)).values
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) <= 1e-6)
        shifted = softmax(Tensor(x + rng.normal())).values
        assert np.all(np.abs(y - shifted) <= 1e-6)

        n = x.shape[1]
        pre = layer_norm(Tensor(x), Tensor(np.ones(n)), Tensor(np.zeros(n))).values
        assert np.all(np.abs(pre.mean(axis=-1)) <= 1e-6)
        assert np.all(np.abs(pre.var(axis=-1) - 1.0) <= 1e-3)

    config, params, _ = grad_check_setup()
    x = Tensor(rng.normal(size=(6, 8)))
    _, weights = M.multi_head_attention(x, x, M.causal_mask(6),
                                        params.encoder[0].self_attn, None,
                                        d_k=2, return_weights=True)
    for w in weights:
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-6)
        assert np.all(w[np.triu_indices(6, k=1)] <= 1e-9)
    report("criterion 10 numeric invariants", "softmax/layer-norm/attention bounds hold")


def test_c11_preprocessing():
    cfg = PreprocessConfig()
    # golden fixture
    raw = "Email Bob@x.io or https://a.b/c — thanks @bob!"
    golden = "email ⟨email⟩ or ⟨url⟩ — thanks ⟨user_name⟩!"
    assert normalize_text(raw, cfg) == golden
    # idempotence on 100 fuzzed strings
    rng = random.Random(0)
    bits = ["a@b.co", "http://x.io/z", "@usr", "Hi!", "⟨url⟩", "WWW.q.org", "ok."]
    for _ in range(100):
        s = " ".join(rng.choice(bits) for _ in range(rng.randint(0, 8)))
        once = normalize_text(s, cfg)
        assert normalize_text(once, cfg) == once
    # planted 5-gram with exact count
    planted = "zeta eta theta iota kappa"
    records = [ReviewRecord("a", "T", 3, "rev", f"intro words here now. {planted}.")
               for _ in range(10)]
    rep = ad_report(records, AdConfig())
    assert {e.expression: e.count for e in rep.entries}[tuple(planted.split())] == 10
    # unblocked text byte-identical
    keep = "We  LOVE   feedback,   truly!"
    records = [ReviewRecord("a", "T", 3, "rev", f"{keep} {planted}.")]
    out = filter_ads(records, {tuple(planted.split())}, AdConfig())
    assert out[0].response_text == keep + " "
    assert out[0].review_text == "rev"
    report("criterion 11 preprocessing", "golden, idempotence, ad count, byte equality")


def test_c12_checkpoint_round_trip(tmp_path):
    pre = PreprocessConfig()
    records = make_records(8, seed=2)
    vocab, config = build_tiny_setup(records, pre, d_model=16, d_ff=32)
    encoded, _ = encode_corpus(records, vocab, pre)
    result = train_model(encoded, [], config,
                         TrainOptions(lr=2e-3, batch_size=4, epochs=3, seed=0))
    decode = DecodeConfig()
    before = [generate(e, result.params, config, decode) for e in encoded]

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result.params, config, vocab)
    loaded, config2, vocab2, _, _ = load_checkpoint(path)
    for (_, a), (_, b) in zip(result.params.named(), loaded.named()):
        assert np.array_equal(a.values, b.values)
    after = [generate(e, loaded, config2, decode) for e in encoded]
    assert before == after
    report("criterion 12 checkpoint round trip",
           f"{sum(t.values.size for t in loaded.all_tensors())} weights bitwise, "
           f"{len(after)} generations token-identical")


def test_c13_beam_greedy_consistency():
    matched = 0
    for seed in range(50):
        config = M.ModelConfig(vocab_size=14, d_model=8, n_heads=2, n_layers=1,
                               d_ff=16, max_tgt_len=10,
                               dropout=0.0, fusion_variant="vanilla", seed=seed)
        params = M.init_parameters(config, seed=seed)
        rec = EncodedRecord([9 + seed % 3, 10, 11 + seed % 2], [2, 3], 4, 9)
        enc = M.encode_review(rec, params, config)
        reference = reference_greedy(params, config, enc, DecodeConfig())
        greedy = beam_decode(params, config, enc, DecodeConfig())
        beam = beam_decode(params, config, enc,
                           DecodeConfig(strategy="beam", beam_width=1))
        assert greedy == reference and beam == reference, f"seed {seed}"
        matched += 1
    report("criterion 13 beam/greedy consistency", f"{matched}/50 seeds token-identical")
