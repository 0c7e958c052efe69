"""End-to-end walkthrough: raw records -> normalized corpus -> vocabulary ->
trained model -> generated responses -> BLEU report.

Runs in well under a minute on a laptop CPU.
"""

import random

from trrgen.corpus import (ReviewRecord, PreprocessConfig, normalize_corpus,
                           build_vocabulary, encode_record, tokenize)
from trrgen.model import ModelConfig
from trrgen.training import TrainOptions, train_model
from trrgen.generation import DecodeConfig, generate, postprocess
from trrgen.evaluation import corpus_bleu

# --- a tiny hand-made corpus with some PII to normalize -----------------
rng = random.Random(0)
pairs = [
    ("this app crashes on startup", "sorry about that, a fix is coming"),
    ("love the new design", "thanks for the kind words"),
    ("battery drain is terrible", "we are working on battery usage"),
    ("ads everywhere, please stop", "you can disable ads in settings"),
]
records = []
for i in range(24):
    review, response = pairs[i % len(pairs)]
    if i % 5 == 0:
        response += ", email us at Support@Example.com"
    records.append(ReviewRecord("demo", rng.choice(["TOOLS", "GAME"]),
                                rng.randint(1, 5), review, response))

pre = PreprocessConfig()
records = normalize_corpus(records, pre)
print("normalized sample response:", records[0].response_text)

vocab = build_vocabulary(records, min_freq=1)
print("vocabulary size:", len(vocab), "| categories:", vocab.categories)

encoded = [encode_record(r, vocab, pre) for r in records]
config = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=4, n_layers=1,
                     d_ff=64, max_tgt_len=40, dropout=0.0, seed=0)
result = train_model(encoded, [], config,
                     TrainOptions(lr=2e-3, batch_size=8, epochs=200,
                                  seed=0, stop_loss=0.05))
print(f"trained for {len(result.log)} epochs, "
      f"final loss {result.log[-1]['train_loss']:.3f}")

decode = DecodeConfig()
for rec, enc in zip(records[:4], encoded[:4]):
    text = postprocess(generate(enc, result.params, config, decode), vocab)
    print(f"  [{rec.category}/{rec.rating}*] {rec.review_text!r} -> {text!r}")

cands = [tokenize(postprocess(generate(e, result.params, config, decode), vocab))
         for e in encoded]
refs = [tokenize(r.response_text) for r in records]
print("training-set BLEU-4:", round(corpus_bleu(cands, refs).bleu, 2))
