"""Fusion-variant ablation on a synthetic corpus.

Every review is identical and every response is a category-specific template,
so a model can only succeed by exploiting the category feature. Category-aware
variants solve it; the vanilla encoder and a random-selection baseline cannot.
Takes a minute or two on a laptop CPU.
"""

import dataclasses
import random

from trrgen.corpus import (ReviewRecord, PreprocessConfig, build_vocabulary,
                           encode_record, tokenize)
from trrgen.model import ModelConfig
from trrgen.training import TrainOptions, train_model
from trrgen.generation import DecodeConfig, generate, postprocess
from trrgen.evaluation import corpus_bleu, random_selection_baseline, format_report_table

TEMPLATES = {
    "CAT_A": "alpha bravo charlie delta echo foxtrot golf",
    "CAT_B": "hotel india juliet kilo lima mike november",
    "CAT_C": "oscar papa quebec romeo sierra tango uniform",
    "CAT_D": "victor whiskey xray yankee zulu maple cedar",
}

rng = random.Random(0)
train, test = [], []
for cat, resp in TEMPLATES.items():
    for i in range(125):
        rec = ReviewRecord("demo", cat, rng.randint(1, 5),
                           "please fix the app soon", resp)
        (train if i < 100 else test).append(rec)
rng.shuffle(train)
rng.shuffle(test)

pre = PreprocessConfig()
vocab = build_vocabulary(train, min_freq=1)
train_e = [encode_record(r, vocab, pre) for r in train]
test_e = [encode_record(r, vocab, pre) for r in test]
refs = [tokenize(r.response_text) for r in test]
decode = DecodeConfig()

base_config = ModelConfig(vocab_size=len(vocab), d_model=32, n_heads=4,
                          n_layers=1, d_ff=64, max_tgt_len=40,
                          dropout=0.0, seed=0)

reports = []
for variant in ("vanilla", "category_only", "trrgen_concat", "trrgen_order"):
    config = dataclasses.replace(base_config, fusion_variant=variant)
    epochs = 15 if variant == "vanilla" else 40
    result = train_model(train_e, [], config,
                         TrainOptions(lr=3e-3, batch_size=32, epochs=epochs,
                                      seed=0, stop_loss=0.05))
    cands = [tokenize(postprocess(generate(e, result.params, config, decode), vocab))
             for e in test_e]
    reports.append(corpus_bleu(cands, refs, label=variant))

baseline = random_selection_baseline([r.response_text for r in train], len(test), 0)
reports.append(corpus_bleu([tokenize(c) for c in baseline], refs,
                           label="random_selection"))
print(format_report_table(reports))
