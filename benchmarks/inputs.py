"""Synthetic inputs and the set-up every benchmark run times.

Everything here is derived from the workload seed alone: the word list, the
review corpus, the vocabulary, the encoded records and the seeded model. The
program under test only ever sees the generated records and files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from trrgen import checkpoint, corpus, model, training

# Paper shapes (d_model 256, d_ff 1024, 4 heads, 1 layer, float64).
PAPER_SHAPES = dict(d_model=256, n_heads=4, n_layers=1, d_ff=1024)
DROPOUT = 0.1
N_CATEGORIES = 30
WORD_TYPES = 8400          # with CORPUS_RECORDS this gives a vocabulary of about 8k
CORPUS_RECORDS = 2000
ZIPF_EXPONENT = 0.9
REVIEW_LEN = (5, 100)
RESPONSE_LEN = (5, 60)

# Workload blocks at the head of the corpus. Their lengths are a seeded
# permutation of an evenly spaced grid, so every seed has the same length
# mix (ragged within a batch, equal in total) and timings compare across seeds.
TRAIN_RECORDS = 64         # two batches of 32
VALID_RECORDS = 32         # one validation batch
REPLY_POOL = 64            # reviews that reply_greedy cycles through
EVAL_RECORDS = 2           # eval_beam test set

PRE = corpus.PreprocessConfig()


@dataclass
class SetUp:
    """What one set-up produces; the decode workloads use the loaded model."""

    vocab: corpus.Vocabulary
    config: model.ModelConfig
    train: list[corpus.EncodedRecord]
    valid: list[corpus.EncodedRecord]
    reply_pool: list[corpus.EncodedRecord]
    eval_records: list[corpus.EncodedRecord]
    eval_references: list[str]
    params: model.Parameters
    banned_ids: np.ndarray  # ids the decoder must never emit


def _words(rng: np.random.Generator) -> np.ndarray:
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    seen: dict[str, None] = {}
    while len(seen) < WORD_TYPES:
        for n in rng.integers(3, 9, size=WORD_TYPES):
            seen["".join(rng.choice(letters, size=n))] = None
    return np.array(list(seen)[:WORD_TYPES])


def _grid_lengths(rng, n: int, bounds: tuple[int, int]) -> np.ndarray:
    return rng.permutation(np.round(np.linspace(bounds[0], bounds[1], n)).astype(int))


def make_corpus(seed: int) -> list[corpus.ReviewRecord]:
    """Workload blocks (train, valid, reply pool, eval) followed by background
    records; the whole list feeds `build_vocabulary`."""
    rng = np.random.default_rng(seed)
    words = _words(rng)
    p = 1.0 / np.arange(1, WORD_TYPES + 1) ** ZIPF_EXPONENT
    p /= p.sum()

    blocks = [TRAIN_RECORDS, VALID_RECORDS, REPLY_POOL, EVAL_RECORDS]
    review_lens = [_grid_lengths(rng, n, REVIEW_LEN) for n in blocks]
    response_lens = [_grid_lengths(rng, n, RESPONSE_LEN) for n in blocks]
    n_background = CORPUS_RECORDS - sum(blocks)
    review_lens.append(rng.integers(REVIEW_LEN[0], REVIEW_LEN[1] + 1, size=n_background))
    response_lens.append(rng.integers(RESPONSE_LEN[0], RESPONSE_LEN[1] + 1, size=n_background))
    review_lens = np.concatenate(review_lens)
    response_lens = np.concatenate(response_lens)

    tokens = words[rng.choice(WORD_TYPES, size=int(review_lens.sum() + response_lens.sum()), p=p)]
    ratings = rng.integers(1, 6, size=CORPUS_RECORDS)
    categories = rng.permutation(np.arange(CORPUS_RECORDS) % N_CATEGORIES)
    records = []
    pos = 0
    for i in range(CORPUS_RECORDS):
        review = " ".join(tokens[pos:pos + review_lens[i]])
        pos += review_lens[i]
        response = " ".join(tokens[pos:pos + response_lens[i]])
        pos += response_lens[i]
        records.append(corpus.ReviewRecord(f"app{i % 50}", f"CAT{categories[i]:02d}",
                                           int(ratings[i]), review, response))
    return records


def banned_ids(vocab: corpus.Vocabulary) -> np.ndarray:
    """⟨pad⟩, ⟨unk⟩, ⟨sos⟩, ⟨eos⟩, rating and ⟨cat:…⟩ tokens."""
    banned = {corpus.PAD, corpus.UNK, corpus.SOS, corpus.EOS}
    banned.update(corpus.RATING_TOKENS.values())
    banned.update(corpus.category_token(c) for c in vocab.categories)
    return np.array(sorted(vocab.token_to_id[t] for t in banned))


def model_config(vocab_size: int, seed: int, dropout: float = DROPOUT) -> model.ModelConfig:
    return model.ModelConfig(vocab_size=vocab_size, dropout=dropout, seed=seed, **PAPER_SHAPES)


def set_up(seed: int, workdir: str) -> SetUp:
    """Corpus generation, vocabulary, encoding, seeded model, checkpoint
    save and load: the work `setup_s` times.

    The model's output bias gives every banned id a large negative value, so
    greedy and beam outputs are exactly `max_len` tokens of ordinary words.
    """
    records = make_corpus(seed)
    vocab = corpus.build_vocabulary(records)
    cut = np.cumsum([TRAIN_RECORDS, VALID_RECORDS, REPLY_POOL, EVAL_RECORDS])
    encoded = [corpus.encode_record(r, vocab, PRE) for r in records[:cut[-1]]]

    config = model_config(len(vocab), seed)
    params = model.init_parameters(config, seed=seed)
    banned = banned_ids(vocab)
    params.out_bias.values[banned] = -1e9
    path = os.path.join(workdir, f"model-{os.getpid()}.ckpt")
    try:
        checkpoint.save_checkpoint(path, params, config, vocab)
        params, config, vocab, _, _ = checkpoint.load_checkpoint(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return SetUp(vocab=vocab, config=config,
                 train=encoded[:cut[0]], valid=encoded[cut[0]:cut[1]],
                 reply_pool=encoded[cut[1]:cut[2]], eval_records=encoded[cut[2]:cut[3]],
                 eval_references=[r.response_text for r in records[cut[2]:cut[3]]],
                 params=params, banned_ids=banned)


# Reference check for `train`: a dropout-free train_model call on a small,
# separate input set. Without dropout its losses do not depend on the order
# in which the program draws random masks, only on the arithmetic.
CHECK_SEEDS = 100          # check inputs come from seed % CHECK_SEEDS
CHECK_TRAIN, CHECK_VALID, CHECK_BATCH, CHECK_LR = 16, 8, 8, 1e-3


def check_call_losses(seed: int) -> list[list[float]]:
    """[[train_loss, valid_loss]] of the check call for check seed `seed`."""
    records = make_corpus(seed)
    vocab = corpus.build_vocabulary(records)
    encoded = [corpus.encode_record(r, vocab, PRE)
               for r in records[:CHECK_TRAIN + CHECK_VALID]]
    opts = training.TrainOptions(lr=CHECK_LR, batch_size=CHECK_BATCH, epochs=1, seed=seed)
    result = training.train_model(encoded[:CHECK_TRAIN], encoded[CHECK_TRAIN:],
                                  model_config(len(vocab), seed, dropout=0.0), opts)
    return [[e["train_loss"], e["valid_loss"]] for e in result.log]
