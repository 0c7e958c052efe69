import random

import numpy as np
import pytest

from trrgen.corpus import (ReviewRecord, PreprocessConfig, build_vocabulary,
                           encode_record)
from trrgen.model import ModelConfig, init_parameters


@pytest.fixture
def pre_config():
    return PreprocessConfig()


@pytest.fixture
def tiny_config():
    return ModelConfig(vocab_size=20, d_model=8, n_heads=4, n_layers=1, d_ff=16,
                       max_tgt_len=20, dropout=0.0, seed=0)


@pytest.fixture
def tiny_params(tiny_config):
    return init_parameters(tiny_config, seed=1)


def make_records(n, seed=0, categories=("TOOLS", "GAME")):
    """Small distinct review/response pairs over a closed word list."""
    rng = random.Random(seed)
    words = ["app", "crash", "slow", "great", "love", "fix", "update", "battery",
             "screen", "please", "thanks", "works", "broken", "ads", "free"]
    records = []
    for i in range(n):
        review = " ".join(rng.choice(words) for _ in range(rng.randint(3, 6)))
        response = " ".join(rng.choice(words) for _ in range(rng.randint(3, 5)))
        records.append(ReviewRecord(f"app{i % 3}", rng.choice(list(categories)),
                                    rng.randint(1, 5), review, response))
    return records


def category_corpus(n_per_cat_train=100, n_per_cat_test=25, seed=0):
    """Identical reviews, category-templated responses with disjoint words."""
    templates = {
        "CAT_A": "alpha bravo charlie delta echo foxtrot golf",
        "CAT_B": "hotel india juliet kilo lima mike november",
        "CAT_C": "oscar papa quebec romeo sierra tango uniform",
        "CAT_D": "victor whiskey xray yankee zulu maple cedar",
    }
    rng = random.Random(seed)
    train, test = [], []
    for cat, resp in templates.items():
        for i in range(n_per_cat_train + n_per_cat_test):
            rec = ReviewRecord("demo", cat, rng.randint(1, 5),
                               "please fix the app soon", resp)
            (train if i < n_per_cat_train else test).append(rec)
    rng.shuffle(train)
    rng.shuffle(test)
    return train, test


def rating_corpus(n_per_rating_train=100, n_per_rating_test=25, seed=0):
    """Identical reviews, rating-templated responses with disjoint words."""
    templates = {
        1: "sorry trouble refund contact support team today",
        2: "apology issue patch arriving shortly stay tuned",
        3: "feedback noted roadmap planning future releases soon",
        4: "glad enjoy rating stars helps visibility much",
    }
    rng = random.Random(seed)
    train, test = [], []
    for rating, resp in templates.items():
        for i in range(n_per_rating_train + n_per_rating_test):
            rec = ReviewRecord("demo", "TOOLS", rating,
                               "please fix the app soon", resp)
            (train if i < n_per_rating_train else test).append(rec)
    rng.shuffle(train)
    rng.shuffle(test)
    return train, test


def encode_corpus(records, vocab, pre_cfg):
    encoded = [encode_record(r, vocab, pre_cfg) for r in records]
    responses = [r.response_text for r in records]
    return encoded, responses


def build_tiny_setup(records, pre_cfg, **config_overrides):
    vocab = build_vocabulary(records, min_freq=1)
    defaults = dict(vocab_size=len(vocab), d_model=32, n_heads=4, n_layers=1,
                    d_ff=64, max_tgt_len=40, dropout=0.0, seed=0)
    defaults.update(config_overrides)
    return vocab, ModelConfig(**defaults)
