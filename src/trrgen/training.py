"""Mini-batch Adam training with teacher forcing and early stopping."""

from __future__ import annotations

import copy
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from .corpus import EncodedRecord, check_fields
from .model import ModelConfig, Parameters, init_parameters, forward_training
from .optim import AdamState, adam_step, zero_grads
from .tensor import Tape


@dataclass
class TrainOptions:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    epochs: int = 30
    patience: int = 5
    validate_every: int = 1
    seed: int = 0
    stop_loss: float = 0.0   # stop early once training loss falls below

    def __post_init__(self):
        check_fields(self, ValueError, [
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("validate_every", self.validate_every >= 1, ">= 1"),
            ("patience", self.patience >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("lr", 0 < self.lr <= sys.float_info.max, "finite and > 0"),
            ("adam_eps", 0 < self.adam_eps <= sys.float_info.max, "finite and > 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)")])


@dataclass
class TrainResult:
    params: Parameters
    log: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_valid_loss: float = float("inf")


def _epoch_loss(records: list[EncodedRecord], params: Parameters,
                config: ModelConfig, batch_size: int) -> float:
    total, count = 0.0, 0
    for i in range(0, len(records), batch_size):
        batch = records[i:i + batch_size]
        loss = forward_training(batch, params, config, tape=None)
        n = sum(len(r.tgt_ids) - 1 for r in batch)
        total += float(loss.values) * n
        count += n
    return total / count


def train_model(train: list[EncodedRecord], valid: list[EncodedRecord],
                config: ModelConfig, opts: TrainOptions,
                log_fn=None) -> TrainResult:
    """Seed-deterministic training with early stopping. Returns the parameters
    of the validated epoch with the lowest validation loss, or the final ones,
    checked for a finite loss on the last batch, when no epoch was validated.

    Emits one log dict per epoch (epoch, train_loss, valid_loss) through
    `log_fn` and in the returned result.
    """
    if not train:
        raise ValueError("empty training set")
    params = init_parameters(config, seed=opts.seed)
    tensors = params.all_tensors()
    state = AdamState(tensors, lr=opts.lr, beta1=opts.beta1,
                      beta2=opts.beta2, eps=opts.adam_eps)
    dropout_rng = np.random.default_rng(opts.seed + 1)
    order_rng = random.Random(opts.seed + 2)

    result = TrainResult(params=params)  # the final parameters until an epoch is validated
    stale = 0
    for epoch in range(1, opts.epochs + 1):
        idx = list(range(len(train)))
        order_rng.shuffle(idx)
        running, seen = 0.0, 0
        for i in range(0, len(idx), opts.batch_size):
            batch = [train[j] for j in idx[i:i + opts.batch_size]]
            tape = Tape()
            loss = forward_training(batch, params, config, tape, dropout_rng)
            tape.backward(loss)
            adam_step(tensors, state)
            zero_grads(tensors)
            n = sum(len(r.tgt_ids) - 1 for r in batch)
            running += float(loss.values) * n
            seen += n
        train_loss = running / seen

        entry = {"epoch": epoch, "train_loss": train_loss}
        if valid and epoch % opts.validate_every == 0:
            valid_loss = _epoch_loss(valid, params, config, opts.batch_size)
            entry["valid_loss"] = valid_loss
            if valid_loss < result.best_valid_loss:
                result.best_valid_loss = valid_loss
                result.best_epoch = epoch
                result.params = copy.deepcopy(params)
                stale = 0
            else:
                stale += 1
        result.log.append(entry)
        if log_fn:
            log_fn(entry)
        if stale > opts.patience or train_loss < opts.stop_loss:
            break
    if result.best_epoch < 0:  # unvalidated parameters must still give a finite loss
        forward_training(batch, params, config)
    return result
