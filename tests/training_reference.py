"""Per-example training oracles for `trrgen.model` and `trrgen.optim`.

`forward_training` is the teacher-forced loss as it was computed before
packing: each example runs `encode_review`, `decoder_forward` and
`cross_entropy_logits` on its own rows, in turn, drawing its dropout masks as
it goes. The library's packed `forward_training` must give the same loss and
gradients and leave the dropout generator in the same state. The model's
functions are looked up on the module at call time, so a test can swap in
`decode_reference.decoder_forward`.

`adam_step` is the allocating Adam update; the library's in-place one must
be bitwise equal to it.
"""

import numpy as np

from trrgen import model as M
from trrgen.tensor import add, cross_entropy_logits, scale


def forward_training(batch, params, config, tape=None, rng=None):
    """Mean NLL over all target positions, one example at a time."""
    if not batch:
        raise ValueError("empty batch")
    training = rng is not None
    total = None
    count = 0
    for rec in batch:
        enc = M.encode_review(rec, params, config, tape, training, rng)
        logits = M.decoder_forward(rec.tgt_ids[:-1], enc, params, config, tape, training, rng)
        ce = cross_entropy_logits(logits, rec.tgt_ids[1:], tape=tape, reduction="sum")
        total = ce if total is None else add(total, ce, tape)
        count += len(rec.tgt_ids) - 1
    loss = scale(total, 1.0 / count, tape)
    if not np.isfinite(loss.values):
        raise FloatingPointError("non-finite training loss")
    return loss


def adam_step(params, state):
    """One Adam update with bias correction; missing grads are treated as zero."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for i, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
