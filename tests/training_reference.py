"""Per-example training oracles for `trrgen.model` and `trrgen.optim`.

`forward_training` is the teacher-forced loss as it was computed before
packing: each example runs `encode_review`, `decoder_forward` and
`cross_entropy_logits` on its own rows, in turn, drawing its dropout masks as
it goes. The library's packed `forward_training` draws one mask per dropout
site over all the batch's rows instead; `PackedReplay` hands each example its
rows of those masks, so the two passes must give the same loss and gradients
and leave the dropout generator in the same state. The model's functions are
looked up on the module at call time, so a test can swap in
`decode_reference.decoder_forward`.

`adam_step` is the allocating Adam update; the library's in-place one must
be bitwise equal to it.

`copying_accum` is the copying gradient-accumulation rule: a slot's first
gradient is added into a zero-filled array of its own, so no gradient is an
array that a backward rule made. Patched in as `tensor._accum`, it must give
the library's gradients exactly.
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


class PackedReplay:
    """Stands in for the dropout generator `rng` of a per-example pass over
    `batch`, as drawn by the packed pass: the encoder's 1 + 2L sites each draw
    one mask over all reviews' fused rows, then the decoder's 1 + 3L sites one
    over all targets' rows. Each example's `random` calls get its rows of
    those masks in turn; a mask is drawn when its first rows are asked for."""

    def __init__(self, rng, batch, config):
        slots = len(M.FUSION[config.fusion_variant][1])
        self._layout = [([len(r.src_ids) + slots for r in batch], 1 + 2 * config.n_layers),
                        ([len(r.tgt_ids) - 1 for r in batch], 1 + 3 * config.n_layers)]
        self._rng, self._masks, self._calls = rng, {}, self._plan(len(batch))

    def _plan(self, size):
        for e in range(size):
            for phase, (rows, sites) in enumerate(self._layout):
                start = sum(rows[:e])
                for site in range(sites):
                    yield phase, site, slice(start, start + rows[e])

    def random(self, shape):
        phase, site, rows = next(self._calls)
        if (phase, site) not in self._masks:
            total = sum(self._layout[phase][0])
            self._masks[phase, site] = self._rng.random((total, shape[-1]))
        u = self._masks[phase, site][rows]
        assert u.shape == tuple(shape), (u.shape, shape)
        return u


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


def copying_accum(s, g):
    if s.grad is None:
        s.grad = np.zeros(s.shape, s.dtype)
    s.grad += g
