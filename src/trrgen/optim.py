"""Adam optimizer over lists of tensors, updating moments and parameters in
place."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class AdamState:
    """Per-parameter first/second moment estimates plus a shared step counter."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = [np.zeros_like(p.values) for p in params]
        self.v = [np.zeros_like(p.values) for p in params]


def adam_step(params: list[Tensor], state: AdamState):
    """One Adam update with bias correction; missing grads are treated as zero.

    The moments and parameters are updated in place, through two temporary
    arrays per tensor, with the arithmetic of m ← b1·m + (1 − b1)·g,
    v ← b2·v + (1 − b2)·g·g and p ← p − lr·(m/bc1) / (√(v/bc2) + eps) in that
    order, so the result is bitwise the allocating update's."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.values)
        m *= b1
        tmp = np.multiply(g, 1.0 - b1)
        m += tmp
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        step = np.divide(m, bc1)
        step *= state.lr
        step /= tmp
        p.values -= step


def zero_grads(params: list[Tensor]):
    for p in params:
        p.zero_grad()
