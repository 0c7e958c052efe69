"""Per-head multi-head attention, kept as the reference for the fused path.

Each head has its own d_model x d_k projections and runs its own
QKᵀ/√d_k + mask → softmax → ·V chain on the tape; the heads are then
concatenated column-wise and projected by Wo. `trrgen.model.multi_head_attention`
computes the same thing as one batched chain over [H, T, d_k] stacks of fused
projections, so the two must agree in values and gradients.
"""

from __future__ import annotations

import numpy as np

from trrgen.tensor import Tensor, Tape, _accum, add, matmul, scale, softmax


def matmul_bt(a: Tensor, b: Tensor, tape: Tape | None) -> Tensor:
    """a @ b.T with gradients to both operands."""
    out = Tensor(a.values @ b.values.T)
    if tape is not None:
        def bwd():
            if out.grad is None:
                return
            _accum(a, out.grad @ b.values)
            _accum(b, out.grad.T @ a.values)
        tape.record(bwd)
    return out


def concat_cols(parts: list[Tensor], tape: Tape | None) -> Tensor:
    """Stack 2-D tensors of equal height along the column axis."""
    out = Tensor(np.concatenate([p.values for p in parts], axis=1))
    if tape is not None:
        sizes = [p.values.shape[1] for p in parts]
        def bwd():
            if out.grad is None:
                return
            offset = 0
            for p, sz in zip(parts, sizes):
                _accum(p, out.grad[:, offset:offset + sz])
                offset += sz
        tape.record(bwd)
    return out


def per_head_weights(w: Tensor, d_k: int) -> list[Tensor]:
    """Column blocks of a fused projection as separate per-head tensors."""
    return [Tensor(w.values[:, c:c + d_k].copy())
            for c in range(0, w.values.shape[1], d_k)]


def per_head_attention(x_q: Tensor, x_kv: Tensor, mask: np.ndarray,
                       wq: list[Tensor], wk: list[Tensor], wv: list[Tensor],
                       wo: Tensor, tape: Tape | None, d_k: int):
    """Returns (output, per-head weight matrices)."""
    mask_t = Tensor(mask)
    inv_sqrt = 1.0 / np.sqrt(d_k)
    heads, weights = [], []
    for wq_h, wk_h, wv_h in zip(wq, wk, wv):
        q = matmul(x_q, wq_h, tape)
        k = matmul(x_kv, wk_h, tape)
        v = matmul(x_kv, wv_h, tape)
        scores = add(scale(matmul_bt(q, k, tape), inv_sqrt, tape), mask_t, tape)
        attn = softmax(scores, tape, axis=-1)
        weights.append(attn.values)
        heads.append(matmul(attn, v, tape))
    return matmul(concat_cols(heads, tape), wo, tape), weights
