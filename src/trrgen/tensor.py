"""Dense tensors with reverse-mode automatic differentiation.

A `Tape` records every primitive applied to tensors during a forward pass.
Calling `Tape.backward` replays the recorded entries in reverse order,
accumulating gradients into each tensor's `.grad` array. Passing `tape=None` to
any primitive runs it in inference mode (no recording, no gradients).

Every primitive records its backward rule through one helper, `_record`, and
takes any number of leading batch axes: a [T, d] input and a [..., T, d] input
run the same code. Backward frees each intermediate gradient once its entry
has run, so only leaves such as parameters keep `.grad` afterwards.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "matmul",
    "add",
    "scale",
    "relu",
    "softmax",
    "layer_norm",
    "concat_rows",
    "split_heads",
    "merge_heads",
    "embedding_lookup",
    "dropout",
    "cross_entropy_logits",
    "sum_all",
    "grad_check",
]


class Tensor:
    """Dense row-major array plus an optional gradient of the same shape."""

    __slots__ = ("values", "grad")

    def __init__(self, values, dtype=np.float64):
        self.values = np.asarray(values, dtype=dtype)
        self.grad = None

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


def _accum(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` over the axes along which an operand of `shape` was broadcast."""
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Single-owner: build the tape, run `backward` once, read grads. Entries are
    appended in execution order, which is automatically topological.
    """

    def __init__(self):
        self._entries = []

    def record(self, backward_fn):
        self._entries.append(backward_fn)

    def __len__(self):
        return len(self._entries)

    def backward(self, loss: Tensor):
        """Accumulate `.grad` on every leaf tensor reachable from `loss`
        through the tape; intermediate gradients are freed as they are used."""
        if loss.values.ndim != 0:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.values.shape}")
        loss.grad = np.ones_like(loss.values)
        for fn in reversed(self._entries):
            fn()


def _record(tape: Tape | None, out: Tensor, grad_fn) -> Tensor:
    """Record `grad_fn(out.grad)` on `tape`, skipped when no gradient reached
    `out`, and free `out.grad`, which no later entry reads; returns `out`.
    With no tape nothing is recorded."""
    if tape is not None:
        def bwd():
            g, out.grad = out.grad, None
            if g is not None:
                grad_fn(g)
        tape.record(bwd)
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """a @ b; operands of more than two axes are stacks of matrices. Against
    a 2-D `b`, the leading rows of `a` form one [N, k] @ [k, n] product."""
    shape, bv = a.values.shape, b.values
    if shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {shape} x {bv.shape}")
    rows = bv.ndim == 2
    av = a.values.reshape(-1, shape[-1]) if rows else a.values
    out = av @ bv

    def bwd(g):
        g = g.reshape(out.shape)
        _accum(a, _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape).reshape(shape))
        _accum(b, _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape))
    return _record(tape, Tensor(out.reshape(*shape[:-1], bv.shape[1]) if rows else out), bwd)


def add(a: Tensor, b: Tensor | np.ndarray, tape: Tape | None = None) -> Tensor:
    """Element-wise sum; `b` is broadcast onto the shape of `a`. A plain
    array `b` is a constant, such as a mask, and receives no gradient."""
    av = a.values
    bv = b.values if isinstance(b, Tensor) else b
    if bv.ndim > av.ndim or any(m not in (1, n) for n, m in zip(av.shape[::-1], bv.shape[::-1])):
        raise ValueError(f"add shape mismatch: {av.shape} + {bv.shape}")

    def bwd(g):
        _accum(a, g)
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g, bv.shape))
    return _record(tape, Tensor(av + bv), bwd)


def scale(a: Tensor, s: float, tape: Tape | None = None) -> Tensor:
    return _record(tape, Tensor(a.values * s), lambda g: _accum(a, g * s))


def relu(a: Tensor, tape: Tape | None = None) -> Tensor:
    return _record(tape, Tensor(np.maximum(a.values, 0.0)),
                   lambda g: _accum(a, g * (a.values > 0)))


def softmax(a: Tensor, tape: Tape | None = None, axis: int = -1) -> Tensor:
    """Exp-normalize along `axis` with max-subtraction for stability.

    Entries equal to -inf receive weight exactly 0, so masked positions
    contribute nothing downstream (bitwise).
    """
    x = a.values
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)
    return _record(tape, Tensor(y),
                   lambda g: _accum(a, (g - (g * y).sum(axis=axis, keepdims=True)) * y))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               tape: Tape | None = None, eps: float = 1e-5) -> Tensor:
    """Normalize each row over the feature (last) axis, then scale and shift."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    n = x.values.shape[-1]
    if gamma.values.shape[-1] != n or beta.values.shape[-1] != n:
        raise ValueError("layer_norm gamma/beta length must equal feature dimension")
    centered = x.values - x.values.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv

    def bwd(g):
        _accum(gamma, (g * xhat).sum(axis=tuple(range(g.ndim - 1))))
        _accum(beta, g.sum(axis=tuple(range(g.ndim - 1))))
        gx = g * gamma.values
        _accum(x, (gx - gx.mean(axis=-1, keepdims=True)
                   - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) * inv)
    return _record(tape, Tensor(xhat * gamma.values + beta.values), bwd)


def concat_rows(parts: list[Tensor], tape: Tape | None = None) -> Tensor:
    """Join tensors along the row axis (-2); leading batch axes and the width
    must agree."""
    if not parts:
        raise ValueError("concat_rows of empty list")
    ends = np.cumsum([p.values.shape[-2] for p in parts])[:-1]

    def bwd(g):
        for p, gp in zip(parts, np.split(g, ends, axis=-2)):
            _accum(p, gp)
    return _record(tape, Tensor(np.concatenate([p.values for p in parts], axis=-2)), bwd)


def split_heads(x: Tensor, d_k: int, tape: Tape | None = None,
                keys: bool = False) -> Tensor:
    """Column blocks of width `d_k` of a [..., T, H*d_k] tensor as an
    [..., H, T, d_k] stack, or with `keys` as [..., H, d_k, T], the right
    operand of Q Kᵀ."""
    heads = x.values.reshape(*x.values.shape[:-1], -1, d_k).swapaxes(-2, -3)

    def bwd(g):
        g = g.swapaxes(-1, -2) if keys else g
        _accum(x, g.swapaxes(-2, -3).reshape(x.values.shape))
    return _record(tape, Tensor(heads.swapaxes(-1, -2) if keys else heads), bwd)


def merge_heads(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Inverse of `split_heads`: an [..., H, T, d_k] stack as [..., T, H*d_k]
    columns."""
    *lead, h, t, d_k = x.values.shape
    out = Tensor(x.values.swapaxes(-2, -3).reshape(*lead, t, h * d_k))
    return _record(tape, out, lambda g: _accum(x, g.reshape(*lead, t, h, d_k).swapaxes(-2, -3)))


def embedding_lookup(table: Tensor, ids, tape: Tape | None = None) -> Tensor:
    """Rows of `table` at integer `ids` of any shape: [...] ids give [..., d]."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.values.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.values.shape[0]})")

    def bwd(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.values)
        np.add.at(table.grad, ids, g)
    return _record(tape, Tensor(table.values[ids]), bwd)


def dropout(x: Tensor, p: float, training: bool,
            tape: Tape | None = None, rng: np.random.Generator | None = None) -> Tensor:
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode requires an rng")
    keep = (rng.random(x.values.shape) >= p) / (1.0 - p)
    return _record(tape, Tensor(x.values * keep), lambda g: _accum(x, g * keep))


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    return _record(tape, Tensor(x.values.sum()),
                   lambda g: _accum(x, np.full_like(x.values, g)))


def cross_entropy_logits(logits: Tensor, targets, ignore_id: int = -1,
                         tape: Tape | None = None, reduction: str = "mean") -> Tensor:
    """Negative log-softmax probability of `targets`, averaged (or summed)
    over positions whose target is not `ignore_id`. Stable via log-sum-exp.
    """
    targets = np.asarray(targets, dtype=np.int64)
    t_count, v = logits.values.shape
    if targets.shape != (t_count,):
        raise ValueError(f"targets length {targets.shape} does not match logits rows {t_count}")
    counted = targets != ignore_id
    n = int(counted.sum())
    if n == 0:
        raise ValueError("cross_entropy_logits: every position is ignored")

    x = logits.values
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    safe_targets = np.where(counted, targets, 0)
    nll = lse - x[np.arange(t_count), safe_targets]
    total = float((nll * counted).sum())
    denom = n if reduction == "mean" else 1

    def bwd(g):
        probs = np.exp(x - m)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(t_count), safe_targets] -= 1.0
        probs[~counted] = 0.0
        _accum(logits, probs * (float(g) / denom))
    return _record(tape, Tensor(total / denom), bwd)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def grad_check(build, params: list[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of `build` against central differences.

    `build` takes no arguments, constructs a fresh tape over the current
    parameter values and returns (loss, tape). Returns the max over all
    parameter coordinates of |analytic - numeric| / max(|a|, |n|, 1e-8).
    """
    for p in params:
        p.zero_grad()
    loss, tape = build()
    tape.backward(loss)
    analytic = [np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.values.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = build()
            flat[i] = orig - eps
            down, _ = build()
            flat[i] = orig
            numeric = (float(up.values) - float(down.values)) / (2.0 * eps)
            err = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
