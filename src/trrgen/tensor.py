"""Dense tensors with reverse-mode automatic differentiation.

A `Tape` records every primitive applied to tensors during a forward pass.
Calling `Tape.backward` runs the recorded entries in reverse order,
accumulating gradients into each tensor's `.grad` array. With `tape=None` a
primitive records nothing, as in inference and `grad_check`'s differences.

Every primitive takes any number of leading batch axes: a [T, d] input and a
[..., T, d] input run the same code. Each records its backward rule through
one helper, `_record`, but `split_rows` records one entry for all its blocks.
A rule holds only the arrays it reads, the shapes it needs and the gradient
slots (`.grad`, shape and dtype) of its inputs and output, never a tensor, so
an intermediate that no rule reads is freed during the forward pass. Backward
drops each entry, with its arrays, once it has run, and frees each
intermediate gradient once it is used, so only leaves such as parameters keep
`.grad` afterwards. `_accum` makes the array a rule hands it the slot's
gradient, or adds it in place, so that array must be one nothing else reads
or writes: a fresh product or a disjoint view of the `g` the rule owns. `add`
is the one exception: its first operand takes `g`, so its second gets a copy.

Packed rows, several sequences end to end along the row axis, are cut into
per-sequence views by `split_rows` and joined again by `concat_rows`.
`linear_cross_entropy` is the output layer and its loss in one primitive that
never holds the [N, V] logits: row chunks run in turn through one [R, V]
buffer, and with a tape each chunk's gradient is taken in the forward pass,
so the tape keeps only dh, dw and db for backward to scale.
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
    "split_rows",
    "split_heads",
    "merge_heads",
    "embedding_lookup",
    "dropout",
    "cross_entropy_logits",
    "linear_cross_entropy",
    "grad_check",
]


class _Slot:
    """A tensor's gradient with the shape and dtype a zero gradient needs."""

    __slots__ = ("grad", "shape", "dtype")

    def __init__(self, values):
        self.grad, self.shape, self.dtype = None, values.shape, values.dtype


class Tensor:
    """Dense row-major array plus an optional gradient of the same shape,
    kept in a gradient slot made when a tape first records the tensor."""

    __slots__ = ("values", "_slot")

    def __init__(self, values, dtype=np.float64):
        self.values = np.asarray(values, dtype=dtype)
        self._slot = None

    @property
    def slot(self) -> _Slot:
        self._slot = self._slot or _Slot(self.values)
        return self._slot

    grad = property(lambda self: None if self._slot is None else self._slot.grad,
                    lambda self, g: setattr(self.slot, "grad", g))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape})"


def _accum(s: _Slot, g: np.ndarray):  # see the module docstring
    if s.grad is None:
        s.grad = g
    else:
        s.grad += g


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
    `len(tape)` counts the entries recorded, also once backward has run.
    """

    def __init__(self):
        self._entries, self._recorded = [], 0

    def record(self, backward_fn):
        self._entries.append(backward_fn)
        self._recorded += 1

    def __len__(self):
        return self._recorded

    def backward(self, loss: Tensor):
        """Accumulate `.grad` on every leaf tensor reachable from `loss`
        through the tape. Each entry is dropped before it runs, so the arrays
        its rule reads are freed once it has run, as are intermediate
        gradients once used; a second call raises."""
        if loss.values.ndim != 0:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.values.shape}")
        if self._entries is None:
            raise RuntimeError("backward already ran on this tape")
        entries, self._entries = self._entries, None
        loss.grad = np.ones_like(loss.values)
        while entries:
            entries.pop()()


def _record(tape: Tape | None, out: Tensor, rule, *inputs: Tensor) -> Tensor:
    """Record `rule(g, *slots)` on `tape`, with `g` the gradient of `out` and
    `slots` the gradient slots of `inputs`; the entry holds slots, not
    tensors. It is skipped when no gradient reached `out`, and frees
    `out.grad`, which no later entry reads, so the rule owns `g` and may write
    it. Returns `out`. With no tape nothing is recorded and no slot made."""
    if tape is not None:
        slot, slots = out.slot, [t.slot for t in inputs]

        def bwd():
            g, slot.grad = slot.grad, None
            if g is not None:
                rule(g, *slots)
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

    def bwd(g, sa, sb):
        g = g.reshape(len(av), bv.shape[1]) if rows else g
        _accum(sa, _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape).reshape(shape))
        _accum(sb, _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape))
    return _record(tape, Tensor(out.reshape(*shape[:-1], bv.shape[1]) if rows else out), bwd, a, b)


def add(a: Tensor, b: Tensor | np.ndarray, tape: Tape | None = None) -> Tensor:
    """Element-wise sum; `b` is broadcast onto the shape of `a`. A plain
    array `b` is a constant, such as a mask, and receives no gradient."""
    av = a.values
    bv = b.values if isinstance(b, Tensor) else b
    lead = av.ndim - bv.ndim  # a `b` shaped like the trailing axes of `a` broadcasts
    if lead < 0 or (bv.shape != av.shape[lead:]
                    and np.broadcast_shapes(av.shape, bv.shape) != av.shape):
        raise ValueError(f"add shape mismatch: {av.shape} + {bv.shape}")

    def bwd(g, sa, sb=None):
        _accum(sa, g)
        if sb is not None:
            _accum(sb, _unbroadcast(g, sb.shape).copy())
    return _record(tape, Tensor(av + bv), bwd, a, *([b] if isinstance(b, Tensor) else []))


def scale(a: Tensor, s: float, tape: Tape | None = None) -> Tensor:
    return _record(tape, Tensor(a.values * s), lambda g, sa: _accum(sa, g * s), a)


def relu(a: Tensor, tape: Tape | None = None) -> Tensor:
    y = np.maximum(a.values, 0.0)  # the rule masks `g` in place by y > 0, bitwise a > 0
    return _record(tape, Tensor(y), lambda g, sa: _accum(sa, np.multiply(g, y > 0, out=g)), a)


def softmax(a: Tensor, tape: Tape | None = None, axis: int = -1) -> Tensor:
    """Exp-normalize along `axis` with max-subtraction for stability.

    Entries equal to -inf receive weight exactly 0, so masked positions
    contribute nothing downstream (bitwise).
    """
    y = np.subtract(a.values, np.maximum.reduce(a.values, axis=axis, keepdims=True))
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=axis, keepdims=True)
    return _record(tape, Tensor(y), lambda g, sa: _accum(
        sa, (g - (g * y).sum(axis=axis, keepdims=True)) * y), a)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               tape: Tape | None = None, eps: float = 1e-5) -> Tensor:
    """Normalize each row over the feature (last) axis, then scale and shift."""
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    n = x.values.shape[-1]
    if gamma.values.shape[-1] != n or beta.values.shape[-1] != n:
        raise ValueError("layer_norm gamma/beta length must equal feature dimension")

    def mean(v):  # bitwise ndarray.mean over the last axis
        return np.add.reduce(v, axis=-1, keepdims=True) / n
    xhat = x.values - mean(x.values)  # centered, then scaled in place
    inv = 1.0 / np.sqrt(mean(xhat * xhat) + eps)
    xhat *= inv
    gv = gamma.values

    def bwd(g, sx, sg, sb):
        _accum(sg, (g * xhat).sum(axis=tuple(range(g.ndim - 1))))
        _accum(sb, g.sum(axis=tuple(range(g.ndim - 1))))
        gx = g * gv
        _accum(sx, (gx - mean(gx) - xhat * mean(gx * xhat)) * inv)
    y = xhat * gv
    y += beta.values
    return _record(tape, Tensor(y), bwd, x, gamma, beta)


def concat_rows(parts: list[Tensor], tape: Tape | None = None) -> Tensor:
    """Join tensors along the row axis (-2); leading batch axes and the width
    must agree."""
    if not parts:
        raise ValueError("concat_rows of empty list")
    ends = np.cumsum([p.values.shape[-2] for p in parts])[:-1]

    def bwd(g, *slots):
        for s, gp in zip(slots, np.split(g, ends, axis=-2)):
            _accum(s, gp)
    return _record(tape, Tensor(np.concatenate([p.values for p in parts], axis=-2)), bwd, *parts)


def split_rows(x: Tensor, ends, tape: Tape | None = None, axis: int = -2) -> list[Tensor]:
    """Inverse of `concat_rows`: views of the blocks of `x` along `axis` (the
    row axis by default) that end before each of `ends` and at the end. One
    tape entry gives every block's gradient back to `x`; a block that
    received none contributes zeros."""
    parts = [Tensor(p) for p in np.split(x.values, ends, axis=axis)]
    if tape is not None:
        slot, slots = x.slot, [p.slot for p in parts]

        def bwd():
            grads = [np.zeros(s.shape, s.dtype) if s.grad is None else s.grad for s in slots]
            for s in slots:
                s.grad = None
            _accum(slot, np.concatenate(grads, axis=axis))
        tape.record(bwd)
    return parts


def split_heads(x: Tensor, d_k: int, tape: Tape | None = None,
                keys: bool = False) -> Tensor:
    """Column blocks of width `d_k` of a [..., T, H*d_k] tensor as an
    [..., H, T, d_k] stack, or with `keys` as [..., H, d_k, T], the right
    operand of Q Kᵀ."""
    heads = x.values.reshape(*x.values.shape[:-1], -1, d_k).swapaxes(-2, -3)

    def bwd(g, sx):
        g = g.swapaxes(-1, -2) if keys else g
        _accum(sx, g.swapaxes(-2, -3).reshape(sx.shape))
    return _record(tape, Tensor(heads.swapaxes(-1, -2) if keys else heads), bwd, x)


def merge_heads(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Inverse of `split_heads`: an [..., H, T, d_k] stack as [..., T, H*d_k]
    columns."""
    *lead, h, t, d_k = x.values.shape
    out = Tensor(x.values.swapaxes(-2, -3).reshape(*lead, t, h * d_k))
    return _record(tape, out,
                   lambda g, sx: _accum(sx, g.reshape(*lead, t, h, d_k).swapaxes(-2, -3)), x)


def embedding_lookup(table: Tensor, ids, tape: Tape | None = None) -> Tensor:
    """Rows of `table` at integer `ids` of any shape: [...] ids give [..., d]."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.values.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.values.shape[0]})")

    def bwd(g, st):
        if st.grad is None:
            st.grad = np.zeros(st.shape, st.dtype)
        np.add.at(st.grad, ids, g)
    return _record(tape, Tensor(table.values[ids]), bwd, table)


def dropout(x: Tensor, p: float, training: bool,
            tape: Tape | None = None, rng: np.random.Generator | None = None) -> Tensor:
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode requires an rng")
    keep, s = rng.random(x.values.shape) >= p, 1.0 / (1.0 - p)

    def scaled(v, out=None):  # bitwise v * ((r >= p) / (1 - p)) into `out`, with a bool mask
        return np.multiply(v := np.multiply(v, s, out=out), keep, out=v)
    return _record(tape, Tensor(scaled(x.values)), lambda g, sx: _accum(sx, scaled(g, g)), x)


def cross_entropy_logits(logits: Tensor, targets, ignore_id: int = -1,
                         tape: Tape | None = None, reduction: str = "mean") -> Tensor:
    """Negative log-softmax probability of `targets`, averaged (or summed)
    over positions whose target is not `ignore_id`. Stable via log-sum-exp.
    Other targets outside [0, V) are a ValueError.
    """
    targets = np.asarray(targets, dtype=np.int64)
    t_count, v = logits.values.shape
    if targets.shape != (t_count,):
        raise ValueError(f"targets length {targets.shape} does not match logits rows {t_count}")
    counted = targets != ignore_id
    if np.any(counted & ((targets < 0) | (targets >= v))):
        raise ValueError(f"target id out of range [0, {v})")
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

    def bwd(g, sl):
        probs = np.exp(x - m)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(t_count), safe_targets] -= 1.0
        probs[~counted] = 0.0
        _accum(sl, probs * (float(g) / denom))
    return _record(tape, Tensor(total / denom), bwd, logits)


_CE_ROWS, _CE_COLS = 256, 1024  # rows per logits chunk; columns per dw block


def linear_cross_entropy(h: Tensor, w: Tensor, b: Tensor, targets,
                         tape: Tape | None = None) -> Tensor:
    """Summed negative log-softmax probability of `targets` [N] under the
    logits h @ w + b, for [N, d] rows `h`, a [d, V] `w` and a [V] `b`.

    The same value as `add(matmul(h, w), b)` followed by
    `cross_entropy_logits(..., reduction="sum")`, without the [N, V] logits:
    chunks of `_CE_ROWS` rows run in turn through one [R, V] buffer, which
    holds a chunk's logits, then its probabilities. With a tape, each chunk
    then becomes its rows of the logits' gradient in place, which writes its
    rows of dh and adds its share to dw (in `_CE_COLS` column blocks) and db;
    backward only scales them. Targets outside [0, V) are a ValueError.
    """
    hv, wv = h.values, w.values
    targets = np.asarray(targets, dtype=np.int64)
    n, v = hv.shape[0], wv.shape[1]
    if hv.ndim != 2 or targets.shape != (n,):
        raise ValueError(f"linear_cross_entropy needs [N, d] rows and N targets, "
                         f"got {hv.shape} and {targets.shape}")
    if n and (targets.min() < 0 or targets.max() >= v):
        raise ValueError(f"target id out of range [0, {v})")
    if tape is not None:
        dh, dw, db = np.empty_like(hv), np.zeros_like(wv), np.zeros_like(b.values)
    buf, total = np.empty((min(n, _CE_ROWS), v), np.result_type(hv, wv)), 0.0
    for i in range(0, n, _CE_ROWS):
        hc, tc = hv[i:i + _CE_ROWS], targets[i:i + _CE_ROWS]
        rows, p = np.arange(len(hc)), np.matmul(hc, wv, out=buf[:len(hc)])
        p += b.values
        picked = p[rows, tc]
        m = p.max(axis=1, keepdims=True)
        p -= m
        np.exp(p, out=p)
        s = p.sum(axis=1, keepdims=True)
        total += float((m[:, 0] + np.log(s[:, 0]) - picked).sum())
        if tape is not None:
            p /= s
            p[rows, tc] -= 1.0
            np.matmul(p, wv.T, out=dh[i:i + _CE_ROWS])
            for j in range(0, v, _CE_COLS):
                dw[:, j:j + _CE_COLS] += hc.T @ p[:, j:j + _CE_COLS]
            db += p.sum(axis=0)

    def bwd(g, sh, sw, sb):
        for grad, slot in ((dh, sh), (dw, sw), (db, sb)):
            grad *= float(g)
            _accum(slot, grad)
    return _record(tape, Tensor(total), bwd, h, w, b)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def grad_check(build, params: list[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of `build` against central differences.

    `build(tape)` returns the scalar loss at the current parameter values. It
    gets a fresh `Tape` once, for the analytic gradients, and `None` for each
    central difference, which records nothing. Returns the max over all
    parameter coordinates of |analytic - numeric| / max(|a|, |n|, 1e-8).
    """
    for p in params:
        p.zero_grad()
    tape = Tape()
    tape.backward(build(tape))
    analytic = [np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.values.reshape(-1)
        for i, a_i in enumerate(a.reshape(-1)):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(build(None).values)
            flat[i] = orig - eps
            numeric = (up - float(build(None).values)) / (2.0 * eps)
            flat[i] = orig
            worst = max(worst, abs(a_i - numeric) / max(abs(a_i), abs(numeric), 1e-8))
    return worst
