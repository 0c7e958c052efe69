"""Dense tensors with reverse-mode automatic differentiation.

A `Tape` records every primitive applied to tensors during a forward pass.
Calling `Tape.backward` runs the recorded entries in reverse order,
accumulating gradients into each tensor's `.grad` array. Passing `tape=None` to
any primitive runs it in inference mode (no recording, no gradients).

Every primitive records its backward rule through one helper, `_record`, and
takes any number of leading batch axes: a [T, d] input and a [..., T, d] input
run the same code. A rule holds only the arrays it reads, the shapes it needs
and the gradient slots (`.grad`, shape and dtype) of its inputs and output,
never a tensor, so an intermediate that no rule reads is freed during the
forward pass. Backward drops each entry, with its arrays, once it has run, and
frees each intermediate gradient once it is used, so only leaves such as
parameters keep `.grad` afterwards.

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
    "sum_all",
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
    shape = property(lambda self: self.values.shape)
    dtype = property(lambda self: self.values.dtype)

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


def _accum(s: _Slot, g: np.ndarray):
    if s.grad is None:
        s.grad = np.zeros(s.shape, s.dtype)
    s.grad += g


def _accum_owned(s: _Slot, g: np.ndarray):
    """`_accum` for a `g` that nothing else reads or writes afterwards, such
    as a fresh product: it becomes the gradient when there is none yet, with
    no zero-filled copy."""
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
    `out.grad`, which no later entry reads. Returns `out`. With no tape
    nothing is recorded and no slot made."""
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
        _accum_owned(sa, _unbroadcast(g @ bv.swapaxes(-1, -2), av.shape).reshape(shape))
        _accum_owned(sb, _unbroadcast(av.swapaxes(-1, -2) @ g, bv.shape))
    return _record(tape, Tensor(out.reshape(*shape[:-1], bv.shape[1]) if rows else out), bwd, a, b)


def add(a: Tensor, b: Tensor | np.ndarray, tape: Tape | None = None) -> Tensor:
    """Element-wise sum; `b` is broadcast onto the shape of `a`. A plain
    array `b` is a constant, such as a mask, and receives no gradient."""
    av = a.values
    bv = b.values if isinstance(b, Tensor) else b
    if bv.ndim > av.ndim or any(m not in (1, n) for n, m in zip(av.shape[::-1], bv.shape[::-1])):
        raise ValueError(f"add shape mismatch: {av.shape} + {bv.shape}")

    def bwd(g, sa, sb=None):  # `a` takes `g` itself, so `b` gets a copy
        _accum_owned(sa, g)
        if sb is not None:
            _accum(sb, _unbroadcast(g, sb.shape))
    return _record(tape, Tensor(av + bv), bwd, a, *([b] if isinstance(b, Tensor) else []))


def scale(a: Tensor, s: float, tape: Tape | None = None) -> Tensor:
    return _record(tape, Tensor(a.values * s), lambda g, sa: _accum_owned(sa, g * s), a)


def relu(a: Tensor, tape: Tape | None = None) -> Tensor:
    y = np.maximum(a.values, 0.0)  # the rule reads y > 0, bitwise the mask a > 0
    return _record(tape, Tensor(y), lambda g, sa: _accum_owned(sa, g * (y > 0)), a)


def softmax(a: Tensor, tape: Tape | None = None, axis: int = -1) -> Tensor:
    """Exp-normalize along `axis` with max-subtraction for stability.

    Entries equal to -inf receive weight exactly 0, so masked positions
    contribute nothing downstream (bitwise).
    """
    x = a.values
    m = np.max(x, axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)
    return _record(tape, Tensor(y), lambda g, sa: _accum_owned(
        sa, (g - (g * y).sum(axis=axis, keepdims=True)) * y), a)


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
    xhat, gv = centered * inv, gamma.values

    def bwd(g, sx, sg, sb):
        _accum_owned(sg, (g * xhat).sum(axis=tuple(range(g.ndim - 1))))
        _accum_owned(sb, g.sum(axis=tuple(range(g.ndim - 1))))
        gx = g * gv
        _accum_owned(sx, (gx - gx.mean(axis=-1, keepdims=True)
                          - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) * inv)
    return _record(tape, Tensor(xhat * gv + beta.values), bwd, x, gamma, beta)


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
            _accum_owned(slot, np.concatenate(grads, axis=axis))
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

    def scaled(v):  # bitwise v * ((r >= p) / (1 - p)), with a bool mask
        return np.multiply(v := v * s, keep, out=v)
    return _record(tape, Tensor(scaled(x.values)), lambda g, sx: _accum_owned(sx, scaled(g)), x)


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    return _record(tape, Tensor(x.values.sum()),
                   lambda g, sx: _accum(sx, np.full(sx.shape, g, sx.dtype)), x)


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
            _accum_owned(slot, grad)
    return _record(tape, Tensor(total), bwd, h, w, b)


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
