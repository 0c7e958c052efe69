"""`sum_all`, the test-only primitive that reduces a tensor to the scalar
loss a gradient test differentiates. Its backward rule spreads the incoming
gradient over every element."""

from __future__ import annotations

import numpy as np

from trrgen.tensor import Tape, Tensor, _accum, _record


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    return _record(tape, Tensor(x.values.sum()),
                   lambda g, sx: _accum(sx, np.full(sx.shape, g, sx.dtype)), x)
