import tracemalloc

import numpy as np
import pytest

from trrgen.tensor import (_CE_COLS, _CE_ROWS, Tensor, Tape, matmul, add, scale, relu, softmax,
                           layer_norm, concat_rows, split_rows, split_heads, merge_heads,
                           embedding_lookup,
                           dropout, cross_entropy_logits, linear_cross_entropy, sum_all,
                           grad_check)
from trrgen.optim import AdamState, adam_step, zero_grads

import training_reference


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return Tensor(np.random.default_rng(seed).uniform(lo, hi, size=shape))


class TestMatmul:
    def test_identity(self):
        a = rand((3, 3), 1)
        out = matmul(a, Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.values, a.values)

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.values, [[3.0], [7.0]])

    def test_shape_error(self):
        with pytest.raises(ValueError):
            matmul(rand((2, 3)), rand((4, 5)))

    def test_stacked_operands(self):
        a, b = rand((3, 2, 4), 1), rand((3, 4, 5), 2)
        out = matmul(a, b).values
        for i in range(3):
            np.testing.assert_allclose(out[i], a.values[i] @ b.values[i], rtol=1e-15)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4), (2, 1, 3, 4)])
    def test_leading_rows_against_a_matrix(self, shape):
        """Against a 2-D right operand the leading rows form one product; the
        result and both gradients are those of the stacked products, also
        for a non-contiguous left operand."""
        b, w = rand((4, 5), 2), rand((5, 1), 3)

        def build(a):
            tape = Tape()
            return sum_all(matmul(softmax(matmul(a, b, tape), tape), w, tape), tape), tape
        a = rand(shape, 1)
        out = matmul(a, b).values
        assert out.shape == (*shape[:-1], 5)
        np.testing.assert_allclose(out, np.matmul(a.values, b.values), rtol=1e-13)
        assert grad_check(lambda: build(a), [a, b, w]) <= 1e-6

        strided = Tensor(np.asfortranarray(a.values))
        loss, tape = build(strided)
        tape.backward(loss)
        np.testing.assert_allclose(strided.grad, a.grad, rtol=1e-13)


class TestHeads:
    def test_split_blocks_and_merge_inverts(self):
        x = rand((5, 6), 3)
        q = split_heads(x, 2).values
        k_t = split_heads(x, 2, keys=True).values
        assert q.shape == (3, 5, 2) and k_t.shape == (3, 2, 5)
        for h in range(3):
            np.testing.assert_array_equal(q[h], x.values[:, 2 * h:2 * h + 2])
            np.testing.assert_array_equal(k_t[h], x.values[:, 2 * h:2 * h + 2].T)
        np.testing.assert_array_equal(merge_heads(Tensor(q)).values, x.values)

    def test_split_width_error(self):
        with pytest.raises(ValueError):
            split_heads(rand((2, 5)), 2)

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_leading_axes_act_per_matrix(self, lead):
        x = rand((*lead, 5, 6), 4)
        q, k_t = split_heads(x, 2).values, split_heads(x, 2, keys=True).values
        rows = concat_rows([x, rand((*lead, 2, 6), 5)]).values
        for i in np.ndindex(*lead):
            np.testing.assert_array_equal(q[i], split_heads(Tensor(x.values[i]), 2).values)
            np.testing.assert_array_equal(k_t[i], split_heads(Tensor(x.values[i]), 2,
                                                              keys=True).values)
            np.testing.assert_array_equal(rows[i][:5], x.values[i])
        np.testing.assert_array_equal(merge_heads(Tensor(q)).values, x.values)

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_gradients_with_leading_axes(self, lead):
        x, y = rand((*lead, 5, 6), 6), rand((*lead, 2, 6), 7)
        r = Tensor(np.random.default_rng(8).normal(size=(*lead, 3, 7, 2)))
        r_t = Tensor(np.random.default_rng(9).normal(size=(*lead, 3, 2, 7)))
        w = Tensor(np.random.default_rng(10).normal(size=(6, 1)))

        def build():
            tape = Tape()
            rows = concat_rows([x, y], tape)
            heads = add(split_heads(rows, 2, tape), r, tape)
            keys = add(split_heads(rows, 2, tape, keys=True), r_t, tape)
            merged = merge_heads(matmul(softmax(matmul(heads, keys, tape), tape), heads, tape),
                                 tape)
            return sum_all(matmul(merged, w, tape), tape), tape
        assert grad_check(build, [x, y, r, r_t]) <= 1e-6


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.values, [0.5, 0.5])

    def test_overflow_stability(self):
        out = softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values, [1.0, 0.0], atol=1e-12)

    def test_direct_evaluation(self):
        out = softmax(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.values, [0.09003057, 0.24472847, 0.66524096],
                                   atol=1e-7)

    def test_rows_sum_to_one_and_shift_invariant(self):
        x = np.random.default_rng(3).normal(size=(6, 8))
        y = softmax(Tensor(x)).values
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(y > 0) and np.all(y < 1)
        y_shifted = softmax(Tensor(x + 7.5)).values
        np.testing.assert_allclose(y, y_shifted, atol=1e-6)

    def test_neg_inf_entries_get_exact_zero(self):
        x = np.array([[1.0, -np.inf, 2.0]])
        y = softmax(Tensor(x)).values
        assert y[0, 1] == 0.0


class TestLayerNorm:
    def test_constant_row(self):
        out = layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]),
                         Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-6)

    def test_statistics(self):
        x = rand((5, 16), 7)
        out = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).values
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_zero_gamma_gives_beta(self):
        beta = Tensor(np.arange(4.0))
        out = layer_norm(rand((3, 4), 2), Tensor(np.zeros(4)), beta)
        np.testing.assert_allclose(out.values, np.tile(beta.values, (3, 1)))


class TestElementwise:
    def test_relu(self):
        np.testing.assert_array_equal(relu(Tensor([-1.0, 2.0])).values, [0.0, 2.0])

    def test_add_row_broadcast(self):
        out = add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([10.0, 20.0]))
        np.testing.assert_array_equal(out.values, [[11.0, 22.0], [13.0, 24.0]])

    def test_add_shape_error(self):
        with pytest.raises(ValueError):
            add(rand((2, 3)), rand((2, 2)))

    def test_add_broadcasts_b_only(self):
        out = add(rand((2, 3, 4), 1), rand((3, 4), 2))
        assert out.values.shape == (2, 3, 4)
        with pytest.raises(ValueError):
            add(rand((3, 4)), rand((2, 3, 4)))
        with pytest.raises(ValueError):
            add(rand((1, 4)), rand((3, 4)))

    def test_add_constant_array_backpropagates_into_a_only(self):
        x = rand((3, 5), 1)
        c = np.random.default_rng(2).normal(size=(3, 5))
        targets = [0, 4, 2]

        def build(b):
            tape = Tape()
            return cross_entropy_logits(add(x, b, tape), targets, tape=tape), tape

        assert grad_check(lambda: build(c), [x]) < 1e-6
        x.zero_grad()
        loss, tape = build(c)
        tape.backward(loss)
        from_constant = x.grad
        x.zero_grad()
        loss, tape = build(Tensor(c))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, from_constant)

    def test_dropout_identity_cases(self):
        x = rand((4, 4), 5)
        assert dropout(x, 0.0, True, rng=np.random.default_rng(0)) is x
        assert dropout(x, 0.5, False) is x

    def test_dropout_rescales(self):
        x = Tensor(np.ones((200, 50)))
        out = dropout(x, 0.25, True, rng=np.random.default_rng(1))
        kept = out.values != 0
        np.testing.assert_allclose(out.values[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.02

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_bit_mask_dropout_is_the_float_mask_product(self, p):
        """Values and gradient are bitwise x * ((r >= p) / (1 - p)) and
        g * ((r >= p) / (1 - p)), signed zeros included, from the same draws."""
        rng = np.random.default_rng(3)
        x = Tensor(np.concatenate([rng.normal(size=60), [0.0, -0.0] * 10]).reshape(8, 10))
        g = np.concatenate([[-0.0, 0.0] * 10, rng.normal(size=60)]).reshape(8, 10)
        mask = (np.random.default_rng(4).random((8, 10)) >= p) / (1 - p)
        tape = Tape()
        out = dropout(x, p, True, tape, np.random.default_rng(4))
        out.grad = g.copy()
        tape.backward(Tensor(0.0))  # runs the one recorded entry on `out.grad`
        assert out.values.tobytes() == (x.values * mask).tobytes()
        assert x.grad.tobytes() == (g * mask).tobytes()


class TestEmbedding:
    def test_lookup(self):
        table = rand((5, 3), 9)
        out = embedding_lookup(table, [2, 0, 2])
        np.testing.assert_array_equal(out.values, table.values[[2, 0, 2]])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            embedding_lookup(rand((5, 3)), [5])

    def test_duplicate_ids_accumulate(self):
        table = rand((4, 2), 11)
        tape = Tape()
        out = embedding_lookup(table, [1, 1], tape)
        loss = sum_all(out, tape)
        tape.backward(loss)
        np.testing.assert_allclose(table.grad[1], [2.0, 2.0])
        np.testing.assert_allclose(table.grad[0], 0.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy_logits(Tensor(np.zeros((3, 4))), [0, 1, 2])
        np.testing.assert_allclose(float(loss.values), np.log(4.0), atol=1e-12)

    def test_confident_logits(self):
        logits = np.zeros((2, 5))
        logits[0, 3] = 1000.0
        logits[1, 1] = 1000.0
        loss = cross_entropy_logits(Tensor(logits), [3, 1])
        assert float(loss.values) < 1e-9

    def test_matches_high_precision_recomputation(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(3, 5))
        targets = [4, 0, 2]
        loss = cross_entropy_logits(Tensor(logits), targets)
        # independent recomputation with explicit normalization
        expected = 0.0
        for row, t in zip(logits, targets):
            probs = np.exp(row) / np.exp(row).sum()
            expected -= np.log(probs[t])
        expected /= 3
        assert abs(float(loss.values) - expected) <= 1e-10

    def test_ignore_id(self):
        logits = np.zeros((2, 4))
        loss = cross_entropy_logits(Tensor(logits), [1, 0], ignore_id=0)
        np.testing.assert_allclose(float(loss.values), np.log(4.0))

    def test_all_ignored_errors(self):
        with pytest.raises(ValueError):
            cross_entropy_logits(Tensor(np.zeros((2, 4))), [0, 0], ignore_id=0)

    @pytest.mark.parametrize("target", [-2, 4, 7])
    def test_target_out_of_range_rejected(self, target):
        """A negative target used to index from the end: −2 scored as V − 2."""
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy_logits(Tensor(np.zeros((2, 4))), [1, target])


class TestLinearCrossEntropy:
    """The fused output layer and loss against `add(matmul)` followed by
    `cross_entropy_logits(reduction="sum")`."""

    @staticmethod
    def unfused(h, w, b, targets, tape=None):
        return cross_entropy_logits(add(matmul(h, w, tape), b, tape), targets, tape=tape,
                                    reduction="sum")

    def run(self, fn, h, w, b, targets):
        for t in (h, w, b):
            t.zero_grad()
        tape = Tape()
        loss = fn(h, w, b, targets, tape)
        tape.backward(scale(loss, 0.7, tape))
        return float(loss.values), [t.grad.copy() for t in (h, w, b)]

    @pytest.mark.parametrize("n,d,v", [
        (1, 3, 4), (5, 4, 7), (33, 8, 50), (_CE_ROWS - 1, 8, 50), (_CE_ROWS, 8, 50),
        (_CE_ROWS + 1, 8, 50), (2 * _CE_ROWS + 3, 8, 50), (_CE_ROWS + 1, 4, 2 * _CE_COLS + 3)])
    def test_matches_unfused_within_1e_12(self, n, d, v):
        """Also over a ragged last row chunk, several chunks and several dw
        column blocks."""
        rng = np.random.default_rng(n)
        h, w, b = (Tensor(rng.normal(size=s)) for s in ((n, d), (d, v), (v,)))
        targets = rng.integers(0, v, n)
        targets[0] = v - 1
        loss, grads = self.run(linear_cross_entropy, h, w, b, targets)
        want_loss, want_grads = self.run(self.unfused, h, w, b, targets)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for g, want in zip(grads, want_grads):
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))

    def test_gradient_check(self):
        h, w, b = rand((3, 4), 4), rand((4, 6), 5), rand((6,), 6)

        def build():
            tape = Tape()
            return linear_cross_entropy(h, w, b, [5, 0, 3], tape), tape
        assert grad_check(build, [h, w, b]) <= 1e-6

    def test_gradient_check_over_two_row_chunks(self):
        h, w, b = rand((_CE_ROWS + 1, 2), 4), rand((2, 3), 5), rand((3,), 6)
        targets = np.arange(_CE_ROWS + 1) % 3

        def build():
            tape = Tape()
            return linear_cross_entropy(h, w, b, targets, tape), tape
        assert grad_check(build, [h, w, b]) <= 1e-6

    def test_untaped_loss_is_the_taped_loss(self):
        h, w, b = rand((2 * _CE_ROWS + 3, 8), 1), rand((8, 50), 2), rand((50,), 3)
        targets = np.arange(len(h.values)) % 50
        assert (float(linear_cross_entropy(h, w, b, targets).values)
                == float(linear_cross_entropy(h, w, b, targets, Tape()).values))

    def test_peak_memory_under_half_the_logits(self):
        """One taped forward plus backward never holds the [N, V] logits: at
        N 1,024 and V 4,096 it peaks under half of their 32 MiB."""
        n, d, v = 1024, 32, 4096
        h, w, b = rand((n, d), 1), rand((d, v), 2), rand((v,), 3)
        targets = np.arange(n) % v
        tracemalloc.start()
        try:
            tape = Tape()
            tape.backward(scale(linear_cross_entropy(h, w, b, targets, tape), 1.0 / n, tape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * v * 8 / 2
        assert w.grad.shape == (d, v)

    @pytest.mark.parametrize("scale_", [1e4, -1e4])
    def test_finite_at_large_logits(self, scale_):
        h = Tensor(np.array([[1.0], [-1.0]]))
        w = Tensor(np.array([[scale_, 0.0, -scale_]]))
        b = Tensor(np.zeros(3))
        loss, grads = self.run(linear_cross_entropy, h, w, b, [1, 1])
        assert np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads)
        assert loss == 2e4  # each row's target sits 1e4 below its top logit

    @pytest.mark.parametrize("targets", [[0, -2], [0, 4], [0, -1]])
    def test_target_out_of_range_rejected(self, targets):
        with pytest.raises(ValueError, match="out of range"):
            linear_cross_entropy(rand((2, 3)), rand((3, 4)), rand((4,)), targets)

    def test_target_count_must_match_rows(self):
        with pytest.raises(ValueError):
            linear_cross_entropy(rand((2, 3)), rand((3, 4)), rand((4,)), [0, 1, 2])


class TestSplitRows:
    @pytest.mark.parametrize("axis", [-2, -1])
    def test_inverts_concat(self, axis):
        x = rand((2, 5, 6), 8)
        parts = split_rows(x, [1, 4], axis=axis)
        assert [p.values.shape[axis] for p in parts] == [1, 3, x.values.shape[axis] - 4]
        np.testing.assert_array_equal(np.concatenate([p.values for p in parts], axis=axis),
                                      x.values)

    @pytest.mark.parametrize("axis", [-2, -1])
    def test_gradients_with_an_unused_block(self, axis):
        x = rand((2, 5, 6), 8)

        def build():
            tape = Tape()
            first, _, last = split_rows(x, [1, 4], tape, axis=axis)
            return add(sum_all(scale(first, 2.0, tape), tape),
                       sum_all(relu(last, tape), tape), tape), tape
        assert grad_check(build, [x]) <= 1e-6
        middle = [slice(None)] * 3
        middle[axis] = slice(1, 4)
        assert np.all(x.grad[tuple(middle)] == 0.0)


class TestBackward:
    def test_sum_gradient_all_ones(self):
        x = rand((3, 4), 2)
        tape = Tape()
        loss = sum_all(x, tape)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_frees_intermediate_gradients_and_keeps_leaf_gradients(self):
        rng = np.random.default_rng(7)
        x, w = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 4)))
        gamma, beta = Tensor(rng.uniform(0.5, 1.5, 4)), Tensor(rng.normal(size=4))
        outputs = []

        def build():
            tape = Tape()
            h = matmul(x, w, tape)
            z = layer_norm(relu(h, tape), gamma, beta, tape)
            loss = cross_entropy_logits(z, [0, 3, 1], tape=tape)
            outputs[:] = [h, z, loss]
            return loss, tape
        loss, tape = build()
        tape.backward(loss)
        assert [t.grad for t in outputs] == [None, None, None]
        assert all(p.grad is not None for p in (x, w, gamma, beta))
        assert grad_check(build, [x, w, gamma, beta]) <= 1e-6

    def test_len_counts_entries_after_backward_and_a_second_backward_raises(self):
        x = rand((3, 4), 2)
        tape = Tape()
        loss = sum_all(softmax(relu(x, tape), tape), tape)
        tape.backward(loss)
        first = x.grad.copy()
        assert len(tape) == 3
        with pytest.raises(RuntimeError, match="already ran"):
            tape.backward(loss)
        assert len(tape) == 3 and np.array_equal(x.grad, first)

    def test_non_scalar_loss_rejected(self):
        x = rand((2, 2))
        tape = Tape()
        y = relu(x, tape)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_deterministic(self):
        def run():
            x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4))
            w = Tensor(np.linspace(0, 1, 8).reshape(4, 2))
            tape = Tape()
            loss = sum_all(softmax(matmul(x, w, tape), tape), tape)
            tape.backward(loss)
            return x.grad.copy(), w.grad.copy()
        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


class TestGradCheck:
    def test_linear_function_near_exact(self):
        w = rand((4, 1), 3)
        x = Tensor(np.arange(1.0, 13.0).reshape(3, 4))
        def build():
            tape = Tape()
            return sum_all(matmul(x, w, tape), tape), tape
        assert grad_check(build, [w]) <= 1e-9

    @pytest.mark.parametrize("m,n", [(2, 3), (5, 8), (8, 8), (1, 4)])
    def test_primitives_randomized_shapes(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        x = Tensor(rng.uniform(0.2, 1.0, size=(m, n)))  # away from the relu kink
        w = Tensor(rng.normal(size=(n, n)))
        gamma = Tensor(rng.uniform(0.5, 1.5, size=n))
        beta = Tensor(rng.normal(size=n))
        b = Tensor(rng.normal(size=n))
        c = Tensor(rng.normal(size=(1, m)))
        d_k = n // 2 if n % 2 == 0 else n
        def build():
            tape = Tape()
            h = relu(add(matmul(x, w, tape), b, tape), tape)
            h = layer_norm(h, gamma, beta, tape)
            h = softmax(scale(h, 1.7, tape), tape)
            q = split_heads(h, d_k, tape)
            a = add(matmul(q, split_heads(h, d_k, tape, keys=True), tape), c, tape)
            h = merge_heads(matmul(a, q, tape), tape)
            return sum_all(matmul(concat_rows([h, h], tape), w, tape), tape), tape
        assert grad_check(build, [x, w, gamma, beta, b, c]) <= 1e-4

    def test_cross_entropy_gradient(self):
        logits = rand((4, 6), 21)
        def build():
            tape = Tape()
            return cross_entropy_logits(logits, [1, 5, 0, 2], tape=tape), tape
        assert grad_check(build, [logits]) <= 1e-6

    def test_corrupted_backward_detected(self, monkeypatch):
        import trrgen.tensor as T
        x = rand((3, 3), 8, lo=0.2, hi=1.0)
        real_relu = T.relu
        def bad_relu(a, tape=None):
            out = real_relu(a, None)
            if tape is not None:
                def bwd():
                    if out.grad is None:
                        return
                    T._accum(a, out.grad * 0.5)  # wrong multiplier
                tape.record(bwd)
            return out
        def build():
            tape = Tape()
            return sum_all(bad_relu(x, tape), tape), tape
        assert grad_check(build, [x]) > 1e-2


class TestAdam:
    def test_zero_gradient_no_move(self):
        p = rand((3, 3), 4)
        before = p.values.copy()
        state = AdamState([p], lr=0.1)
        p.grad = np.zeros_like(p.values)
        adam_step([p], state)
        adam_step([p], state)
        np.testing.assert_array_equal(p.values, before)

    def test_reproducible_bit_for_bit(self):
        def run():
            p = Tensor(np.linspace(-1, 1, 9).reshape(3, 3))
            state = AdamState([p], lr=0.01)
            for step in range(5):
                p.grad = np.full_like(p.values, 0.1 * (step + 1))
                adam_step([p], state)
            return p.values.copy()
        assert np.array_equal(run(), run())

    def test_descends_quadratic(self):
        p = Tensor(np.array([5.0]))
        state = AdamState([p], lr=0.1)
        for _ in range(200):
            zero_grads([p])
            p.grad = 2.0 * p.values
            adam_step([p], state)
        assert abs(float(p.values[0])) < 0.5

    def test_in_place_update_is_bitwise_the_allocating_one(self):
        """Several steps of the in-place update against the allocating one in
        `tests/training_reference.py`, from the same parameters and gradients,
        one of them missing: moments and parameters agree bit for bit."""
        start = [np.random.default_rng(0).normal(size=s) for s in [(3, 4), (5,), (2, 3, 2)]]
        runs = []
        for step in (adam_step, training_reference.adam_step):
            params = [Tensor(v.copy()) for v in start]
            state = AdamState(params, lr=1e-2, beta1=0.8, beta2=0.95, eps=1e-6)
            grads = np.random.default_rng(1)
            for k in range(4):
                for i, p in enumerate(params):
                    p.grad = None if (k, i) == (2, 1) else grads.normal(size=p.values.shape)
                step(params, state)
            runs.append([p.values for p in params] + state.m + state.v)
        for got, want in zip(*runs):
            assert got.tobytes() == want.tobytes()
