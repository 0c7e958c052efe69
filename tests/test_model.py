import math
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trrgen import generation, model as M
from trrgen.corpus import EncodedRecord, SOS_ID
from trrgen.tensor import Tensor, Tape, grad_check, matmul, softmax

from attention_reference import per_head_attention, per_head_weights
import decode_reference as ref
from scalar_loss import sum_all
import training_reference


def pe_oracle(seq_len, d_model):
    """Independent scalar-loop evaluation of the sinusoid definition."""
    out = np.zeros((seq_len, d_model))
    for pos in range(seq_len):
        for i in range(d_model // 2):
            angle = pos / (10000.0 ** (2 * i / d_model))
            out[pos, 2 * i] = math.sin(angle)
            out[pos, 2 * i + 1] = math.cos(angle)
    return out


class TestPositionalEncoding:
    def test_position_zero_alternates(self):
        pe = M.positional_encoding(1, 8)
        np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_direct_evaluation_pos1_d4(self):
        pe = M.positional_encoding(2, 4)
        np.testing.assert_allclose(
            pe[1], [math.sin(1), math.cos(1), math.sin(0.01), math.cos(0.01)],
            atol=1e-12)

    @pytest.mark.parametrize("seq_len,d_model", [(1, 2), (7, 6), (64, 64), (33, 10)])
    def test_matches_oracle(self, seq_len, d_model):
        np.testing.assert_allclose(M.positional_encoding(seq_len, d_model),
                                   pe_oracle(seq_len, d_model), atol=1e-12)

    def test_range(self):
        pe = M.positional_encoding(50, 32)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_odd_d_model_rejected(self):
        with pytest.raises(M.ConfigError):
            M.positional_encoding(4, 5)

    @pytest.mark.parametrize("start,seq_len,d_model",
                             [(1, 1, 2), (1, 3, 8), (7, 1, 6), (59, 1, 256), (30, 34, 64)])
    def test_start_offset_is_a_slice_of_the_full_table(self, start, seq_len, d_model):
        """Rows for positions start … start + seq_len − 1, bitwise the rows of
        the table from position 0, which `test_matches_oracle` pins."""
        full = M.positional_encoding(start + seq_len, d_model)
        got = M.positional_encoding(seq_len, d_model, start)
        assert np.array_equal(got, full[start:])
        np.testing.assert_allclose(got, pe_oracle(start + seq_len, d_model)[start:], atol=1e-12)

    def test_rows_are_read_only(self):
        pe = M.positional_encoding(3, 8, 2)
        assert not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0

    def test_rows_beyond_the_first_table_are_a_direct_computation(self, monkeypatch):
        """The table grows on demand; every row it serves, before and after it
        grows, is bitwise the sin/cos computed for just those positions."""
        monkeypatch.setattr(M, "_PE_TABLES", {})

        def direct(seq_len, d_model, start):
            pos = np.arange(start, start + seq_len, dtype=np.float64)[:, None]
            angle = pos / np.power(10000.0, np.arange(0, d_model, 2, dtype=np.float64) / d_model)
            pe = np.empty((seq_len, d_model))
            pe[:, 0::2], pe[:, 1::2] = np.sin(angle), np.cos(angle)
            return pe

        first = M.positional_encoding(5, 10)
        sizes = [len(M._PE_TABLES[10])]
        for seq_len, start in [(3, sizes[0] - 1), (1, 3 * sizes[0] + 7), (40, 2)]:
            got = M.positional_encoding(seq_len, 10, start)
            assert np.array_equal(got, direct(seq_len, 10, start))
            sizes.append(len(M._PE_TABLES[10]))
        assert sizes[0] < sizes[1] < sizes[2] == sizes[3]
        assert np.array_equal(first, direct(5, 10, 0))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(M.ConfigError):
            M.ModelConfig(vocab_size=10, d_model=10, n_heads=4)

    def test_zero_layers_rejected(self):
        with pytest.raises(M.ConfigError):
            M.ModelConfig(vocab_size=10, d_model=8, n_heads=4, n_layers=0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(M.ConfigError):
            M.ModelConfig(vocab_size=10, d_model=8, fusion_variant="bogus")

    def test_zero_heads_rejected(self):
        with pytest.raises(M.ConfigError, match="n_heads"):
            M.ModelConfig(vocab_size=10, d_model=8, n_heads=0)

    @pytest.mark.parametrize("d_model", [0, -4])
    def test_non_positive_d_model_rejected(self, d_model):
        with pytest.raises(M.ConfigError, match="d_model"):
            M.ModelConfig(vocab_size=10, d_model=d_model, n_heads=2)

    @pytest.mark.parametrize("field,value", [("d_ff", 0), ("d_ff", -4), ("dropout", 1.0),
                                             ("dropout", float("nan")), ("dropout", -0.5)])
    def test_bad_d_ff_or_dropout_rejected_naming_field(self, field, value):
        with pytest.raises(M.ConfigError, match=f"^{field} must be"):
            M.ModelConfig(vocab_size=10, d_model=8, n_heads=2, **{field: value})

    def test_boundary_d_ff_and_dropout_accepted(self):
        M.ModelConfig(vocab_size=10, d_model=8, n_heads=2, d_ff=1, dropout=0.0)
        M.ModelConfig(vocab_size=10, d_model=8, n_heads=2, dropout=0.999)


class TestEmbedReview:
    VARIANT_LENGTHS = {"vanilla": 7, "rating_only": 7, "category_only": 8,
                       "trrgen_concat": 8, "trrgen_sum": 7, "trrgen_order": 9}

    @pytest.mark.parametrize("variant,expected", sorted(VARIANT_LENGTHS.items()))
    def test_fused_length(self, tiny_params, variant, expected):
        src = [10, 11, 12, 13, 14, 15, 16]
        x = M.embed_review(src, 4, 9, variant, tiny_params)
        assert x.values.shape == (expected, 8)

    def test_zero_embedding_gives_pure_positions(self, tiny_config):
        params = M.init_parameters(tiny_config)
        params.embedding.values[:] = 0.0
        x = M.embed_review([10, 11, 12], 4, 9, "vanilla", params)
        np.testing.assert_array_equal(x.values, M.positional_encoding(3, 8))

    def test_rating_changes_all_token_slots_in_concat(self, tiny_params):
        src = [10, 11, 12]
        a = M.embed_review(src, 4, 9, "trrgen_concat", tiny_params).values
        b = M.embed_review(src, 5, 9, "trrgen_concat", tiny_params).values
        np.testing.assert_array_equal(a[0], b[0])          # category slot untouched
        assert np.all(np.any(a[1:] != b[1:], axis=1))      # every x_i moved

    def test_rating_changes_only_r_slot_in_order(self, tiny_params):
        src = [10, 11, 12]
        a = M.embed_review(src, 4, 9, "trrgen_order", tiny_params).values
        b = M.embed_review(src, 5, 9, "trrgen_order", tiny_params).values
        np.testing.assert_array_equal(a[0], b[0])
        assert np.any(a[1] != b[1])
        np.testing.assert_array_equal(a[2:], b[2:])

    def test_trrgen_sum_adds_both_features(self, tiny_params):
        src = [10, 11]
        e = tiny_params.embedding.values
        x = M.embed_review(src, 4, 9, "trrgen_sum", tiny_params).values
        expected = e[src] + e[4] + e[9] + M.positional_encoding(2, 8)
        np.testing.assert_allclose(x, expected)

    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    def test_gradients(self, tiny_config, variant):
        params = M.init_parameters(tiny_config, seed=2)
        rng = np.random.default_rng(M.FUSION_VARIANTS.index(variant))
        src = rng.integers(10, 20, size=4)
        r = Tensor(rng.normal(size=(8, 1)))

        def build(tape):
            y = M.embed_review(src, 5, 9, variant, params, tape)
            return sum_all(matmul(softmax(y, tape), r, tape), tape)
        assert grad_check(build, [params.embedding]) <= 1e-6

    @pytest.mark.parametrize("src", [[[10, 11], [12, 13]], 10])
    def test_ids_must_be_one_review(self, tiny_params, src):
        """Only 1-D ids embed: [n, n] ids would otherwise broadcast against
        the [n, d] positional rows."""
        with pytest.raises(M.ConfigError, match="1-D token ids"):
            M.embed_review(src, 4, 9, "vanilla", tiny_params)


class TestAttention:
    def test_single_query_single_key(self, tiny_params):
        attn = tiny_params.encoder[0].self_attn
        x = Tensor(np.random.default_rng(0).normal(size=(1, 8)))
        z, weights = M.multi_head_attention(x, x, np.zeros((1, 1)), attn, None,
                                            d_k=2, return_weights=True)
        for w in weights:
            np.testing.assert_array_equal(w, [[1.0]])
        # output equals (x Wv) Wo with weight exactly 1
        heads = x.values @ attn.wv.values
        np.testing.assert_allclose(z.values, heads @ attn.wo.values)

    def test_uniform_inputs_give_uniform_attention(self, tiny_params):
        attn = tiny_params.encoder[0].self_attn
        x = Tensor(np.ones((5, 8)))
        _, weights = M.multi_head_attention(x, x, np.zeros((5, 5)), attn, None,
                                            d_k=2, return_weights=True)
        for w in weights:
            np.testing.assert_allclose(w, 0.2, atol=1e-12)

    def test_hand_computed_single_head(self):
        # d_model = d_k = 2, identity projections: z = softmax(X X^T / sqrt(2)) X
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        eye = Tensor(np.eye(2))
        p = M.AttentionParams(wq=eye, wk=eye, wv=eye, wo=Tensor(np.eye(2)))
        z = M.multi_head_attention(Tensor(x), Tensor(x), np.zeros((2, 2)), p,
                                   None, d_k=2)
        scores = x @ x.T / math.sqrt(2)
        expected = np.exp(scores - scores.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(z.values, expected @ x, atol=1e-12)

    def test_rows_sum_to_one_masked_weights_zero(self, tiny_params):
        attn = tiny_params.encoder[0].self_attn
        x = Tensor(np.random.default_rng(4).normal(size=(6, 8)))
        mask = M.causal_mask(6)
        _, weights = M.multi_head_attention(x, x, mask, attn, None, d_k=2,
                                            return_weights=True)
        for w in weights:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(w[np.triu_indices(6, k=1)] <= 1e-9)

    @pytest.mark.parametrize("n,start", [(1, 0), (4, 0), (1, 5), (3, 2)])
    def test_causal_mask_with_earlier_positions(self, n, start):
        mask = M.causal_mask(n, start)
        assert mask.shape == (n, start + n)
        for i in range(n):
            assert np.all(mask[i, :start + i + 1] == 0.0)
            assert np.all(mask[i, start + i + 1:] == -np.inf)

    def test_mask_shape_mismatch(self, tiny_params):
        attn = tiny_params.encoder[0].self_attn
        x = Tensor(np.zeros((3, 8)))
        with pytest.raises(M.ConfigError):
            M.multi_head_attention(x, x, np.zeros((3, 4)), attn, None, d_k=2)


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def random_attention(rng, d):
    return M.AttentionParams(*(Tensor(rng.normal(scale=0.5, size=(d, d))) for _ in range(4)))


class TestFusedAttentionMatchesPerHead:
    @staticmethod
    def mask(kind, t_q, t_kv):
        mask = np.zeros((t_q, t_kv))
        if kind == "causal":  # lower-right aligned, so every query sees a key
            mask[np.triu_indices(t_q, k=1 + t_kv - t_q, m=t_kv)] = M.NEG_INF
        return mask

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("t_q,t_kv,kind", [(5, 7, "zero"), (5, 7, "causal"),
                                               (6, None, "zero"), (6, None, "causal")])
    def test_values_and_gradients(self, n_heads, t_q, t_kv, kind):
        rng = np.random.default_rng(10 * n_heads + t_q)
        d = 8
        d_k = d // n_heads
        p = random_attention(rng, d)
        x_q = Tensor(rng.normal(size=(t_q, d)))
        x_kv = x_q if t_kv is None else Tensor(rng.normal(size=(t_kv, d)))
        mask = self.mask(kind, t_q, x_kv.values.shape[0])
        r = Tensor(rng.normal(size=(d, 1)))

        tape = Tape()
        z, weights = M.multi_head_attention(x_q, x_kv, mask, p, tape, d_k,
                                            return_weights=True)
        tape.backward(sum_all(matmul(z, r, tape), tape))

        ref_q = Tensor(x_q.values.copy())
        ref_kv = ref_q if t_kv is None else Tensor(x_kv.values.copy())
        wq, wk, wv = (per_head_weights(w, d_k) for w in (p.wq, p.wk, p.wv))
        wo = Tensor(p.wo.values.copy())
        tape = Tape()
        ref_z, ref_weights = per_head_attention(ref_q, ref_kv, mask, wq, wk, wv, wo,
                                                tape, d_k)
        tape.backward(sum_all(matmul(ref_z, r, tape), tape))

        assert weights.shape == (n_heads, t_q, x_kv.values.shape[0])
        assert rel_err(weights, np.array(ref_weights)) <= 1e-12
        assert rel_err(z.values, ref_z.values) <= 1e-12
        pairs = [(x_q.grad, ref_q.grad), (x_kv.grad, ref_kv.grad), (p.wo.grad, wo.grad)]
        pairs += [(w.grad, np.hstack([h.grad for h in heads]))
                  for w, heads in ((p.wq, wq), (p.wk, wk), (p.wv, wv))]
        for got, want in pairs:
            assert rel_err(got, want) <= 1e-12

    def test_tape_length_independent_of_head_count(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 8)))
        lengths = []
        for n_heads in (1, 2, 4):
            tape = Tape()
            M.multi_head_attention(x, x, np.zeros((5, 5)), random_attention(rng, 8),
                                   tape, d_k=8 // n_heads)
            lengths.append(len(tape))
        assert lengths == [lengths[0]] * 3

    def test_seeded_projections_stack_per_head_draws(self, tiny_config):
        params = M.init_parameters(tiny_config, seed=7)
        rng = np.random.default_rng(7)
        v, d, d_k, d_ff = 20, 8, 2, 16

        def xavier(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        def attn():
            heads = [np.hstack([xavier(d, d_k) for _ in range(4)]) for _ in range(3)]
            return heads + [xavier(d, d)]

        # draw order of init_parameters: embedding, encoder layer, decoder layer, out_proj
        xavier(v, d)
        expected = {"enc0.self": attn()}
        xavier(d, d_ff), xavier(d_ff, d)
        expected["dec0.self"] = attn()
        expected["dec0.cross"] = attn()
        xavier(d, d_ff), xavier(d_ff, d)
        assert np.array_equal(params.out_proj.values, xavier(d, v))

        named = dict(params.named())
        for prefix, mats in expected.items():
            for suffix, want in zip(("wq", "wk", "wv", "wo"), mats):
                assert np.array_equal(named[f"{prefix}.{suffix}"].values, want)


class TestFeedForward:
    def test_zero_weights_give_bias(self, tiny_params):
        ffn = tiny_params.encoder[0].ffn
        ffn.w1.values[:] = 0.0
        ffn.w2.values[:] = 0.0
        ffn.b2.values[:] = np.arange(8.0)
        out = M.feed_forward(Tensor(np.ones((3, 8))), ffn, None)
        np.testing.assert_allclose(out.values, np.tile(np.arange(8.0), (3, 1)))

    def test_position_wise(self, tiny_params):
        ffn = tiny_params.encoder[0].ffn
        x = np.random.default_rng(2).normal(size=(4, 8))
        perm = [2, 0, 3, 1]
        out = M.feed_forward(Tensor(x), ffn, None).values
        out_perm = M.feed_forward(Tensor(x[perm]), ffn, None).values
        np.testing.assert_array_equal(out[perm], out_perm)

    def test_hand_arithmetic(self, tiny_params):
        ffn = tiny_params.encoder[0].ffn
        x = np.random.default_rng(3).normal(size=(1, 8))
        out = M.feed_forward(Tensor(x), ffn, None).values
        expected = np.maximum(x @ ffn.w1.values + ffn.b1.values, 0.0) \
            @ ffn.w2.values + ffn.b2.values
        np.testing.assert_allclose(out, expected)


class TestSublayerConnect:
    def test_zero_sublayer_is_layernorm(self, tiny_params):
        norm = tiny_params.encoder[0].norm1
        x = Tensor(np.random.default_rng(1).normal(size=(3, 8)))
        out = M.sublayer_connect(x, Tensor(np.zeros((3, 8))), norm, None)
        from trrgen.tensor import layer_norm
        np.testing.assert_array_equal(out.values,
                                      layer_norm(x, norm.gamma, norm.beta).values)

    def test_pre_affine_statistics(self, tiny_params):
        norm = tiny_params.encoder[0].norm1
        x = Tensor(np.random.default_rng(6).normal(size=(4, 8)))
        fx = Tensor(np.random.default_rng(7).normal(size=(4, 8)))
        out = M.sublayer_connect(x, fx, norm, None)
        np.testing.assert_allclose(out.values.mean(axis=-1), 0.0, atol=1e-6)

    def test_cancellation(self, tiny_params):
        norm = tiny_params.encoder[0].norm1
        x = Tensor(np.random.default_rng(8).normal(size=(2, 8)))
        fx = Tensor(-x.values)
        out = M.sublayer_connect(x, fx, norm, None)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)


def encode_for(variant, rating_id, params, config, src=(10, 11, 12), cat_id=9):
    x = M.embed_review(list(src), rating_id, cat_id, variant, params)
    return M.encode(x, np.zeros(x.values.shape[0]), params, config)


class TestEncoder:
    def test_output_length_matches_input(self, tiny_config, tiny_params):
        enc = encode_for("trrgen_concat", 4, tiny_params, tiny_config)
        assert enc.values.shape == (4, 8)

    @pytest.mark.parametrize("variant", ["trrgen_concat", "trrgen_sum", "trrgen_order"])
    def test_rating_sensitivity(self, tiny_config, tiny_params, variant):
        a = encode_for(variant, 4, tiny_params, tiny_config).values
        b = encode_for(variant, 5, tiny_params, tiny_config).values
        assert np.linalg.norm(a - b) > 0.0

    @pytest.mark.parametrize("variant", ["vanilla", "category_only"])
    def test_rating_insensitive_variants(self, tiny_config, tiny_params, variant):
        a = encode_for(variant, 4, tiny_params, tiny_config).values
        b = encode_for(variant, 5, tiny_params, tiny_config).values
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    def test_review_needs_no_mask(self, variant, monkeypatch):
        """`encode_review` passes no key mask: its states equal, bitwise,
        those under the all-zero mask of a review's keys."""
        config = M.ModelConfig(vocab_size=40, d_model=8, n_heads=2, n_layers=2, d_ff=16,
                               max_tgt_len=10, dropout=0.0, fusion_variant=variant, seed=0)
        params = M.init_parameters(config, seed=0)
        rng = np.random.default_rng(0)
        encode, masks = M.encode, []

        def spy(x, src_mask, *args, **kwargs):
            masks.append(src_mask)
            return encode(x, src_mask, *args, **kwargs)
        for n in (1, 5, 100):
            rec = EncodedRecord(rng.integers(13, 40, n).tolist(), [2, 3], 5, 10)
            with monkeypatch.context() as patch:
                patch.setattr(M, "encode", spy)
                enc = M.encode_review(rec, params, config)
            zero = encode_for(variant, 5, params, config, src=rec.src_ids, cat_id=10)
            assert masks == [None]
            masks.clear()
            np.testing.assert_array_equal(enc.values, zero.values)


class TestDecoder:
    def test_single_sos_gives_one_row(self, tiny_config, tiny_params):
        enc = encode_for("vanilla", 4, tiny_params, tiny_config)
        logits = M.decoder_forward([2], enc, tiny_params, tiny_config)
        assert logits.values.shape == (1, 20)

    def test_causality_bitwise(self, tiny_config, tiny_params):
        rng = np.random.default_rng(0)
        enc = encode_for("trrgen_concat", 4, tiny_params, tiny_config)
        for _ in range(20):
            t = int(rng.integers(3, 9))
            tgt = list(rng.integers(4, 20, size=t))
            j = int(rng.integers(1, t))
            base = M.decoder_forward(tgt, enc, tiny_params, tiny_config).values
            perturbed = list(tgt)
            perturbed[j] = (perturbed[j] + 1 - 4) % 16 + 4
            got = M.decoder_forward(perturbed, enc, tiny_params, tiny_config).values
            assert np.array_equal(base[:j], got[:j])

    @pytest.mark.parametrize("variant", ["trrgen_concat", "trrgen_order"])
    @pytest.mark.parametrize("width", range(1, 6))
    def test_prefix_batch_equals_single_prefixes(self, tiny_config, tiny_params, variant,
                                                 width):
        enc = encode_for(variant, 4, tiny_params, tiny_config, src=(10, 11, 12, 13))
        prefixes = np.random.default_rng(width).integers(2, 20, size=(width, 6))
        batch = M.decoder_forward(prefixes, enc, tiny_params, tiny_config).values
        assert batch.shape == (width, 6, 20)
        for prefix, logits in zip(prefixes, batch):
            single = M.decoder_forward(list(prefix), enc, tiny_params, tiny_config).values
            assert np.max(np.abs(logits - single)) <= 1e-12

    def test_too_long_target_rejected(self, tiny_config, tiny_params):
        enc = encode_for("vanilla", 4, tiny_params, tiny_config)
        with pytest.raises(M.ConfigError):
            M.decoder_forward([2] * 25, enc, tiny_params, tiny_config)

    def test_zero_cross_value_projection_ignores_encoder(self, tiny_config, tiny_params):
        import copy
        params = copy.deepcopy(tiny_params)
        params.decoder[0].cross_attn.wv.values[:] = 0.0
        enc_a = encode_for("vanilla", 4, params, tiny_config, src=(10, 11))
        enc_b = encode_for("vanilla", 4, params, tiny_config, src=(15, 16))
        la = M.decoder_forward([2, 10], enc_a, params, tiny_config).values
        lb = M.decoder_forward([2, 10], enc_b, params, tiny_config).values
        np.testing.assert_allclose(la, lb, atol=1e-12)


class TestMatchesReferenceDecoder:
    """The decoder core against the `multi_head_attention` decoder kept in
    `tests/decode_reference.py`: per-example teacher-forced training
    (`tests/training_reference.py`) must record the same tape and give
    bitwise the same loss and gradients."""

    BATCH = [EncodedRecord([10, 11, 12], [2, 13, 14, 3], 4, 9),
             EncodedRecord([15, 16], [2, 17, 3], 5, 9),
             EncodedRecord([12, 14, 16, 18, 19], [2, 5, 6, 7, 8, 9, 3], 6, 9)]

    @staticmethod
    def run(batch, config):
        params = M.init_parameters(config)
        tape = Tape()
        loss = training_reference.forward_training(batch, params, config, tape,
                                                   np.random.default_rng(11))
        tape.backward(loss)
        return float(loss.values), len(tape), [(name, t.grad) for name, t in params.named()]

    def check(self, batch, config, monkeypatch, tape_shorter_by=0):
        loss, entries, grads = self.run(batch, config)
        monkeypatch.setattr(M, "decoder_forward", ref.decoder_forward)
        want_loss, want_entries, want_grads = self.run(batch, config)
        assert loss == want_loss
        assert entries == want_entries - tape_shorter_by
        for (name, g), (_, want) in zip(grads, want_grads):
            assert (g is None) == (want is None), name
            assert g is None or np.array_equal(g, want), name

    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_training_bitwise(self, variant, n_layers, p, monkeypatch):
        config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=n_layers,
                               d_ff=16, max_tgt_len=10, dropout=p,
                               fusion_variant=variant, seed=n_layers)
        self.check(self.BATCH, config, monkeypatch)

    def test_single_position_target_skips_the_mask(self, monkeypatch):
        """An empty response gives a one-position target, which sees every
        key, so the core adds no mask: one tape entry fewer per layer."""
        config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=2, d_ff=16,
                               max_tgt_len=10, dropout=0.1)
        batch = self.BATCH[:1] + [EncodedRecord([15, 16], [2, 3], 5, 9)]
        self.check(batch, config, monkeypatch, tape_shorter_by=config.n_layers)


def random_batch(rng, size, vocab=20):
    """Ragged records: 1–7 review tokens, 1–7 target positions."""
    return [EncodedRecord(list(rng.integers(10, vocab, rng.integers(1, 8))),
                          [SOS_ID] + list(rng.integers(4, vocab, rng.integers(0, 7))) + [3],
                          int(rng.integers(4, 9)), 9)
            for _ in range(size)]


class TestPackedMatchesPerExample:
    """Packed `forward_training` against the per-example oracle in
    `tests/training_reference.py`, fed each example's rows of the packed
    dropout masks, on random ragged batches: the same loss and gradients
    within 1e-10 relative error, and the dropout generator left in the same
    state, so the masks were drawn in the same order."""

    @staticmethod
    def run(forward, batch, config):
        params = M.init_parameters(config)
        rng = np.random.default_rng(11)
        tape = Tape()
        loss = forward(batch, params, config, tape, rng)
        tape.backward(loss)
        return float(loss.values), len(tape), [(n, t.grad) for n, t in params.named()], rng.random()

    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_loss_gradients_and_draws(self, variant, n_layers, p):
        config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=n_layers,
                               d_ff=16, max_tgt_len=10, dropout=p,
                               fusion_variant=variant, seed=n_layers)
        rng = np.random.default_rng(M.FUSION_VARIANTS.index(variant) * 4 + n_layers)
        for size in (1, 2, 5):
            batch = random_batch(rng, size)
            loss, entries, grads, draw = self.run(M.forward_training, batch, config)
            want_loss, want_entries, want_grads, want_draw = self.run(
                lambda batch, params, config, tape, rng: training_reference.forward_training(
                    batch, params, config, tape,
                    training_reference.PackedReplay(rng, batch, config)),
                batch, config)
            assert abs(loss - want_loss) <= 1e-10 * abs(want_loss)
            assert draw == want_draw
            for (name, g), (_, want) in zip(grads, want_grads):
                assert (g is None) == (want is None), name
                assert g is None or np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want)), name
            if size == 5:
                assert entries < want_entries / 2

    def test_too_long_target_rejected(self, tiny_config, tiny_params):
        batch = [EncodedRecord([10], [SOS_ID] + [5] * tiny_config.max_tgt_len + [3], 4, 9)]
        with pytest.raises(M.ConfigError, match="exceeds max_tgt_len"):
            M.forward_training(batch, tiny_params, tiny_config)

    def test_review_without_tokens_rejected(self, tiny_config, tiny_params):
        batch = [EncodedRecord([10], [SOS_ID, 3], 4, 9), EncodedRecord([], [SOS_ID, 3], 4, 9)]
        with pytest.raises(M.ConfigError, match="at least one token"):
            M.forward_training(batch, tiny_params, tiny_config)


def _reachable(fn):
    """Every object a recorded backward closure reaches through closure
    cells, default arguments and the items of lists, tuples and dicts."""
    seen, stack = set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory of `a`, which may be a view."""
    while a.base is not None:
        a = a.base
    return a


class TestTapeKeepsOnlyWhatRulesRead:
    """A recorded rule holds the arrays it reads and gradient slots, never a
    tensor, so packed training frees each intermediate that no rule reads
    during the forward pass, and backward frees each entry once it has run."""

    BATCH = TestMatchesReferenceDecoder.BATCH

    @staticmethod
    def config(variant="trrgen_concat", n_layers=1):
        return M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=n_layers,
                             d_ff=16, max_tgt_len=10, dropout=0.1,
                             fusion_variant=variant, seed=n_layers)

    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_no_recorded_closure_reaches_a_tensor(self, variant, n_layers, monkeypatch):
        recorded, record = [], Tape.record

        def keep(tape, backward_fn):
            recorded.append(backward_fn)
            record(tape, backward_fn)
        monkeypatch.setattr(Tape, "record", keep)
        config = self.config(variant, n_layers)
        tape = Tape()
        M.forward_training(self.BATCH, M.init_parameters(config), config, tape,
                           np.random.default_rng(0))
        assert len(recorded) == len(tape) > 0
        for fn in recorded:
            held = [type(obj).__name__ for obj in _reachable(fn) if isinstance(obj, Tensor)]
            assert not held, (fn.__qualname__, held)

    def traced_forward(self, monkeypatch, tape, config):
        """Weak references to the buffers of the residual sums (LayerNorm
        inputs), of the dropped-out sublayer outputs, of the sublayer outputs
        before dropout and of the FFN pre-activations (ReLU inputs), and to
        the softmax outputs, of one packed `forward_training`."""
        refs = {"residual": [], "dropped": [], "sublayer": [], "relu_input": [],
                "softmax": []}
        connect, drop, soft, relu = M.sublayer_connect, M.dropout, M.softmax, M.relu
        dropout_inputs = {}  # id of a dropout's output -> its input's buffer

        def traced_connect(x, fx, norm, tape):
            refs["dropped"].append(weakref.ref(_buffer(fx.values)))
            refs["sublayer"].append(dropout_inputs[id(fx)])
            real_norm = M.layer_norm

            def traced_norm(x, *args):
                refs["residual"].append(weakref.ref(_buffer(x.values)))
                return real_norm(x, *args)
            monkeypatch.setattr(M, "layer_norm", traced_norm)
            try:
                return connect(x, fx, norm, tape)
            finally:
                monkeypatch.setattr(M, "layer_norm", real_norm)

        def traced_dropout(x, *args):
            out = drop(x, *args)
            dropout_inputs[id(out)] = weakref.ref(_buffer(x.values))
            return out

        def traced_softmax(a, *args, **kwargs):
            out = soft(a, *args, **kwargs)
            refs["softmax"].append(weakref.ref(_buffer(out.values)))
            return out

        def traced_relu(a, tape):
            refs["relu_input"].append(weakref.ref(_buffer(a.values)))
            return relu(a, tape)
        monkeypatch.setattr(M, "sublayer_connect", traced_connect)
        monkeypatch.setattr(M, "relu", traced_relu)
        monkeypatch.setattr(M, "dropout", traced_dropout)
        monkeypatch.setattr(M, "softmax", traced_softmax)
        loss = M.forward_training(self.BATCH, M.init_parameters(config), config, tape,
                                  np.random.default_rng(0))
        return loss, refs

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_sublayer_outputs_are_freed_by_the_end_of_forward(self, n_layers, monkeypatch):
        tape = Tape()
        loss, refs = self.traced_forward(monkeypatch, tape, self.config(n_layers=n_layers))
        for name in ("residual", "dropped", "sublayer", "relu_input"):
            # 2 encoder and 3 decoder sublayers per layer, of which 2 are FFNs
            assert len(refs[name]) == (2 if name == "relu_input" else 5) * n_layers
            assert [r() is None for r in refs[name]] == [True] * len(refs[name]), name
        assert all(r() is not None for r in refs["softmax"])  # read by their rules
        tape.backward(loss)
        assert all(r() is None for r in refs["softmax"])

    def test_backward_drops_each_entry_before_running_it(self, monkeypatch):
        """By the time backward reaches the first entry, every later entry and
        the arrays its rule read are gone, while the tape itself lives on."""
        tape, seen, softmax_refs = Tape(), [], []
        tape.record(lambda: seen.append([r() is not None for r in softmax_refs]))
        loss, refs = self.traced_forward(monkeypatch, tape, self.config(n_layers=2))
        softmax_refs += refs["softmax"]
        assert softmax_refs and all(r() is not None for r in softmax_refs)
        tape.backward(loss)
        assert seen == [[False] * len(softmax_refs)]


class RecordingGenerator:
    """A dropout generator that records the shape of every draw."""

    def __init__(self, seed):
        self._rng, self.shapes = np.random.default_rng(seed), []

    def random(self, shape):
        self.shapes.append(tuple(shape))
        return self._rng.random(shape)


class TestPackedDropoutDraws:
    """Packed training draws one mask per dropout site over all the batch's
    rows: the encoder's 1 + 2L sites over the fused review rows, then the
    decoder's 1 + 3L sites over the target rows."""

    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_one_draw_per_site_over_all_rows(self, variant, n_layers):
        config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=n_layers,
                               d_ff=16, max_tgt_len=10, dropout=0.1, fusion_variant=variant)
        batch = [EncodedRecord([10, 11, 12], [SOS_ID, 13, 3], 4, 9),
                 EncodedRecord([15], [SOS_ID, 17, 18, 19, 3], 5, 9),
                 EncodedRecord([12, 14, 16, 18], [SOS_ID, 3], 6, 9)]
        rng = RecordingGenerator(0)
        M.forward_training(batch, M.init_parameters(config), config, Tape(), rng)
        n_s = 8 + 3 * len(M.FUSION[variant][1])
        n_t = 7
        assert rng.shapes == ([(n_s, 8)] * (1 + 2 * n_layers) +
                              [(n_t, 8)] * (1 + 3 * n_layers))

    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_one_example_matches_oracle_on_the_raw_generator(self, variant, n_layers):
        """With one example, the packed masks are that example's own, so the
        oracle needs no replay."""
        config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=n_layers,
                               d_ff=16, max_tgt_len=10, dropout=0.1,
                               fusion_variant=variant, seed=n_layers)
        batch = random_batch(np.random.default_rng(n_layers), 1)
        run = TestPackedMatchesPerExample.run
        loss, _, grads, draw = run(M.forward_training, batch, config)
        want_loss, _, want_grads, want_draw = run(training_reference.forward_training,
                                                  batch, config)
        assert abs(loss - want_loss) <= 1e-10 * abs(want_loss)
        assert draw == want_draw
        for (name, g), (_, want) in zip(grads, want_grads):
            assert (g is None) == (want is None), name
            assert g is None or np.max(np.abs(g - want)) <= 1e-10 * np.max(np.abs(want)), name


class TestEmbedRowsMatchesGather:
    """The packed encoder input, whose prepended feature rows are cut and
    joined in ahead of each review's tokens, against the gather through the
    activations that placed them before (`tests/training_reference.py`):
    bitwise the same loss and gradients, with dropout on."""

    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    def test_loss_and_gradients_bitwise(self, variant, monkeypatch):
        config = M.ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_layers=2, d_ff=32,
                               max_tgt_len=10, dropout=0.1, fusion_variant=variant, seed=3)
        batch = random_batch(np.random.default_rng(M.FUSION_VARIANTS.index(variant)), 5)
        loss, _, grads, draw = TestPackedMatchesPerExample.run(M.forward_training, batch, config)
        monkeypatch.setattr(M, "_embed_rows", training_reference.embed_rows_by_gather)
        want_loss, _, want_grads, want_draw = TestPackedMatchesPerExample.run(
            M.forward_training, batch, config)
        assert loss == want_loss and draw == want_draw
        for (name, g), (_, want) in zip(grads, want_grads):
            assert np.array_equal(g, want), name


class TestDecoderStep:
    """The cached one-position step against the reference decoder over whole
    prefixes."""

    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_matches_last_row_of_full_prefix(self, variant, n_layers):
        config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=n_layers,
                               d_ff=16, max_tgt_len=10, dropout=0.0,
                               fusion_variant=variant, seed=n_layers)
        params = M.init_parameters(config)
        enc = M.encode_review(EncodedRecord([10, 11, 12], [2, 3], 4, 9), params, config)
        rng = np.random.default_rng(n_layers)
        for width in range(1, 6):
            cache = M.init_group_cache([enc], params, config)
            prefixes = np.full((1, 1), SOS_ID)
            for pos in range(config.max_tgt_len):
                got = M.decoder_step(prefixes[:, -1], cache, params, config)
                want = ref.decoder_forward(prefixes, enc, params, config).values[:, -1]
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12, (width, pos)
                # the next hypotheses descend from random rows, so parents
                # repeat and drop out as they do under beam selection
                rows = rng.integers(0, len(prefixes), width)
                if (width, pos) == (3, 1):
                    rows = [0, 0, 2]
                cache.select(rows)
                prefixes = np.concatenate([prefixes[rows], rng.integers(0, 20, (width, 1))],
                                          axis=1)
            with pytest.raises(M.ConfigError, match="max_tgt_len"):
                M.decoder_step(prefixes[:, -1], cache, params, config)


    @pytest.mark.parametrize("variant", M.FUSION_VARIANTS)
    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_group_rows_match_last_row_of_their_review(self, variant, n_layers):
        """A group cache over reviews of 1, 3 and 5 tokens: every row's logits
        are the last row of the reference decoder over that row's prefix and
        its own review, whichever rows each review keeps."""
        config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=n_layers,
                               d_ff=16, max_tgt_len=10, dropout=0.0,
                               fusion_variant=variant, seed=n_layers)
        params = M.init_parameters(config)
        records = [EncodedRecord([10], [2, 3], 4, 9),
                   EncodedRecord([11, 12, 13], [2, 3], 5, 17),
                   EncodedRecord([14, 15, 16, 17, 18], [2, 3], 6, 9)]
        encs = [M.encode_review(rec, params, config) for rec in records]
        rng = np.random.default_rng(n_layers)
        cache = M.init_group_cache(encs, params, config)
        prefixes = [[SOS_ID] for _ in records]
        for pos in range(config.max_tgt_len):
            got = M.decoder_step([p[-1] for p in prefixes], cache, params, config)
            assert got.shape == (len(prefixes), config.vocab_size)
            for row, (r, prefix) in enumerate(zip(cache.reviews, prefixes)):
                want = ref.decoder_forward(prefix, encs[r], params, config).values[-1]
                assert np.max(np.abs(got[row] - want)) <= 1e-12, (pos, row)
            # each review keeps 0-4 rows drawn from its own, so live counts
            # differ and reviews drop out; one row always stays
            rows = []
            for r in sorted(set(cache.reviews.tolist())):
                rows += rng.choice(np.flatnonzero(cache.reviews == r), rng.integers(0, 5)).tolist()
            rows = rows or [len(prefixes) - 1]
            cache.select(rows)
            prefixes = [prefixes[row] + [int(rng.integers(0, 20))] for row in rows]
        with pytest.raises(M.ConfigError, match="max_tgt_len"):
            M.decoder_step([p[-1] for p in prefixes], cache, params, config)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # set directly, nothing overflows
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_logit_raises(self, value):
        """A NaN or +inf logit at one id is an error, not a token: argmax
        would pick a NaN's id, and a log-softmax over +inf is NaN."""
        config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                               max_tgt_len=10, dropout=0.0)
        params = M.init_parameters(config)
        params.out_bias.values[7] = value
        encs = [M.encode_review(EncodedRecord(src, [2, 3], 4, 9), params, config)
                for src in ([10], [11, 12])]
        cache = M.init_group_cache(encs, params, config)
        with pytest.raises(FloatingPointError, match="^non-finite decoder logits$"):
            M.decoder_step(np.full(2, SOS_ID), cache, params, config)


SCREEN_CASES = ("plain", "banned", "zero_out_proj", "equal_columns", "ulp_columns",
                "near_columns", "float32_overflow")


def screened_model(seed, case, scale, vocab_size=16):
    """A tiny model set up for `case`, whose final hidden states are about
    `scale` in size (norm3's gamma and beta scaled), with ids 5 and 11 the
    two contenders of the column cases. Near columns differ by about a
    float32 ulp, so float32 rounding can swap their order."""
    config = M.ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                           max_tgt_len=6, dropout=0.0, seed=seed)
    params = M.init_parameters(config)
    rng = np.random.default_rng(seed)
    norm = params.decoder[-1].norm3
    norm.gamma.values[:] = scale * rng.uniform(0.5, 2.0, config.d_model)
    norm.beta.values[:] = scale * rng.normal(size=config.d_model)
    w, b = params.out_proj.values, params.out_bias.values
    b[:] = rng.normal(size=vocab_size) if seed % 2 else 0.0
    if case == "banned":
        b[rng.choice(vocab_size, 4, replace=False)] = [-np.inf, -np.inf, -1e9, -1e9]
    elif case == "zero_out_proj":
        w[:] = 0.0
    elif case.endswith("columns"):
        w[:, 11] = {"equal_columns": w[:, 5], "ulp_columns": np.nextafter(w[:, 5], np.inf),
                    "near_columns": w[:, 5] * (1 + 2.0 ** -23 * rng.uniform(-1, 1, config.d_model))
                    }[case]
        b[[5, 11]] = 10.0
    elif case == "float32_overflow":
        w[rng.integers(config.d_model), rng.integers(vocab_size)] = 1e39
    return params, config


def group_cache(params, config, rows, seed):
    rng = np.random.default_rng(seed)
    encs = [M.encode_review(EncodedRecord(rng.integers(10, 16, n).tolist(), [2, 3], 4, 9),
                            params, config) for n in rng.integers(1, 4, rows)]
    return M.init_group_cache(encs, params, config)


class TestGreedyStep:
    """The float32-screened greedy step against `decoder_step(...).argmax(axis=1)`."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from(SCREEN_CASES), st.integers(1, 8),
           st.sampled_from([1e-45, 1e-40, 1e-30, 1e-8, 1.0, 1e8, 1e30, 1e40]))
    def test_tokens_equal_the_float64_argmax(self, seed, case, rows, scale):
        params, config = screened_model(seed, case, scale)
        screen = M.greedy_screen(params)
        caches = [group_cache(params, config, rows, seed) for _ in range(2)]
        rng = np.random.default_rng(seed)
        tokens = np.full(rows, SOS_ID)
        for _ in range(config.max_tgt_len):
            with mock.patch.object(M, "_checked_logits", wraps=M._checked_logits) as fallback:
                got = M.greedy_step(tokens, caches[0], params, config, screen)
            logits = M.decoder_step(tokens, caches[1], params, config)
            assert np.array_equal(got, logits.argmax(axis=1))
            if case == "float32_overflow" or case in ("equal_columns", "ulp_columns") and any(
                    set(np.argsort(row)[-2:]) == {5, 11} for row in logits):
                assert fallback.called, "a float32 overflow or a near tie passed the screen"
            tokens = rng.integers(0, config.vocab_size, rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float32_infinity_hiding_the_top_falls_back(self):
        """Id 1's float32 sum is −inf while its float64 logit is the largest.
        Biases of −1e60 leave id 0 the only finite contender, far ahead of the
        rest, so only the finiteness check keeps the screen from taking it."""
        config = M.ModelConfig(vocab_size=16, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                               max_tgt_len=2, dropout=0.0, seed=0)
        params = M.init_parameters(config)
        norm = params.decoder[-1].norm3
        norm.gamma.values[:], norm.beta.values[:] = 0.0, [1e-10] + [1e15] * 7  # h = beta
        params.out_proj.values[:] = 0.1
        params.out_proj.values[:, 1] = [-1e39] + [1e15] * 7  # float32: −inf; float64: 7e30
        params.out_bias.values[2:] = -1e60
        cache = group_cache(params, config, 1, 0)
        got = M.greedy_step(np.full(1, SOS_ID), cache, params, config, M.greedy_screen(params))
        assert got.tolist() == [1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from(SCREEN_CASES[:-1]), st.integers(1, 8),
           st.sampled_from([1e-45, 1e-40, 1e-30, 1e-8, 1.0, 1e8, 1e30]))
    def test_float32_logits_within_the_bound(self, seed, case, rows, scale):
        """Entry by entry, ℓ̃ = fl32(h) @ fl32(out_proj) + out_bias (float64)
        lies within (1 − ε)B(h, ℓ̃) − ε|ℓ̃|/2 of `decoder_step`'s logit ℓ, the
        room `greedy_screen` states."""
        params, config = screened_model(seed, case, scale)
        (w32, bound), eps = M.greedy_screen(params), 2.0 ** -50
        cache = group_cache(params, config, rows, seed)
        for _ in range(config.max_tgt_len):
            tokens = np.random.default_rng(cache.length).integers(0, config.vocab_size, rows)
            h = M._decode_positions(tokens[:, None], cache, params, config).values[:, 0]
            logits = M._logits(M.Tensor(h[:, None]), params).values[:, 0]
            screened = h.astype(np.float32) @ w32 + params.out_bias.values
            finite = np.isfinite(logits)  # ids banned by a -inf bias are -inf in both
            assert np.array_equal(finite, np.isfinite(screened))
            x = np.where(finite, screened, 0.0)
            room = (1 - eps) * bound(h, x) - eps * abs(x) / 2
            assert (np.abs(logits[finite] - screened[finite]) <= room[finite]).all()

    def test_few_single_review_steps_fall_back(self):
        """At paper shape (d 256, V ≈ 8k), at most 5% of single-review steps
        take the float64 logits. 1 of these 320 does; with the bound loosened
        50-fold, 44 would, so a bound loosened by mistake fails here."""
        config = M.ModelConfig(vocab_size=8103, d_model=256, n_heads=4, n_layers=1, d_ff=1024,
                               max_tgt_len=41, dropout=0.0, seed=1)
        params = M.init_parameters(config)
        params.out_bias.values[:4] = -1e9  # ⟨pad⟩, ⟨unk⟩, ⟨sos⟩ and ⟨eos⟩: every step runs
        rng = np.random.default_rng(1)
        records = [EncodedRecord(rng.integers(20, 8103, n).tolist(), [2, 3], 4, 9)
                   for n in rng.integers(5, 60, 8)]
        with mock.patch.object(generation, "greedy_step", wraps=M.greedy_step) as steps, \
                mock.patch.object(M, "_checked_logits", wraps=M._checked_logits) as fallbacks:
            for rec in records:
                assert len(generation.generate(rec, params, config,
                                               generation.DecodeConfig(max_len=40))) == 40
        assert steps.call_count == 8 * 40
        assert fallbacks.call_count <= 0.05 * steps.call_count


class TestGroupCache:
    """Key masks only for padded groups, kept row for row through `select`."""

    def cache(self, sources):
        config = M.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=2, d_ff=16,
                               max_tgt_len=10, dropout=0.0, fusion_variant="trrgen_order")
        params = M.init_parameters(config)
        encs = [M.encode_review(EncodedRecord(src, [2, 3], 4, 9), params, config)
                for src in sources]
        cache = M.init_group_cache(encs, params, config)
        M.decoder_step(np.full(len(sources), SOS_ID), cache, params, config)
        return cache

    @pytest.mark.parametrize("sources", [[[10]], [[10, 11, 12]] * 2, [[10, 11], [12, 13]]])
    def test_no_mask_without_padding(self, sources):
        assert self.cache(sources).src_mask is None

    def test_padded_group_keeps_its_mask_through_select(self):
        cache = self.cache([[10], [11, 12, 13], [14, 15]])
        mask = cache.src_mask
        assert mask.shape == (3, 1, 1, 5)
        assert np.array_equal(mask[:, 0, 0] == 0, [[1, 1, 1, 0, 0], [1] * 5, [1, 1, 1, 1, 0]])
        for rows in ([2, 0, 0, 1], [1, 2], [1]):
            cache.select(rows)
            mask = mask[rows]
            assert np.array_equal(cache.src_mask, mask)


class TestForwardTraining:
    def records(self):
        return [EncodedRecord([10, 11, 12], [2, 13, 14, 3], 4, 9),
                EncodedRecord([15, 16], [2, 17, 3], 5, 9)]

    def test_uniform_init_loss_near_log_v(self, tiny_config):
        params = M.init_parameters(tiny_config)
        params.out_proj.values[:] = 0.0
        params.out_bias.values[:] = 0.0
        loss = M.forward_training(self.records(), params, tiny_config)
        np.testing.assert_allclose(float(loss.values), math.log(20), atol=1e-12)

    def test_duplicated_batch_same_mean_loss(self, tiny_config, tiny_params):
        recs = self.records()
        l1 = M.forward_training(recs, tiny_params, tiny_config)
        l2 = M.forward_training(recs + recs, tiny_params, tiny_config)
        np.testing.assert_allclose(float(l1.values), float(l2.values), atol=1e-12)

    def test_empty_batch_rejected(self, tiny_config, tiny_params):
        with pytest.raises(ValueError):
            M.forward_training([], tiny_params, tiny_config)

    def test_determinism(self, tiny_config, tiny_params):
        l1 = M.forward_training(self.records(), tiny_params, tiny_config)
        l2 = M.forward_training(self.records(), tiny_params, tiny_config)
        assert float(l1.values) == float(l2.values)

    def test_full_model_grad_check(self, tiny_config, tiny_params):
        recs = self.records()
        def build(tape):
            return M.forward_training(recs, tiny_params, tiny_config, tape)
        assert grad_check(build, tiny_params.all_tensors()) <= 1e-4


class TestInit:
    def test_same_seed_bitwise_identical(self, tiny_config):
        a = M.init_parameters(tiny_config, seed=3)
        b = M.init_parameters(tiny_config, seed=3)
        for (na, ta), (nb, tb) in zip(a.named(), b.named()):
            assert na == nb and np.array_equal(ta.values, tb.values)

    def test_different_seeds_differ(self, tiny_config):
        a = M.init_parameters(tiny_config, seed=3)
        b = M.init_parameters(tiny_config, seed=4)
        assert not np.array_equal(a.embedding.values, b.embedding.values)

    def test_embedding_row_norms_bounded(self, tiny_config):
        params = M.init_parameters(tiny_config, seed=0)
        v, d = params.embedding.values.shape
        limit = math.sqrt(6.0 / (v + d))
        norms = np.linalg.norm(params.embedding.values, axis=1)
        assert np.all(norms <= limit * math.sqrt(d) + 1e-12)

    def test_norm_params_identity(self, tiny_config):
        params = M.init_parameters(tiny_config)
        np.testing.assert_array_equal(params.encoder[0].norm1.gamma.values, np.ones(8))
        np.testing.assert_array_equal(params.decoder[0].ffn.b1.values, np.zeros(16))
