"""Feature-fused Transformer encoder-decoder.

The encoder input can fuse two review-level features into the token
embeddings: the rating (added as a vector to every token) and the app
category (prepended as an extra position or summed in), selected by
`fusion_variant`. Sublayers use post-norm ordering: LayerNorm(x + f(x)).

The decoder is one core, `_decode_positions`: `decoder_forward` runs a whole
target through it from an empty key/value cache, and `decoder_step` one new
position. `tests/decode_reference.py` keeps a reference decoder as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .tensor import (Tensor, Tape, matmul, add, scale, relu, softmax, layer_norm,
                     concat_rows, split_heads, merge_heads, embedding_lookup, dropout,
                     cross_entropy_logits)
from .corpus import EncodedRecord

FUSION_VARIANTS = ("vanilla", "rating_only", "category_only",
                   "trrgen_concat", "trrgen_sum", "trrgen_order")

NEG_INF = -np.inf


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 256
    n_heads: int = 4
    n_layers: int = 1
    d_ff: int = 1024
    max_tgt_len: int = 120
    fusion_variant: str = "trrgen_concat"
    dropout: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.d_model < 2 or self.d_model % 2 != 0:
            raise ConfigError("d_model must be even and >= 2 for sinusoidal positions")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError("n_heads must be >= 1 and divide d_model")
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        if self.max_tgt_len < 2:
            raise ConfigError("max_tgt_len must be >= 2")
        if self.fusion_variant not in FUSION_VARIANTS:
            raise ConfigError(f"unknown fusion_variant {self.fusion_variant!r}")

    @property
    def d_k(self):
        return self.d_model // self.n_heads


@dataclass
class AttentionParams:
    # Each d_model x d_model. Head h owns columns h*d_k:(h+1)*d_k of wq, wk
    # and wv, and rows h*d_k:(h+1)*d_k of wo.
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


@dataclass
class FeedForwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class NormParams:
    gamma: Tensor
    beta: Tensor


@dataclass
class EncoderLayerParams:
    self_attn: AttentionParams
    norm1: NormParams
    ffn: FeedForwardParams
    norm2: NormParams


@dataclass
class DecoderLayerParams:
    self_attn: AttentionParams
    norm1: NormParams
    cross_attn: AttentionParams
    norm2: NormParams
    ffn: FeedForwardParams
    norm3: NormParams


@dataclass
class Parameters:
    embedding: Tensor   # vocab x d_model; rows for rating/category escape tokens too
    encoder: list[EncoderLayerParams]
    decoder: list[DecoderLayerParams]
    out_proj: Tensor    # d_model x vocab
    out_bias: Tensor

    def named(self):
        """Deterministic (name, tensor) walk, used by the optimizer and checkpoints:
        the embedding, then `enc{i}.<sublayer>.<weight>` and `dec{i}.…` in field
        order (`self_attn`/`cross_attn` named `self`/`cross`), then the output layer."""
        yield "embedding", self.embedding
        for prefix, layers in (("enc", self.encoder), ("dec", self.decoder)):
            for i, layer in enumerate(layers):
                for sub in fields(layer):
                    block = getattr(layer, sub.name)
                    for f in fields(block):
                        name = f"{prefix}{i}.{sub.name.removesuffix('_attn')}.{f.name}"
                        yield name, getattr(block, f.name)
        yield "out_proj", self.out_proj
        yield "out_bias", self.out_bias

    def all_tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]


@dataclass
class EncoderOutput:
    states: Tensor          # [..., fused length, d_model]
    src_mask: np.ndarray    # additive key mask (0 or -inf), broadcast onto the scores


# ---------------------------------------------------------------------------
# initialization


def _xavier(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def build_parameters(config: ModelConfig, weight) -> Parameters:
    """The parameter tree: weight matrices from `weight(fan_in, fan_out)`,
    called in a fixed order, unit gammas, zero betas and biases. Loaders that
    overwrite every tensor pass `np.empty`-like weights and draw nothing."""
    d, dk, dff, v = config.d_model, config.d_k, config.d_ff, config.vocab_size

    def heads():
        # one block per head, in head order, as fused columns
        return Tensor(np.hstack([weight(d, dk) for _ in range(config.n_heads)]))

    def attn():
        return AttentionParams(wq=heads(), wk=heads(), wv=heads(), wo=Tensor(weight(d, d)))

    def ffn():
        return FeedForwardParams(w1=Tensor(weight(d, dff)), b1=Tensor(np.zeros(dff)),
                                 w2=Tensor(weight(dff, d)), b2=Tensor(np.zeros(d)))

    def norm():
        return NormParams(gamma=Tensor(np.ones(d)), beta=Tensor(np.zeros(d)))

    return Parameters(
        embedding=Tensor(weight(v, d)),
        encoder=[EncoderLayerParams(attn(), norm(), ffn(), norm())
                 for _ in range(config.n_layers)],
        decoder=[DecoderLayerParams(attn(), norm(), attn(), norm(), ffn(), norm())
                 for _ in range(config.n_layers)],
        out_proj=Tensor(weight(d, v)),
        out_bias=Tensor(np.zeros(v)))


def init_parameters(config: ModelConfig, seed: int | None = None) -> Parameters:
    """Xavier-uniform weights, unit gammas, zero betas and biases; seed-determined."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    return build_parameters(config, partial(_xavier, rng))


# ---------------------------------------------------------------------------
# building blocks


def positional_encoding(seq_len: int, d_model: int, start: int = 0) -> np.ndarray:
    """Sinusoidal rows for positions start … start + seq_len − 1:
    PE[pos, 2i] = sin(pos / 10000^(2i/d)), PE[pos, 2i+1] = cos(pos / 10000^(2i/d))."""
    if seq_len < 1:
        raise ConfigError("seq_len must be >= 1")
    if d_model % 2 != 0:
        raise ConfigError("d_model must be even")
    pos = np.arange(start, start + seq_len, dtype=np.float64)[:, None]
    two_i = np.arange(0, d_model, 2, dtype=np.float64)
    angle = pos / np.power(10000.0, two_i / d_model)
    pe = np.empty((seq_len, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


def causal_mask(n: int, start: int = 0) -> np.ndarray:
    """Additive [n, start + n] mask: query i, at position start + i, sees the
    keys at positions 0 … start + i."""
    return np.triu(np.full((n, start + n), NEG_INF), k=start + 1)


def _heads(x: Tensor, w: Tensor, d_k: int, tape: Tape | None, keys: bool = False) -> Tensor:
    """x @ w split into heads; see `split_heads`."""
    return split_heads(matmul(x, w, tape), d_k, tape, keys)


def _attend(q: Tensor, k_t: Tensor, v: Tensor, mask: np.ndarray | None,
            tape: Tape | None) -> tuple[Tensor, Tensor]:
    """softmax(Q Kᵀ / sqrt(d_k) + mask) V from [..., H, Tq, d_k] queries,
    [..., H, d_k, Tk] keys and [..., H, Tk, d_k] values, with heads merged to
    [..., Tq, H*d_k], ready for Wo; also returns the [..., H, Tq, Tk] weights.
    A `None` mask masks nothing."""
    scores = scale(matmul(q, k_t, tape), 1.0 / np.sqrt(q.values.shape[-1]), tape)
    if mask is not None:
        scores = add(scores, mask, tape)
    attn = softmax(scores, tape, axis=-1)
    return merge_heads(matmul(attn, v, tape), tape), attn


def multi_head_attention(x_q: Tensor, x_kv: Tensor, mask: np.ndarray,
                         p: AttentionParams, tape: Tape | None,
                         d_k: int, return_weights: bool = False):
    """softmax(Q Kᵀ / sqrt(d_k) + mask) V for all heads at once, merged and
    projected by Wo; with `return_weights`, also the [..., H, Tq, Tk] weights.

    Inputs are [..., T, d] with leading batch axes that broadcast, such as
    [W, Tq, d] queries against one [Tk, d] encoder output; the additive mask
    broadcasts onto the [..., H, Tq, Tk] scores."""
    tq, tk = x_q.values.shape[-2], x_kv.values.shape[-2]
    if any(m not in (1, n) for n, m in zip((tk, tq), mask.shape[::-1])):
        raise ConfigError(f"mask shape {mask.shape} does not broadcast to {(tq, tk)}")
    z, attn = _attend(_heads(x_q, p.wq, d_k, tape), _heads(x_kv, p.wk, d_k, tape, keys=True),
                      _heads(x_kv, p.wv, d_k, tape), mask, tape)
    z = matmul(z, p.wo, tape)
    if return_weights:
        return z, attn.values
    return z


def feed_forward(x: Tensor, p: FeedForwardParams, tape: Tape | None) -> Tensor:
    h = relu(add(matmul(x, p.w1, tape), p.b1, tape), tape)
    return add(matmul(h, p.w2, tape), p.b2, tape)


def sublayer_connect(x: Tensor, fx: Tensor, norm: NormParams, tape: Tape | None) -> Tensor:
    return layer_norm(add(x, fx, tape), norm.gamma, norm.beta, tape)


# ---------------------------------------------------------------------------
# embedding fusion


def embed_review(src_ids, rating_id: int | np.ndarray, category_id: int | np.ndarray,
                 variant: str, params: Parameters, tape: Tape | None = None) -> Tensor:
    """Build the encoder input sequence for the chosen fusion variant.

    With w_i the token embedding, r/c the rating/category embedding rows and
    p_i the positional row for index i within the review tokens:

      vanilla        x_i = w_i + p_i            X = [x_1..x_n]
      rating_only    x_i = w_i + r + p_i        X = [x_1..x_n]
      category_only  x_i = w_i + p_i            X = [c, x_1..x_n]
      trrgen_concat  x_i = w_i + r + p_i        X = [c, x_1..x_n]
      trrgen_sum     x_i = w_i + r + c + p_i    X = [x_1..x_n]
      trrgen_order   x_i = w_i + p_i            X = [c, r, x_1..x_n]

    Prepended feature slots carry no positional or rating term. `src_ids` is
    [..., n]; the rating and category ids are scalars or arrays that broadcast
    to its leading axes, and the result is [..., fused length, d_model].
    """
    if variant not in FUSION_VARIANTS:
        raise ConfigError(f"unknown fusion_variant {variant!r}")
    *lead, n = np.shape(src_ids)
    d = params.embedding.values.shape[1]

    def feature(ids):  # one [..., 1, d] row per review
        return embedding_lookup(params.embedding, np.broadcast_to(ids, lead)[..., None], tape)

    x = embedding_lookup(params.embedding, src_ids, tape)
    if variant in ("rating_only", "trrgen_concat", "trrgen_sum"):
        x = add(x, feature(rating_id), tape)
    if variant == "trrgen_sum":
        x = add(x, feature(category_id), tape)
    x = add(x, positional_encoding(n, d), tape)

    if variant in ("category_only", "trrgen_concat"):
        return concat_rows([feature(category_id), x], tape)
    if variant == "trrgen_order":
        return concat_rows([feature(category_id), feature(rating_id), x], tape)
    return x


# ---------------------------------------------------------------------------
# encoder / decoder


def encode(x: Tensor, src_mask: np.ndarray, params: Parameters, config: ModelConfig,
           tape: Tape | None = None, training: bool = False,
           rng: np.random.Generator | None = None) -> EncoderOutput:
    """Encoder states for [..., n, d] inputs; `src_mask` is an additive key
    mask that broadcasts onto the [..., H, n, n] attention scores."""
    h = dropout(x, config.dropout, training, tape, rng)
    for layer in params.encoder:
        z = multi_head_attention(h, h, src_mask, layer.self_attn, tape, config.d_k)
        z = dropout(z, config.dropout, training, tape, rng)
        h = sublayer_connect(h, z, layer.norm1, tape)
        f = dropout(feed_forward(h, layer.ffn, tape), config.dropout, training, tape, rng)
        h = sublayer_connect(h, f, layer.norm2, tape)
    return EncoderOutput(states=h, src_mask=src_mask)


@dataclass
class DecoderCache:
    """Decoder state for one review after `length` positions. Per layer,
    `cross` holds the cross-attention keys [H, d_k, Tk] and values [H, Tk, d_k]
    of the encoder states, and `self_kv` the self-attention keys
    [..., H, d_k, length] and values [..., H, length, d_k] of the positions
    decoded so far (None before the first), a leading row per hypothesis."""
    cross: list[tuple[Tensor, Tensor]]
    src_mask: np.ndarray
    self_kv: list[tuple[np.ndarray, np.ndarray] | None]
    length: int = 0

    def select(self, rows):
        """Keep the hypotheses at `rows`, in that order; a row may repeat."""
        self.self_kv = [(k_t[rows], v[rows]) for k_t, v in self.self_kv]


def init_decoder_cache(enc: EncoderOutput, params: Parameters, config: ModelConfig,
                       tape: Tape | None = None) -> DecoderCache:
    """An empty cache for decoding from the [Tk, d] encoder states of one
    review: each layer's cross-attention keys and values, recorded on `tape`."""
    cross = [(_heads(enc.states, a.wk, config.d_k, tape, keys=True),
              _heads(enc.states, a.wv, config.d_k, tape))
             for a in (layer.cross_attn for layer in params.decoder)]
    return DecoderCache(cross, enc.src_mask, [None] * len(params.decoder))


def _decode_positions(ids, cache: DecoderCache, params: Parameters, config: ModelConfig,
                      tape: Tape | None = None, training: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
    """Logits [..., T, V] for T new tokens [..., T] at positions `cache.length`
    … `cache.length` + T − 1, each attending causally to itself and every
    cached position; the cache gains their self-attention keys and values.
    Leading axes are hypotheses, broadcast against the cross-attention ones."""
    t, start, d_k = np.shape(ids)[-1], cache.length, config.d_k
    if start + t > config.max_tgt_len:
        raise ConfigError(f"target length {start + t} exceeds max_tgt_len {config.max_tgt_len}")
    h = add(embedding_lookup(params.embedding, ids, tape),
            positional_encoding(t, config.d_model, start), tape)
    h = dropout(h, config.dropout, training, tape, rng)
    self_mask = causal_mask(t, start) if t > 1 else None  # one new position sees all
    for i, layer in enumerate(params.decoder):
        a = layer.self_attn
        q, k_t, v = (_heads(h, a.wq, d_k, tape), _heads(h, a.wk, d_k, tape, keys=True),
                     _heads(h, a.wv, d_k, tape))
        if start:  # cached positions join as constants, so only a fresh cache takes a tape
            k_t = Tensor(np.concatenate([cache.self_kv[i][0], k_t.values], axis=-1))
            v = Tensor(np.concatenate([cache.self_kv[i][1], v.values], axis=-2))
        cache.self_kv[i] = k_t.values, v.values
        z = matmul(_attend(q, k_t, v, self_mask, tape)[0], a.wo, tape)
        z = dropout(z, config.dropout, training, tape, rng)
        h = sublayer_connect(h, z, layer.norm1, tape)
        a = layer.cross_attn
        z = _attend(_heads(h, a.wq, d_k, tape), *cache.cross[i], cache.src_mask, tape)[0]
        z = dropout(matmul(z, a.wo, tape), config.dropout, training, tape, rng)
        h = sublayer_connect(h, z, layer.norm2, tape)
        f = dropout(feed_forward(h, layer.ffn, tape), config.dropout, training, tape, rng)
        h = sublayer_connect(h, f, layer.norm3, tape)
    cache.length += t
    return add(matmul(h, params.out_proj, tape), params.out_bias, tape)


def decoder_forward(tgt_input_ids, enc: EncoderOutput, params: Parameters,
                    config: ModelConfig, tape: Tape | None = None, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
    """Logits [..., T, V] from ⟨sos⟩-shifted targets [..., T]: all T positions
    decoded at once from an empty cache, so self-attention is causal. Leading
    axes of the targets broadcast against those of `enc`, so W prefixes of one
    review share its encoder states."""
    return _decode_positions(tgt_input_ids, init_decoder_cache(enc, params, config, tape),
                             params, config, tape, training, rng)


def decoder_step(tokens, cache: DecoderCache, params: Parameters,
                 config: ModelConfig) -> np.ndarray:
    """Next-token logits [W, V] for W hypotheses whose newest tokens [W] sit
    at position `cache.length`: the last row of `decoder_forward` over each
    hypothesis's prefix, computed for that one position against the cache."""
    return _decode_positions(np.asarray(tokens)[:, None], cache, params, config).values[:, 0]


def encode_review(rec: EncodedRecord, params: Parameters, config: ModelConfig,
                  tape: Tape | None = None, training: bool = False,
                  rng: np.random.Generator | None = None) -> EncoderOutput:
    """embed_review + encode for one encoded record (no padding within one example)."""
    x = embed_review(rec.src_ids, rec.rating_id, rec.category_id,
                     config.fusion_variant, params, tape)
    src_mask = np.zeros(x.values.shape[0])
    return encode(x, src_mask, params, config, tape, training, rng)


def forward_training(batch: list[EncodedRecord], params: Parameters,
                     config: ModelConfig, tape: Tape | None = None,
                     rng: np.random.Generator | None = None):
    """Teacher-forced loss over a batch: mean NLL over all target positions.

    Examples are processed individually, so no padding positions enter the
    loss.
    """
    if not batch:
        raise ValueError("empty batch")
    training = rng is not None
    total = None
    count = 0
    for rec in batch:
        enc = encode_review(rec, params, config, tape, training, rng)
        logits = decoder_forward(rec.tgt_ids[:-1], enc, params, config, tape, training, rng)
        ce = cross_entropy_logits(logits, rec.tgt_ids[1:], tape=tape, reduction="sum")
        total = ce if total is None else add(total, ce, tape)
        count += len(rec.tgt_ids) - 1
    loss = scale(total, 1.0 / count, tape)
    if not np.isfinite(loss.values):
        raise FloatingPointError("non-finite training loss")
    return loss
