"""Feature-fused Transformer encoder-decoder.

The encoder input can fuse two review-level features, the rating and the
app category, into the token rows: each is added to every token row or
prepended as a row of its own, as `FUSION[fusion_variant]` sets out.
Sublayers use post-norm ordering: LayerNorm(x + f(x)).

The decoder is one core, `_decode_positions`: `decoder_forward` runs a whole
target through it from an empty key/value cache, and `decoder_step` one new
position for the live hypotheses of a group of reviews (`init_group_cache`).
Only `init_decoder_cache` projects cross-attention keys and values, from the
states `encode` returns. `tests/decode_reference.py` keeps a reference decoder.

Training runs a batch as packed rows (`forward_training`): the fused inputs
of all its reviews end to end, and all its targets end to end, with no
padding. The embedding (`_embed_rows`), encoder (`_encoder_states`) and
decoder cores take these row segments; position-wise work runs once over
all rows, and attention runs per example on its own rows. The output layer
and loss are one `linear_cross_entropy`. Each dropout site draws one mask
over all its packed rows. `tests/training_reference.py` keeps the
per-example pass as the oracle, fed each example's rows of those masks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial
from typing import get_type_hints

import numpy as np

from .tensor import (Tensor, Tape, matmul, add, scale, relu, softmax, layer_norm,
                     concat_rows, split_rows, split_heads, merge_heads, embedding_lookup,
                     dropout, linear_cross_entropy)
# Not called here; the benchmark's tracer hooks it under this module's name.
from .tensor import cross_entropy_logits  # noqa: F401
from .corpus import EncodedRecord, check_fields

# Per variant, the features added to every token row (in add order) and those
# prepended to the review as rows of their own (in input order). With w_i and
# p_i the token and positional rows of token i, and r and c the rating and
# category rows, the encoder input of each variant is:
FUSION = {"vanilla": ((), ()),                            # [w_i + p_i]
          "rating_only": (("rating",), ()),               # [w_i + r + p_i]
          "category_only": ((), ("category",)),           # [c, w_i + p_i]
          "trrgen_concat": (("rating",), ("category",)),  # [c, w_i + r + p_i]
          "trrgen_sum": (("rating", "category"), ()),     # [w_i + r + c + p_i]
          "trrgen_order": ((), ("category", "rating"))}   # [c, r, w_i + p_i]
FUSION_VARIANTS = tuple(FUSION)

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
        d, heads = self.d_model, self.n_heads
        check_fields(self, ConfigError, [
            ("d_model", d >= 2 and d % 2 == 0, "even and >= 2 for sinusoidal positions"),
            ("n_heads", heads >= 1 and d % heads == 0, ">= 1 and divide d_model"),
            ("n_layers", self.n_layers >= 1, ">= 1"),
            ("d_ff", self.d_ff >= 1, ">= 1"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),  # NaN fails too
            ("max_tgt_len", self.max_tgt_len >= 2, ">= 2"),
            ("fusion_variant", self.fusion_variant in FUSION, f"one of {', '.join(FUSION)}")])

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


def parameter_shapes(config: ModelConfig):
    """(name, shape) of each tensor `Parameters.named()` walks under `config`, in
    its order, derived without allocating any: lazily, so a check against a
    checkpoint's manifest stops at the first difference."""
    d, dff, v = config.d_model, config.d_ff, config.vocab_size
    shapes = {AttentionParams: [(d, d)] * 4, NormParams: [(d,)] * 2,
              FeedForwardParams: [(d, dff), (dff,), (dff, d), (d,)]}
    yield "embedding", (v, d)
    for prefix, layer in (("enc", EncoderLayerParams), ("dec", DecoderLayerParams)):
        blocks = get_type_hints(layer).items()
        for i in range(config.n_layers):
            for sub, block in blocks:
                for f, shape in zip(fields(block), shapes[block]):
                    yield f"{prefix}{i}.{sub.removesuffix('_attn')}.{f.name}", shape
    yield "out_proj", (d, v)
    yield "out_bias", (v,)


# ---------------------------------------------------------------------------
# building blocks


# d_model -> read-only sinusoidal rows for positions 0 … n − 1, grown on demand
_PE_TABLES: dict[int, np.ndarray] = {}


def positional_encoding(seq_len: int, d_model: int, start: int = 0) -> np.ndarray:
    """Read-only sinusoidal rows for positions start … start + seq_len − 1:
    PE[pos, 2i] = sin(pos / 10000^(2i/d)), PE[pos, 2i+1] = cos(pos / 10000^(2i/d)).

    They are a view of one table per `d_model`, which is recomputed at twice
    the size (at least 128 rows) when a position lies beyond it. Each entry is
    computed on its own, so a row does not depend on the table's size."""
    if seq_len < 1 or start < 0:
        raise ConfigError("seq_len must be >= 1 and start >= 0")
    if d_model % 2 != 0:
        raise ConfigError("d_model must be even")
    end, cached = start + seq_len, len(_PE_TABLES.get(d_model, ()))
    if cached < end:
        pos = np.arange(max(end, 2 * cached, 128), dtype=np.float64)[:, None]
        angle = pos / np.power(10000.0, np.arange(0, d_model, 2, dtype=np.float64) / d_model)
        table = np.empty((len(pos), d_model))
        table[:, 0::2] = np.sin(angle)
        table[:, 1::2] = np.cos(angle)
        table.flags.writeable = False
        _PE_TABLES[d_model] = table
    return _PE_TABLES[d_model][start:end]


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
    [..., H, d_k, Tk] keys and [..., H, Tk, d_k] values, as [..., H, Tq, d_k]
    heads; also returns the [..., H, Tq, Tk] weights. A `None` mask masks
    nothing."""
    scores = scale(matmul(q, k_t, tape), 1.0 / np.sqrt(q.values.shape[-1]), tape)
    if mask is not None:
        scores = add(scores, mask, tape)
    attn = softmax(scores, tape, axis=-1)
    return matmul(attn, v, tape), attn


def multi_head_attention(x_q: Tensor, x_kv: Tensor, mask: np.ndarray | None,
                         p: AttentionParams, tape: Tape | None,
                         d_k: int, return_weights: bool = False):
    """softmax(Q Kᵀ / sqrt(d_k) + mask) V for all heads at once, merged and
    projected by Wo; with `return_weights`, also the [..., H, Tq, Tk] weights.

    Inputs are [..., T, d] with leading batch axes that broadcast, such as
    [W, Tq, d] queries against one [Tk, d] encoder output; the additive mask
    broadcasts onto the [..., H, Tq, Tk] scores, and None masks nothing."""
    tq, tk = x_q.values.shape[-2], x_kv.values.shape[-2]
    if mask is not None and any(m not in (1, n) for n, m in zip((tk, tq), mask.shape[::-1])):
        raise ConfigError(f"mask shape {mask.shape} does not broadcast to {(tq, tk)}")
    z, attn = _attend(_heads(x_q, p.wq, d_k, tape), _heads(x_kv, p.wk, d_k, tape, keys=True),
                      _heads(x_kv, p.wv, d_k, tape), mask, tape)
    z = matmul(merge_heads(z, tape), p.wo, tape)
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


def _positions(lengths: np.ndarray) -> np.ndarray:
    """Index of each row within its segment, for segments of `lengths` rows
    end to end."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _embed_rows(src_ids: np.ndarray, lengths: np.ndarray, rating_ids: np.ndarray,
                category_ids: np.ndarray, variant: str, params: Parameters,
                tape: Tape | None) -> Tensor:
    """Packed encoder inputs [Σ fused rows, d_model] of reviews whose token ids
    lie end to end in `src_ids`, `lengths[j]` of them for review j, fused as
    `FUSION[variant]` sets out: every token row at once, then each review's
    prepended feature rows cut and joined in ahead of its tokens. Prepended
    rows carry no positional term."""
    if variant not in FUSION:
        raise ConfigError(f"unknown fusion_variant {variant!r}")
    if lengths.min(initial=1) < 1:
        raise ConfigError("every review needs at least one token")
    d = params.embedding.values.shape[1]
    review, pos = np.repeat(np.arange(len(lengths)), lengths), _positions(lengths)
    added, prepended = FUSION[variant]
    ids = {"category": category_ids, "rating": rating_ids}
    x = embedding_lookup(params.embedding, src_ids, tape)
    for feature in added:
        x = add(x, embedding_lookup(params.embedding, ids[feature][review], tape), tape)
    x = add(x, positional_encoding(int(lengths.max(initial=1)), d)[pos], tape)
    if not prepended:
        return x
    features = np.stack([ids[f] for f in prepended], axis=1).reshape(-1)  # review by review
    feature_rows = split_rows(embedding_lookup(params.embedding, features, tape),
                              len(prepended) * np.arange(1, len(lengths)), tape)
    token_rows = split_rows(x, np.cumsum(lengths)[:-1], tape)
    return concat_rows([rows for pair in zip(feature_rows, token_rows) for rows in pair], tape)


def embed_review(src_ids, rating_id: int, category_id: int, variant: str,
                 params: Parameters, tape: Tape | None = None) -> Tensor:
    """The encoder input [fused length, d_model] of one review: its 1-D token
    ids `src_ids` fused with its rating and category ids, as `_embed_rows`
    does for packed reviews."""
    src_ids = np.asarray(src_ids, dtype=np.int64)
    if src_ids.ndim != 1:
        raise ConfigError(f"embed_review takes one review's 1-D token ids, "
                          f"got shape {src_ids.shape}")
    return _embed_rows(src_ids, np.array([len(src_ids)]), np.array([rating_id]),
                       np.array([category_id]), variant, params, tape)


# ---------------------------------------------------------------------------
# encoder / decoder


def _attention(q: Tensor, k_t: Tensor, v: Tensor, masks: list, tape: Tape | None,
               q_rows: np.ndarray | None = None, kv_rows: np.ndarray | None = None) -> Tensor:
    """`_attend` with heads merged, ready for Wo. Without row lengths the
    whole stacks attend under `masks[0]`. With them, queries and keys are
    packed segments: query segment j attends only to key segment j, under
    `masks[j]`."""
    if q_rows is None:
        return merge_heads(_attend(q, k_t, v, masks[0], tape)[0], tape)

    def split(x, rows, axis=-2):
        return split_rows(x, np.cumsum(rows)[:-1], tape, axis)
    parts = [_attend(q_j, k_j, v_j, mask, tape)[0] for q_j, k_j, v_j, mask in
             zip(split(q, q_rows), split(k_t, kv_rows, axis=-1), split(v, kv_rows), masks)]
    return merge_heads(concat_rows(parts, tape), tape)


def _encoder_states(x: Tensor, src_mask: np.ndarray | None, rows: np.ndarray | None,
                    params: Parameters, config: ModelConfig, tape: Tape | None,
                    training: bool, rng) -> Tensor:
    """The encoder stack over [..., n, d] inputs, or over the packed rows of
    reviews `rows[j]` rows long each, which attend only within their review."""
    d_k = config.d_k
    masks = [src_mask] if rows is None else [None] * len(rows)
    h = dropout(x, config.dropout, training, tape, rng)
    for layer in params.encoder:
        a = layer.self_attn
        z = _attention(_heads(h, a.wq, d_k, tape), _heads(h, a.wk, d_k, tape, keys=True),
                       _heads(h, a.wv, d_k, tape), masks, tape, rows, rows)
        z = dropout(matmul(z, a.wo, tape), config.dropout, training, tape, rng)
        h = sublayer_connect(h, z, layer.norm1, tape)
        f = dropout(feed_forward(h, layer.ffn, tape), config.dropout, training, tape, rng)
        h = sublayer_connect(h, f, layer.norm2, tape)
    return h


def encode(x: Tensor, src_mask: np.ndarray | None, params: Parameters, config: ModelConfig,
           tape: Tape | None = None, training: bool = False,
           rng: np.random.Generator | None = None) -> Tensor:
    """Encoder states [..., n, d] for [..., n, d] inputs; `src_mask` is None (no
    mask) or an additive key mask that broadcasts onto the [..., H, n, n] scores."""
    return _encoder_states(x, src_mask, None, params, config, tape, training, rng)


@dataclass
class DecoderCache:
    """Decoder state after `length` positions. Per layer, `cross` holds the
    cross-attention keys [..., H, d_k, Tk] and values [..., H, Tk, d_k] of the
    encoder states, which broadcast against the hypothesis rows, and
    `self_kv` the self-attention keys [N, H, d_k, length] and values
    [N, H, length, d_k] of the positions decoded so far (None before the
    first), one row per live hypothesis.

    A group cache (`init_group_cache`) decodes several reviews at once, and
    is the one record of which review each row serves: `reviews` names it,
    and `cross` holds one copy of that review's keys and values per row,
    padded to the group's longest review. `src_mask` is None when no review
    is padded, and otherwise the [N, 1, 1, Tk] key mask of each row's review."""
    cross: list[tuple[Tensor, Tensor]]
    self_kv: list[tuple[np.ndarray, np.ndarray] | None]
    length: int = 0
    src_mask: np.ndarray | None = None
    reviews: np.ndarray | None = None

    def select(self, rows):
        """Keep a group cache's hypotheses at `rows`, in that order; a row may
        repeat. A review none of whose rows is kept drops out of the next step."""
        self.self_kv = [(k_t[rows], v[rows]) for k_t, v in self.self_kv]
        # rows that keep their reviews keep their cross keys and values
        if not np.array_equal(self.reviews[rows], self.reviews):
            self.cross = [(Tensor(k_t.values[rows]), Tensor(v.values[rows]))
                          for k_t, v in self.cross]
            self.reviews = self.reviews[rows]
            if self.src_mask is not None:
                self.src_mask = self.src_mask[rows]


def init_decoder_cache(states: Tensor, params: Parameters, config: ModelConfig,
                       tape: Tape | None = None) -> DecoderCache:
    """An empty cache, with no key mask, for decoding from encoder states
    [..., Tk, d]: each layer's cross-attention keys and values, on `tape`."""
    cross = [(_heads(states, a.wk, config.d_k, tape, keys=True),
              _heads(states, a.wv, config.d_k, tape))
             for a in (layer.cross_attn for layer in params.decoder)]
    return DecoderCache(cross, [None] * len(params.decoder))


def init_group_cache(states: list[Tensor], params: Parameters,
                     config: ModelConfig) -> DecoderCache:
    """An empty cache for decoding together the reviews whose [Tk_r, d]
    encoder states are `states`: row r of the first step is review r's. The
    states are padded with zero rows to the longest review and go to
    `init_decoder_cache` as one [R, Tk, d] stack. When some review is
    padded, a key mask hides the padding from cross-attention; otherwise
    there is no mask."""
    rows = np.array([s.values.shape[0] for s in states])
    real = np.arange(rows.max()) < rows[:, None]  # [R, Tk] slots that hold a row
    padded = np.zeros((*real.shape, config.d_model))
    padded[real] = np.concatenate([s.values for s in states])
    mask = None if real.all() else np.where(real, 0.0, NEG_INF)[:, None, None]
    return replace(init_decoder_cache(Tensor(padded), params, config),
                   src_mask=mask, reviews=np.arange(len(states)))


def _decode_positions(ids, cache: DecoderCache, params: Parameters, config: ModelConfig,
                      tape: Tape | None = None, training: bool = False,
                      rng: np.random.Generator | None = None, rows: np.ndarray | None = None,
                      src_rows: np.ndarray | None = None) -> Tensor:
    """Final hidden states [..., T, d] for T new tokens [..., T] at positions
    `cache.length` … `cache.length` + T − 1, each attending causally to itself
    and every cached position; the cache gains their self-attention keys and
    values. Leading axes are hypotheses, broadcast against the cross-attention
    ones. With `rows`, the 1-D `ids` are the targets of the packed reviews of
    a fresh cache, `rows[j]` of them for review j, from position 0 each, and
    the cache holds those reviews' packed states, `src_rows[j]` rows for
    review j; a target attends only to itself and to its own review."""
    t, start, d_k = np.shape(ids)[-1], cache.length, config.d_k
    lengths = [t] if rows is None else rows.tolist()
    if start + max(lengths) > config.max_tgt_len:
        raise ConfigError(f"target length {start + max(lengths)} exceeds "
                          f"max_tgt_len {config.max_tgt_len}")
    pe = positional_encoding(max(lengths), config.d_model, start)
    h = add(embedding_lookup(params.embedding, ids, tape),
            pe if rows is None else pe[_positions(rows)], tape)
    h = dropout(h, config.dropout, training, tape, rng)
    # one new position sees every key, so it needs no mask
    self_masks = [causal_mask(n, start) if n > 1 else None for n in lengths]
    cross_masks = [cache.src_mask] if rows is None else [None] * len(rows)
    for i, layer in enumerate(params.decoder):
        a = layer.self_attn
        q, k_t, v = (_heads(h, a.wq, d_k, tape), _heads(h, a.wk, d_k, tape, keys=True),
                     _heads(h, a.wv, d_k, tape))
        if start:  # cached positions join as constants, so only a fresh cache takes a tape
            k_t = Tensor(np.concatenate([cache.self_kv[i][0], k_t.values], axis=-1))
            v = Tensor(np.concatenate([cache.self_kv[i][1], v.values], axis=-2))
        cache.self_kv[i] = k_t.values, v.values
        z = _attention(q, k_t, v, self_masks, tape, rows, rows)
        z = dropout(matmul(z, a.wo, tape), config.dropout, training, tape, rng)
        h = sublayer_connect(h, z, layer.norm1, tape)
        a = layer.cross_attn
        z = _attention(_heads(h, a.wq, d_k, tape), *cache.cross[i], cross_masks, tape,
                       rows, src_rows)
        z = dropout(matmul(z, a.wo, tape), config.dropout, training, tape, rng)
        h = sublayer_connect(h, z, layer.norm2, tape)
        f = dropout(feed_forward(h, layer.ffn, tape), config.dropout, training, tape, rng)
        h = sublayer_connect(h, f, layer.norm3, tape)
    if rows is None:  # packed targets leave nothing to decode on from
        cache.length += t
    return h


def _logits(h: Tensor, params: Parameters, tape: Tape | None = None) -> Tensor:
    return add(matmul(h, params.out_proj, tape), params.out_bias, tape)


def decoder_forward(tgt_input_ids, enc: Tensor, params: Parameters,
                    config: ModelConfig, tape: Tape | None = None, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
    """Logits [..., T, V] from ⟨sos⟩-shifted targets [..., T]: all T positions
    decoded at once from an empty cache, so self-attention is causal. Leading
    axes of the targets broadcast against those of the encoder states `enc`,
    so W prefixes of one review share its states."""
    cache = init_decoder_cache(enc, params, config, tape)
    return _logits(_decode_positions(tgt_input_ids, cache, params, config, tape, training, rng),
                   params, tape)


def _checked_logits(h: Tensor, params: Parameters) -> np.ndarray:
    logits = _logits(h, params).values[:, 0]
    if not np.isfinite(np.maximum.reduce(logits, axis=1)).all():  # a row's max is NaN if any is
        raise FloatingPointError("non-finite decoder logits")
    return logits


def decoder_step(tokens, cache: DecoderCache, params: Parameters,
                 config: ModelConfig) -> np.ndarray:
    """Next-token logits [W, V] for W hypotheses whose newest tokens [W] sit
    at position `cache.length`: the last row of `decoder_forward` over each
    hypothesis's prefix and its review, computed for that one position
    against the cache. A NaN or +inf logit is a FloatingPointError; a -inf
    one bans its id."""
    h = _decode_positions(np.asarray(tokens)[:, None], cache, params, config)
    return _checked_logits(h, params)


def greedy_screen(params: Parameters):
    """`out_proj` in float32 (±inf beyond its range), and B(h, x) = c(‖h‖₁ + dε)(max|out_proj| + ε)
    + ε|x|. A float64 logit ℓ of final states h [W, d] and its float32 screen ℓ̃ (`greedy_step`)
    differ by ≤ (1 − ε)B(h, ℓ̃) − ε|ℓ̃|/2, so ℓ̃ᵢ < ℓ̃ⱼ − 2B(h, ℓ̃ⱼ) proves ℓᵢ < ℓⱼ, in any summation
    order, with underflow (an op errs by ≤ u(|x| + 2⁻¹⁰²)) and the bias adds: ε = 2⁻⁵⁰, u = 2⁻²⁴,
    c = (1 + 2⁻²⁰)(u(2 + u) + γ_d(1 + u)² + γ'_d), γ_n = nu/(1 − nu), γ' with u = 2⁻⁵³ (Higham)."""
    w, u, v, e = params.out_proj.values, 2.0 ** -24, 2.0 ** -53, 2.0 ** -50
    d, w_max = len(w), max(w.max(), -w.min())
    c = (1 + 2.0 ** -20) * (u * (2 + u) + d * u / (1 - d * u) * (1 + u) ** 2 + d * v / (1 - d * v))
    with np.errstate(over="ignore"):
        return w.astype(np.float32), lambda h, logits: (
            c * (np.abs(h).sum(axis=-1, keepdims=True) + d * e) * (w_max + e) + e * abs(logits))


def greedy_step(tokens, cache: DecoderCache, params: Parameters, config: ModelConfig, screen):
    """`decoder_step(...).argmax(axis=1)`: ℓ̃'s if each row's best ℓ̃ⱼ beats every other by over
    2B(h, ℓ̃ⱼ) (`greedy_screen`) and no float32 value is NaN or ±inf, else `decoder_step`'s."""
    h = _decode_positions(np.asarray(tokens)[:, None], cache, params, config)
    (w32, bound), hv = screen, h.values[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # such a step falls back
        logits = (y := hv.astype(np.float32) @ w32) + params.out_bias.values
        top = logits.max(axis=1, keepdims=True)
        sure = np.isfinite(y).all() and ((logits >= top - 2 * bound(hv, top)).sum(1) == 1).all()
    return (logits if sure else _checked_logits(h, params)).argmax(axis=1)


def encode_review(rec: EncodedRecord, params: Parameters, config: ModelConfig,
                  tape: Tape | None = None, training: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """embed_review + encode for one encoded record, which has no padding to mask."""
    x = embed_review(rec.src_ids, rec.rating_id, rec.category_id,
                     config.fusion_variant, params, tape)
    return encode(x, None, params, config, tape, training, rng)


def forward_training(batch: list[EncodedRecord], params: Parameters,
                     config: ModelConfig, tape: Tape | None = None,
                     rng: np.random.Generator | None = None):
    """Teacher-forced loss over a batch: mean NLL over all target positions.

    The batch runs as packed rows with no padding: every review's encoder
    rows end to end, and every target's rows end to end. Position-wise work
    runs once over all rows, attention per example on its rows, and the
    output layer and loss are one `linear_cross_entropy`. Each dropout site
    draws one mask from `rng` over all its packed rows, in the order the
    encoder and decoder walks reach the sites.
    """
    if not batch:
        raise ValueError("empty batch")
    training = rng is not None
    src = [np.asarray(r.src_ids, dtype=np.int64) for r in batch]
    tgt = [np.asarray(r.tgt_ids, dtype=np.int64) for r in batch]
    src_lengths = np.array([len(s) for s in src])
    tgt_rows = np.array([len(t) - 1 for t in tgt])
    src_rows = src_lengths + len(FUSION[config.fusion_variant][1])
    x = _embed_rows(np.concatenate(src), src_lengths,
                    np.array([r.rating_id for r in batch]),
                    np.array([r.category_id for r in batch]),
                    config.fusion_variant, params, tape)
    states = _encoder_states(x, None, src_rows, params, config, tape, training, rng)
    cache = init_decoder_cache(states, params, config, tape)
    h = _decode_positions(np.concatenate([t[:-1] for t in tgt]), cache, params, config,
                          tape, training, rng, tgt_rows, src_rows)
    total = linear_cross_entropy(h, params.out_proj, params.out_bias,
                                 np.concatenate([t[1:] for t in tgt]), tape)
    loss = scale(total, 1.0 / tgt_rows.sum(), tape)
    if not np.isfinite(loss.values):
        raise FloatingPointError("non-finite training loss")
    return loss
