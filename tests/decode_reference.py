"""Reference decoders kept as test oracles for `trrgen.model` and
`trrgen.generation`.

`decoder_forward` is an independent teacher-forced decoder: every layer runs
`multi_head_attention` over the whole target with a causal mask, so it shares
no cache, mask or position code with `model._decode_positions`, the one
decoder core that both `model.decoder_forward` and `model.decoder_step` run.

The per-prefix decoders rerun that `decoder_forward` on every prefix they
extend and keep the last row, with no cache. `greedy_decode` appends the
argmax token and `beam_decode` builds and sorts a Python list of
(prefix, score, token) candidates each step. The library decodes one
position per step from a key/value cache, greedy as a per-row argmax and
beam search in one vectorized loop, and tests require token-identical
output. `hypothesis_score` sums per-prefix log-probabilities; it is the
oracle for scoring a whole sequence in one teacher-forced pass (within
1e-12 relative error) and for comparing decoded hypotheses.

`top_candidates` is the beam's candidate selection as the library first
wrote it: one partition of all W·V scores, flattened token-major. It is the
oracle for `generation._top_candidates`, which partitions each row.
"""

import numpy as np

from trrgen.corpus import SOS_ID, EOS_ID
from trrgen.model import (ConfigError, causal_mask, feed_forward, multi_head_attention,
                          positional_encoding, sublayer_connect)
from trrgen.tensor import add, dropout, embedding_lookup, matmul


def decoder_forward(tgt_input_ids, enc, params, config, tape=None, training=False,
                    rng=None):
    """Logits [..., T, V] from ⟨sos⟩-shifted targets [..., T], one
    causally masked `multi_head_attention` per layer; same parameters, tape
    entries and dropout draws as `model.decoder_forward`."""
    t = np.shape(tgt_input_ids)[-1]
    if t > config.max_tgt_len:
        raise ConfigError(f"target length {t} exceeds max_tgt_len {config.max_tgt_len}")
    h = add(embedding_lookup(params.embedding, tgt_input_ids, tape),
            positional_encoding(t, config.d_model), tape)
    h = dropout(h, config.dropout, training, tape, rng)
    self_mask = causal_mask(t)
    for layer in params.decoder:
        z = multi_head_attention(h, h, self_mask, layer.self_attn, tape, config.d_k)
        z = dropout(z, config.dropout, training, tape, rng)
        h = sublayer_connect(h, z, layer.norm1, tape)
        z = multi_head_attention(h, enc, None, layer.cross_attn, tape, config.d_k)
        z = dropout(z, config.dropout, training, tape, rng)
        h = sublayer_connect(h, z, layer.norm2, tape)
        f = dropout(feed_forward(h, layer.ffn, tape), config.dropout, training, tape, rng)
        h = sublayer_connect(h, f, layer.norm3, tape)
    return add(matmul(h, params.out_proj, tape), params.out_bias, tape)


def _log_softmax(row: np.ndarray) -> np.ndarray:
    m = row.max()
    return row - m - np.log(np.exp(row - m).sum())


def _step_logits(prefix, enc, params, config):
    logits = decoder_forward(prefix, enc, params, config, tape=None)
    return logits.values[-1]


def greedy_decode(params, config, enc, decode) -> list[int]:
    """Append the argmax token until ⟨eos⟩ or max_len; ⟨sos⟩/⟨eos⟩ stripped."""
    max_len = decode.max_len if decode.max_len is not None else config.max_tgt_len - 1
    prefix = [SOS_ID]
    out = []
    for _ in range(max_len):
        nxt = int(np.argmax(_step_logits(prefix, enc, params, config)))
        if nxt == EOS_ID:
            break
        out.append(nxt)
        prefix.append(nxt)
    return out


def beam_decode(params, config, enc, decode) -> list[int]:
    """Beam search over summed token log-probabilities.

    Hypotheses that emit ⟨eos⟩ are retired; the best finished hypothesis (or,
    failing any, the best live one) wins. Width 1 reproduces greedy exactly.
    """
    max_len = decode.max_len if decode.max_len is not None else config.max_tgt_len - 1
    width = decode.beam_width
    live = [([SOS_ID], 0.0)]   # (prefix, summed logprob)
    finished: list[tuple[list[int], float]] = []

    for _ in range(max_len):
        candidates = []
        for prefix, score in live:
            logp = _log_softmax(_step_logits(prefix, enc, params, config))
            for tok in range(logp.shape[0]):
                candidates.append((prefix, score + logp[tok], tok))
        # stable preference: higher score first, then lower token id
        candidates.sort(key=lambda c: (-c[1], c[2]))
        live = []
        for prefix, score, tok in candidates[: width * 2]:
            if tok == EOS_ID:
                finished.append((prefix + [tok], score))
            else:
                live.append((prefix + [tok], score))
            if len(live) >= width:
                break
        if not live or len(finished) >= width:
            break

    def final_score(hyp):
        tokens, score = hyp
        length = max(len(tokens) - 1, 1)  # exclude ⟨sos⟩
        return score / (length ** decode.length_penalty)

    pool = finished if finished else live
    best = max(pool, key=final_score)
    tokens = best[0][1:]  # strip ⟨sos⟩
    if tokens and tokens[-1] == EOS_ID:
        tokens = tokens[:-1]
    return tokens


def hypothesis_score(tokens, enc, params, config) -> float:
    """Summed log-probability the model assigns to `tokens` + ⟨eos⟩."""
    prefix = [SOS_ID]
    score = 0.0
    for tok in tokens + [EOS_ID]:
        logp = _log_softmax(_step_logits(prefix, enc, params, config))
        score += logp[tok]
        prefix.append(tok)
    return score


def top_candidates(scores: np.ndarray, k: int) -> list[tuple[int, int]]:
    """(hypothesis, token) pairs of the k best entries of a [W, V] score array,
    ordered by score descending, then token id, then hypothesis index: a
    partition of the flattened array finds the k-th score, and only the
    entries above it plus the first ties in tie-break order are sorted."""
    w = scores.shape[0]
    flat = scores.T.ravel()  # index tok * w + h, so ascending index is the tie-break
    k = min(k, flat.size)
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    above = np.flatnonzero(flat > kth)
    idx = np.concatenate([above, np.flatnonzero(flat == kth)[:k - above.size]])
    idx = idx[np.lexsort((idx, -flat[idx]))]
    return [(int(i % w), int(i // w)) for i in idx]
