"""Decoding a trained model into response text.

Both strategies run one deterministic beam search over summed token
log-probabilities: "beam" at `beam_width`, "greedy" at width 1, which picks
the most probable token (ties broken by lowest token id) at each step. There
is no sampling path.

Decoding is incremental: the cross-attention keys and values of the review
are computed once, and each step runs only the newest position of every live
hypothesis against a cache of the earlier ones (`model.decoder_step`), so no
step recomputes the prefix. Tests hold it to the per-prefix decoders of
`tests/decode_reference.py`, which rerun `decoder_forward` on every prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SOS_ID, EOS_ID, Vocabulary, EncodedRecord
from .model import (ModelConfig, ConfigError, Parameters, EncoderOutput, encode_review,
                    init_decoder_cache, decoder_step)


# Live hypotheses, and so decoding time and memory, grow with the width.
MAX_BEAM_WIDTH = 64


@dataclass
class DecodeConfig:
    strategy: str = "greedy"
    beam_width: int = 4  # in [1, MAX_BEAM_WIDTH]
    max_len: int | None = None  # None -> model max_tgt_len - 1, the longest allowed
    length_penalty: float = 0.0  # in [0, 10]; ranks by summed logprob / length ** penalty

    def __post_init__(self):
        if self.strategy not in ("greedy", "beam"):
            raise ValueError(f"unknown decode strategy {self.strategy!r}")
        if not 1 <= self.beam_width <= MAX_BEAM_WIDTH:
            raise ValueError(f"beam_width must be in [1, {MAX_BEAM_WIDTH}], "
                             f"got {self.beam_width!r}")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if not 0 <= self.length_penalty <= 10:
            raise ValueError(f"length_penalty must be in [0, 10], got {self.length_penalty!r}")


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax of each row (last axis)."""
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def _top_candidates(scores: np.ndarray, k: int) -> list[tuple[int, int]]:
    """(hypothesis, token) pairs of the k best entries of a [W, V] score array,
    ordered by score descending, then token id, then hypothesis index.

    Linear in W·V: a partition finds the k-th score, and only the entries
    above it plus the first ties in tie-break order are sorted.
    """
    w = scores.shape[0]
    flat = scores.T.ravel()  # index tok * w + h, so ascending index is the tie-break
    k = min(k, flat.size)
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    above = np.flatnonzero(flat > kth)
    idx = np.concatenate([above, np.flatnonzero(flat == kth)[:k - above.size]])
    idx = idx[np.lexsort((idx, -flat[idx]))]
    return [(int(i % w), int(i // w)) for i in idx]


def beam_decode(params: Parameters, config: ModelConfig, enc: EncoderOutput,
                decode: DecodeConfig) -> list[int]:
    """Beam search over summed token log-probabilities; greedy is width 1.

    Each step runs the decoder on the newest token of the W live hypotheses,
    scores every hypothesis extended by every token and walks the best
    2·width candidates: those ending in ⟨eos⟩ are retired, the rest stay live
    until `width` are, and the cache keeps the rows of their parents. The best
    finished hypothesis (or, failing any, the best live one) wins; ⟨sos⟩/⟨eos⟩
    are stripped.
    """
    max_len = decode.max_len if decode.max_len is not None else config.max_tgt_len - 1
    if max_len > config.max_tgt_len - 1:
        raise ConfigError(f"decode max_len {max_len} exceeds max_tgt_len - 1 "
                          f"= {config.max_tgt_len - 1}")
    width = decode.beam_width if decode.strategy == "beam" else 1
    live = [([SOS_ID], 0.0)]   # (prefix, summed logprob)
    finished: list[tuple[list[int], float]] = []
    cache = init_decoder_cache(enc, params, config)

    for _ in range(max_len):
        logits = decoder_step(np.array([prefix[-1] for prefix, _ in live]), cache,
                              params, config)
        scores = np.array([score for _, score in live])[:, None] + _log_softmax(logits)
        beams, live, parents = live, [], []
        for h, tok in _top_candidates(scores, width * 2):
            hyp = (beams[h][0] + [tok], scores[h, tok])
            if tok == EOS_ID:
                finished.append(hyp)
            else:
                live.append(hyp)
                parents.append(h)
            if len(live) >= width:
                break
        if not live or len(finished) >= width:
            break
        cache.select(parents)

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


def generate(record: EncodedRecord, params: Parameters, config: ModelConfig,
             decode: DecodeConfig) -> list[int]:
    enc = encode_review(record, params, config, tape=None)
    return beam_decode(params, config, enc, decode)


def postprocess(token_ids: list[int], vocab: Vocabulary) -> str:
    """Detokenize with single spaces; placeholder tokens are emitted verbatim."""
    return " ".join(vocab.decode(token_ids))
