"""Decoding a trained model into response text.

Both strategies run one deterministic beam search over summed token
log-probabilities: "beam" at `beam_width`, "greedy" at width 1, which picks
the most probable token (ties broken by lowest token id) at each step. There
is no sampling path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SOS_ID, EOS_ID, Vocabulary, EncodedRecord
from .model import (ModelConfig, ConfigError, Parameters, EncoderOutput, encode_review,
                    decoder_forward)


@dataclass
class DecodeConfig:
    strategy: str = "greedy"
    beam_width: int = 4
    max_len: int | None = None  # None -> model max_tgt_len - 1, the longest allowed
    length_penalty: float = 0.0

    def __post_init__(self):
        if self.strategy not in ("greedy", "beam"):
            raise ValueError(f"unknown decode strategy {self.strategy!r}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")


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

    Each step runs the decoder once over the [W, t] array of live prefixes,
    which share the review's encoder states, scores every hypothesis extended
    by every token and walks the best 2·width candidates: those ending in
    ⟨eos⟩ are retired, the rest stay live until `width` are. The best finished
    hypothesis (or, failing any, the best live one) wins; ⟨sos⟩/⟨eos⟩ are
    stripped.
    """
    max_len = decode.max_len if decode.max_len is not None else config.max_tgt_len - 1
    if max_len > config.max_tgt_len - 1:
        raise ConfigError(f"decode max_len {max_len} exceeds max_tgt_len - 1 "
                          f"= {config.max_tgt_len - 1}")
    width = decode.beam_width if decode.strategy == "beam" else 1
    live = [([SOS_ID], 0.0)]   # (prefix, summed logprob)
    finished: list[tuple[list[int], float]] = []

    for _ in range(max_len):
        prefixes = np.array([prefix for prefix, _ in live])
        logits = decoder_forward(prefixes, enc, params, config).values[:, -1]
        scores = np.array([score for _, score in live])[:, None] + _log_softmax(logits)
        beams, live = live, []
        for h, tok in _top_candidates(scores, width * 2):
            hyp = (beams[h][0] + [tok], scores[h, tok])
            (finished if tok == EOS_ID else live).append(hyp)
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


def hypothesis_score(tokens: list[int], enc: EncoderOutput, params: Parameters,
                     config: ModelConfig) -> float:
    """Summed log-probability the model assigns to `tokens` + ⟨eos⟩, from one
    teacher-forced decoder pass over ⟨sos⟩ + `tokens`."""
    logp = _log_softmax(decoder_forward([SOS_ID] + tokens, enc, params, config).values)
    return float(logp[np.arange(len(tokens) + 1), tokens + [EOS_ID]].sum())


def generate(record: EncodedRecord, params: Parameters, config: ModelConfig,
             decode: DecodeConfig) -> list[int]:
    enc = encode_review(record, params, config, tape=None)
    return beam_decode(params, config, enc, decode)


def postprocess(token_ids: list[int], vocab: Vocabulary) -> str:
    """Detokenize with single spaces; placeholder tokens are emitted verbatim."""
    return " ".join(vocab.decode(token_ids))
