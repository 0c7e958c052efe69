"""Decoding a trained model into response text.

Both strategies run one deterministic beam search over summed token
log-probabilities: "beam" at `beam_width`, "greedy" at width 1, which picks
the most probable token (ties broken by lowest token id) at each step. There
is no sampling path.

Decoding is incremental and grouped: `decode_group` decodes several reviews
together, and each step runs only the newest position of every live
hypothesis of every unfinished review, in one call of `model.decoder_step`
(the decoder core that training also runs) against the group's key/value
cache, so no step recomputes a prefix. Each review keeps its own beam, so
its response (the winner without ⟨sos⟩ and ⟨eos⟩) does not depend on the
other reviews of its group. `generate` decodes one review, and
`generate_all` many, in groups that keep a step within MAX_BEAM_WIDTH rows.
Tests hold the loop to the per-review, per-prefix decoders of
`tests/decode_reference.py`, which rerun that file's reference decoder on
every prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SOS_ID, EOS_ID, Vocabulary, EncodedRecord
from .model import (ModelConfig, ConfigError, Parameters, EncoderOutput, encode_review,
                    init_group_cache, decoder_step)


# Live hypotheses, and so decoding time and memory, grow with the width. It
# also caps the rows of one grouped decoding step.
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

    @property
    def width(self) -> int:
        """Live hypotheses per review: `beam_width` for beam, 1 for greedy."""
        return self.beam_width if self.strategy == "beam" else 1

    def length_cap(self, config: ModelConfig) -> int:
        """Decoding steps under `config`: `max_len`, or `max_tgt_len - 1`
        when unset; a ConfigError when `max_len` exceeds `max_tgt_len - 1`."""
        max_len = self.max_len if self.max_len is not None else config.max_tgt_len - 1
        if max_len > config.max_tgt_len - 1:
            raise ConfigError(f"decode max_len {max_len} exceeds max_tgt_len - 1 "
                              f"= {config.max_tgt_len - 1}")
        return max_len


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax of each row (last axis)."""
    z = x - x.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


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


def decode_group(params: Parameters, config: ModelConfig, encs: list[EncoderOutput],
                 decode: DecodeConfig) -> list[list[int]]:
    """Beam search over summed token log-probabilities for a group of
    reviews at once; greedy is width 1.

    Each step runs the decoder once, on the newest token of every live
    hypothesis of every unfinished review, stacked review by review. Each
    review then scores its hypotheses extended by every token and walks its
    best 2·width candidates: those ending in ⟨eos⟩ are retired, the rest stay
    live until `width` are, and the cache keeps the rows of their parents. A
    review is done once it has no live hypothesis or `width` finished ones,
    and its rows leave the cache. Its best finished hypothesis (or, failing
    any, its best live one) wins.

    Returns each review's response: its winner without ⟨sos⟩ and ⟨eos⟩,
    `length_cap` tokens long exactly when decoding stopped at the cap.
    """
    max_len, width = decode.length_cap(config), decode.width
    live = [[([SOS_ID], 0.0)] for _ in encs]   # per review: (prefix, summed logprob)
    finished: list[list[tuple[list[int], float]]] = [[] for _ in encs]
    active = list(range(len(encs)))  # unfinished reviews, in row order
    cache = init_group_cache(encs, params, config)

    for _ in range(max_len):
        hyps = [hyp for r in active for hyp in live[r]]
        logits = decoder_step(np.array([prefix[-1] for prefix, _ in hyps]), cache,
                              params, config)
        scores = _log_softmax(logits)
        scores += np.array([score for _, score in hyps])[:, None]
        parents, still = [], []
        first = 0  # the review's first row
        for r in active:
            beams, live[r], kept = live[r], [], []
            for h, tok in _top_candidates(scores[first:first + len(beams)], width * 2):
                hyp = (beams[h][0] + [tok], scores[first + h, tok])
                if tok == EOS_ID:
                    finished[r].append(hyp)
                else:
                    live[r].append(hyp)
                    kept.append(first + h)
                if len(live[r]) >= width:
                    break
            if live[r] and len(finished[r]) < width:
                still.append(r)
                parents += kept
            first += len(beams)
        active = still
        if not active:
            break
        cache.select(parents)

    def final_score(hyp):
        tokens, score = hyp
        length = max(len(tokens) - 1, 1)  # exclude ⟨sos⟩; a finished one's ⟨eos⟩ counts
        return score / (length ** decode.length_penalty)

    return [max(done, key=final_score)[0][1:-1] if done else max(left, key=final_score)[0][1:]
            for done, left in zip(finished, live)]


def beam_decode(params: Parameters, config: ModelConfig, enc: EncoderOutput,
                decode: DecodeConfig) -> list[int]:
    """`decode_group` for one review: its response."""
    return decode_group(params, config, [enc], decode)[0]


def generate(record: EncodedRecord, params: Parameters, config: ModelConfig,
             decode: DecodeConfig) -> list[int]:
    enc = encode_review(record, params, config, tape=None)
    return beam_decode(params, config, enc, decode)


def generate_all(records: list[EncodedRecord], params: Parameters, config: ModelConfig,
                 decode: DecodeConfig) -> list[list[int]]:
    """`decode_group` over `records` in input order, in groups of as many
    reviews as keep a step within MAX_BEAM_WIDTH rows; one response per
    record, in input order."""
    size = max(1, MAX_BEAM_WIDTH // decode.width)
    responses = []
    for i in range(0, len(records), size):
        encs = [encode_review(rec, params, config, tape=None) for rec in records[i:i + size]]
        responses += decode_group(params, config, encs, decode)
    return responses


def postprocess(token_ids: list[int], vocab: Vocabulary) -> str:
    """Detokenize with single spaces; placeholder tokens are emitted verbatim."""
    return " ".join(vocab.decode(token_ids))
