"""Decoding a trained model into response text.

Decoding is deterministic, with no sampling path. Greedy decoding, like
beam search at width 1, takes each review's highest logit at every step
(ties to the lowest token id); beam search at width 2 and above ranks
hypotheses by summed token log-probabilities.

Both run incrementally and grouped, on one decoder core: `decode_group`
decodes several reviews together, and each step runs only the newest
position of every live hypothesis of every unfinished review, in one call
of `model.decoder_step` (the core that training also runs; at width 1,
`model.greedy_step`) against the group's key/value cache, so no step
recomputes a prefix. Each review keeps its own hypotheses, so its response
(the winner without ⟨sos⟩ and ⟨eos⟩) does not depend on the other reviews
of its group. `generate` decodes one review, and `generate_all` many, in
groups that keep a step within MAX_BEAM_WIDTH rows. Tests hold the loop to
the per-review, per-prefix decoders of `tests/decode_reference.py`, which
rerun that file's reference decoder on every prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SOS_ID, EOS_ID, Vocabulary, EncodedRecord, check_fields
from .model import (ModelConfig, ConfigError, Parameters, encode_review, init_group_cache,
                    decoder_step, greedy_screen, greedy_step)
from .tensor import Tensor


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
        check_fields(self, ValueError, [
            ("strategy", self.strategy in ("greedy", "beam"), "greedy or beam"),
            ("beam_width", 1 <= self.beam_width <= MAX_BEAM_WIDTH, f"in [1, {MAX_BEAM_WIDTH}]"),
            ("max_len", self.max_len is None or self.max_len >= 1, ">= 1"),
            ("length_penalty", 0 <= self.length_penalty <= 10, "in [0, 10]")])

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
    """Log-softmax of each row (last axis), written over `x`."""
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    x -= np.log(np.add.reduce(np.exp(x), axis=-1, keepdims=True))
    return x


def _top_candidates(scores: np.ndarray, k: int) -> list[tuple[int, int]]:
    """(hypothesis, token) pairs of the k best entries of a [W, V] score array,
    ordered by score descending, then token id, then hypothesis index.

    Linear in W·V: one of the k best has fewer than k entries above it in its
    row, so it is at or above its row's k-th score, which a partition of
    each row finds. Only those entries, ties included, are sorted.
    """
    v = scores.shape[1]
    kth = np.partition(scores, v - min(k, v), axis=1)[:, v - min(k, v), None]
    h, tok = np.divmod(np.flatnonzero(scores >= kth), v)
    best = np.lexsort((h, tok, -scores[h, tok]))[:k]
    return list(zip(h[best].tolist(), tok[best].tolist()))


def decode_group(params: Parameters, config: ModelConfig, encs: list[Tensor],
                 decode: DecodeConfig) -> list[list[int]]:
    """Decode a group of reviews at once: each step runs the decoder once, on
    the newest token of every live hypothesis of every unfinished review,
    stacked review by review; `cache.reviews` names each row's review.

    At width 1 (greedy), each review's next token is its row's argmax, and
    a review whose token is ⟨eos⟩ is done and leaves the cache. At width 2
    and above, beam search: each review scores its hypotheses extended by
    every token, by summed log-probability, and walks its best 2·width
    candidates. Those ending in ⟨eos⟩ are retired, the rest stay live until
    `width` are, and the cache keeps the rows of their parents. A review is
    done once it has no live hypothesis or `width` finished ones, and its
    rows leave the cache. Its best finished hypothesis (or, failing any, its
    best live one) wins.

    Returns each review's response: its winner without ⟨sos⟩ and ⟨eos⟩,
    `length_cap` tokens long exactly when decoding stopped at the cap.
    """
    max_len, width = decode.length_cap(config), decode.width
    if not encs:
        return []
    cache = init_group_cache(encs, params, config)
    if width == 1:
        responses, screen = [[] for _ in encs], greedy_screen(params)
        tokens = np.full(len(encs), SOS_ID)
        for _ in range(max_len):
            tokens = greedy_step(tokens, cache, params, config, screen)
            going = tokens != EOS_ID
            if not going.all():
                tokens = tokens[going]
                if not tokens.size:
                    break
                cache.select(np.flatnonzero(going))
            for r, tok in zip(cache.reviews.tolist(), tokens.tolist()):
                responses[r].append(tok)
        return responses
    live = [[([SOS_ID], 0.0)] for _ in encs]   # per review: (prefix, summed logprob)
    finished: list[list[tuple[list[int], float]]] = [[] for _ in encs]

    for _ in range(max_len):
        active = dict.fromkeys(cache.reviews.tolist())  # unfinished reviews, in row order
        hyps = [hyp for r in active for hyp in live[r]]
        logits = decoder_step(np.array([prefix[-1] for prefix, _ in hyps]), cache,
                              params, config)
        scores = _log_softmax(logits)
        scores += np.array([score for _, score in hyps])[:, None]
        parents, first = [], 0  # rows kept; the review's first row
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
                parents += kept
            first += len(beams)
        if not parents:
            break
        cache.select(parents)

    def final_score(hyp):
        tokens, score = hyp
        length = max(len(tokens) - 1, 1)  # exclude ⟨sos⟩; a finished one's ⟨eos⟩ counts
        return score / (length ** decode.length_penalty)

    return [max(done, key=final_score)[0][1:-1] if done else max(left, key=final_score)[0][1:]
            for done, left in zip(finished, live)]


def beam_decode(params: Parameters, config: ModelConfig, enc: Tensor,
                decode: DecodeConfig) -> list[int]:
    """`decode_group` for one review: its response."""
    return decode_group(params, config, [enc], decode)[0]


def generate(record: EncodedRecord, params: Parameters, config: ModelConfig,
             decode: DecodeConfig) -> list[int]:
    return beam_decode(params, config, encode_review(record, params, config), decode)


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
