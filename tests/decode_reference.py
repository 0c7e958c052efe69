"""Per-prefix decoders kept as test oracles for `trrgen.generation`.

Each runs one full `decoder_forward` over every prefix it extends and keeps
the last row, with no cache. `greedy_decode` appends the argmax token and
`beam_decode` builds and sorts a Python list of (prefix, score, token)
candidates each step. The library decodes one position per step from a
key/value cache, in one vectorized beam loop, and tests require
token-identical output. `hypothesis_score` sums per-prefix log-probabilities;
it is the oracle for scoring a whole sequence in one teacher-forced pass
(within 1e-12 relative error) and for comparing decoded hypotheses.
"""

import numpy as np

from trrgen.corpus import SOS_ID, EOS_ID
from trrgen.model import decoder_forward


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
