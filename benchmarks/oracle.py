"""Independent NumPy reference for the decode workloads' output checks.

It rebuilds the seeded weights by replaying `init_parameters`' draw order
(per-head Xavier blocks, stacked into fused d×d projections), then decodes
incrementally with a key/value cache. It shares no code with `trrgen`, so a
wrong answer from the program cannot also be the expected answer.

Greedy output for `max_len = L` is the first L tokens of the output for any
longer `max_len`, because the decoder is causal and the banned ids (⟨eos⟩
included) can never win.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

SOS_ID, EOS_ID = 2, 3
LN_EPS = 1e-5


def _layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma + beta


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _positions(n, d):
    angle = np.arange(n, dtype=np.float64)[:, None] / np.power(
        10000.0, np.arange(0, d, 2, dtype=np.float64) / d)
    pe = np.empty((n, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


class ReferenceModel:
    """trrgen_concat encoder-decoder, post-norm, inference only."""

    def __init__(self, vocab_size, d_model, n_heads, n_layers, d_ff, seed,
                 banned_ids, max_positions=128):
        rng = np.random.default_rng(seed)
        d, h = d_model, n_heads
        self.h, self.dk = h, d // h

        def xavier(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        def attn():
            wq = np.hstack([xavier(d, d // h) for _ in range(h)])
            wk = np.hstack([xavier(d, d // h) for _ in range(h)])
            wv = np.hstack([xavier(d, d // h) for _ in range(h)])
            return wq, wk, wv, xavier(d, d)

        def ffn():
            return xavier(d, d_ff), np.zeros(d_ff), xavier(d_ff, d), np.zeros(d)

        norm = (np.ones(d), np.zeros(d))
        self.emb = xavier(vocab_size, d)
        self.enc = [(attn(), norm, ffn(), norm) for _ in range(n_layers)]
        self.dec = [(attn(), norm, attn(), norm, ffn(), norm) for _ in range(n_layers)]
        self.out_proj = xavier(d, vocab_size)
        self.out_bias = np.zeros(vocab_size)
        self.out_bias[banned_ids] = -1e9
        self.pe = _positions(max_positions, d)

    def _heads(self, x):
        return x.reshape(*x.shape[:-1], self.h, self.dk).swapaxes(-2, -3)

    def _attend(self, q, k, v, mask=None):
        """q [..., Tq, d], k/v [..., Tk, d] -> [..., Tq, d]."""
        scores = self._heads(q) @ self._heads(k).swapaxes(-1, -2) / np.sqrt(self.dk)
        if mask is not None:
            scores = scores + mask
        z = _softmax(scores) @ self._heads(v)
        return z.swapaxes(-2, -3).reshape(*q.shape)

    @staticmethod
    def _ffn(x, p):
        w1, b1, w2, b2 = p
        return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2

    def encode(self, rec):
        """Per decoder layer, the cross-attention keys and values [n, d]."""
        n = len(rec.src_ids)
        x = self.emb[rec.src_ids] + self.emb[rec.rating_id] + self.pe[:n]
        h = np.vstack([self.emb[rec.category_id][None, :], x])
        for (wq, wk, wv, wo), n1, f, n2 in self.enc:
            h = _layer_norm(h + self._attend(h @ wq, h @ wk, h @ wv) @ wo, *n1)
            h = _layer_norm(h + self._ffn(h, f), *n2)
        return [(h @ cp[1], h @ cp[2]) for _, _, cp, _, _, _ in self.dec]

    def _cross(self, records):
        """Cross-attention keys/values for R reviews, zero-padded to the
        longest, with an additive key mask [R, 1, 1, n_max]."""
        per_review = [self.encode(r) for r in records]
        n_max = max(kv[0][0].shape[0] for kv in per_review)
        mask = np.zeros((len(records), 1, 1, n_max))
        for r, kv in enumerate(per_review):
            mask[r, ..., kv[0][0].shape[0]:] = -np.inf
        cross = []
        for layer in range(len(self.dec)):
            k = np.zeros((len(records), n_max, self.emb.shape[1]))
            v = np.zeros_like(k)
            for r, kv in enumerate(per_review):
                k[r, :kv[layer][0].shape[0]] = kv[layer][0]
                v[r, :kv[layer][1].shape[0]] = kv[layer][1]
            cross.append((k, v, mask))
        return cross

    def step(self, cache, cross, tokens, pos):
        """Logits [R, V] for R rows whose next input is `tokens` at `pos`.

        `cache` holds per-layer self-attention keys/values [R, pos, d];
        `cross` per layer (keys, values, mask) with a leading axis of R or 1.
        """
        x = self.emb[tokens] + self.pe[pos]
        for i, ((wq, wk, wv, wo), n1, cp, n2, f, n3) in enumerate(self.dec):
            k_new, v_new = (x @ wk)[:, None, :], (x @ wv)[:, None, :]
            k, v = cache[i]
            k = k_new if k is None else np.concatenate([k, k_new], axis=1)
            v = v_new if v is None else np.concatenate([v, v_new], axis=1)
            cache[i] = (k, v)
            z = self._attend((x @ wq)[:, None, :], k, v)[:, 0, :]
            h = _layer_norm(x + z @ wo, *n1)
            ck, cv, mask = cross[i]
            z = self._attend((h @ cp[0])[:, None, :], ck, cv, mask)[:, 0, :]
            h = _layer_norm(h + z @ cp[3], *n2)
            x = _layer_norm(h + self._ffn(h, f), *n3)
        return x @ self.out_proj + self.out_bias

    def greedy(self, records, max_len):
        """Greedy outputs for many reviews at once, decoded as one batch."""
        cross = self._cross(records)
        cache = [(None, None)] * len(self.dec)
        tokens = np.full(len(records), SOS_ID)
        steps = []
        for pos in range(max_len):
            tokens = np.argmax(self.step(cache, cross, tokens, pos), axis=1)
            steps.append(tokens)
        out = []
        for row in np.array(steps).T.tolist():
            out.append(row[:row.index(EOS_ID)] if EOS_ID in row else row)
        return out

    def beam(self, rec, max_len, width):
        """Beam search with `beam_decode`'s rules: candidates ordered by score
        descending, then token id, then hypothesis order; the first 2W are
        scanned, ⟨eos⟩ retires a hypothesis; length penalty 0."""
        cross = [(k[None], v[None], None) for k, v in self.encode(rec)]
        cache = [(None, None)] * len(self.dec)
        live = [([SOS_ID], 0.0)]
        finished = []
        for pos in range(max_len):
            logits = self.step(cache, cross, np.array([p[-1] for p, _ in live]), pos)
            m = logits.max(axis=1, keepdims=True)
            logp = logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
            scores = np.array([s for _, s in live])[:, None] + logp
            hyp, tok = np.indices(scores.shape)
            order = np.lexsort((hyp.ravel(), tok.ravel(), -scores.ravel()))
            new_live, parents = [], []
            for j in order[:2 * width]:
                hj, tj = divmod(int(j), scores.shape[1])
                prefix = live[hj][0] + [tj]
                if tj == EOS_ID:
                    finished.append((prefix, scores[hj, tj]))
                else:
                    new_live.append((prefix, scores[hj, tj]))
                    parents.append(hj)
                if len(new_live) >= width:
                    break
            live = new_live
            cache = [(k[parents], v[parents]) for k, v in cache]
            if not live or len(finished) >= width:
                break
        pool = finished if finished else live
        best = pool[int(np.argmax([s for _, s in pool]))][0][1:]
        return best[:-1] if best and best[-1] == EOS_ID else best


def bleu_stats(candidates, references, max_n=4):
    """(candidate token count, [p1..p_max_n]) with clipped corpus counts."""
    precisions = []
    for n in range(1, max_n + 1):
        matched = total = 0
        for cand, ref in zip(candidates, references):
            c = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
            r = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            matched += sum(min(k, r[g]) for g, k in c.items())
            total += sum(c.values())
        precisions.append(matched / total if total else 0.0)
    return sum(len(c) for c in candidates), precisions
