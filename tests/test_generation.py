import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trrgen import generation, model as M
from trrgen.corpus import (EncodedRecord, Vocabulary, build_vocabulary,
                           ReviewRecord, PreprocessConfig, encode_record,
                           tokenize, SOS_ID, EOS_ID)
from trrgen.generation import (DecodeConfig, beam_decode, decode_group, generate, generate_all,
                               postprocess, _top_candidates)

import decode_reference as ref


def random_model(seed, vocab_size=14, n_layers=1, variant="vanilla"):
    config = M.ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2, n_layers=n_layers,
                           d_ff=16, max_tgt_len=10, dropout=0.0,
                           fusion_variant=variant, seed=seed)
    return M.init_parameters(config, seed=seed), config


def enc_for(params, config, src=(9, 10, 11)):
    return M.encode_review(EncodedRecord(list(src), [2, 3], 4, 9), params, config)


class TestDecodeConfig:
    def test_rejects_bad_strategy(self):
        with pytest.raises(ValueError):
            DecodeConfig(strategy="sampling")

    def test_rejects_zero_beam(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=0)

    @pytest.mark.parametrize("width", [-1, 65, 100000])
    def test_rejects_beam_width_outside_range(self, width):
        with pytest.raises(ValueError, match=r"^beam_width must be in \[1, 64\]"):
            DecodeConfig(strategy="beam", beam_width=width)

    def test_beam_width_range_is_inclusive(self):
        assert DecodeConfig(strategy="beam", beam_width=1).beam_width == 1
        assert DecodeConfig(strategy="beam", beam_width=64).beam_width == 64

    @pytest.mark.parametrize("penalty", [-0.5, 10.5, 1e8, float("inf"), float("nan")])
    def test_rejects_length_penalty_outside_range(self, penalty):
        with pytest.raises(ValueError, match="^length_penalty must be in"):
            DecodeConfig(strategy="beam", length_penalty=penalty)

    def test_length_penalty_range_is_inclusive(self):
        assert DecodeConfig(length_penalty=0).length_penalty == 0
        assert DecodeConfig(length_penalty=10).length_penalty == 10


class TestGreedy:
    def test_immediate_eos_gives_empty_output(self):
        params, config = random_model(0)
        params.out_proj.values[:] = 0.0
        params.out_bias.values[:] = 0.0
        params.out_bias.values[EOS_ID] = 100.0
        out = beam_decode(params, config, enc_for(params, config), DecodeConfig())
        assert out == []

    def test_length_bounded(self):
        params, config = random_model(1)
        decode = DecodeConfig(max_len=4)
        out = beam_decode(params, config, enc_for(params, config), decode)
        assert len(out) <= 4

    def test_deterministic(self):
        params, config = random_model(2)
        enc = enc_for(params, config)
        a = beam_decode(params, config, enc, DecodeConfig())
        b = beam_decode(params, config, enc, DecodeConfig())
        assert a == b


class TestBeam:
    @pytest.mark.parametrize("seed", range(50))
    def test_width_one_equals_greedy(self, seed):
        params, config = random_model(seed)
        enc = enc_for(params, config, src=(9 + seed % 3, 10, 12))
        greedy = ref.greedy_decode(params, config, enc, DecodeConfig())
        beam = beam_decode(params, config, enc, DecodeConfig(strategy="beam",
                                                             beam_width=1))
        assert beam == greedy

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_beam_score_at_least_greedy(self, seed):
        params, config = random_model(seed)
        params.out_proj.values *= 2.5          # sharpen the distribution
        params.out_bias.values[EOS_ID] += 2.0  # so hypotheses terminate with ⟨eos⟩
        enc = enc_for(params, config)
        greedy = beam_decode(params, config, enc, DecodeConfig())
        beam = beam_decode(params, config, enc,
                           DecodeConfig(strategy="beam", beam_width=4))
        if len(greedy) >= config.max_tgt_len - 1 or len(beam) >= config.max_tgt_len - 1:
            pytest.skip("hypothesis hit the length cap; scores not comparable")
        gs = ref.hypothesis_score(greedy, enc, params, config)
        bs = ref.hypothesis_score(beam, enc, params, config)
        assert bs >= gs - 1e-9

    @pytest.mark.parametrize("width", range(1, 6))
    def test_one_decoder_call_per_step(self, width, monkeypatch):
        params, config = random_model(width)
        params.out_bias.values[EOS_ID] = -1e9  # nothing finishes, so every step runs
        enc = enc_for(params, config)
        calls = []

        def counting(tokens, *args):
            calls.append(np.shape(tokens))
            return M.decoder_step(tokens, *args)

        def full_prefix(*args):
            raise AssertionError("decoding ran decoder_forward")
        monkeypatch.setattr("trrgen.generation.decoder_step", counting)
        monkeypatch.setattr("trrgen.model.decoder_forward", full_prefix)
        decode = DecodeConfig(strategy="beam", beam_width=width, max_len=6)
        assert len(beam_decode(params, config, enc, decode)) == 6
        assert calls == [(1,)] + [(width,)] * 5

    def test_empty_output_case_matches_greedy(self):
        params, config = random_model(3)
        params.out_proj.values[:] = 0.0
        params.out_bias.values[:] = 0.0
        params.out_bias.values[EOS_ID] = 100.0
        enc = enc_for(params, config)
        assert beam_decode(params, config, enc,
                           DecodeConfig(strategy="beam", beam_width=4)) == []


def seeded_and_eos_boosted(seed, **model):
    params, config = random_model(seed, **model)
    yield "seeded", params, config
    params, config = random_model(seed, **model)
    params.out_proj.values *= 2.5          # sharpened, as in test_beam_score_at_least_greedy
    params.out_bias.values[EOS_ID] += 2.0
    yield "eos_boosted", params, config


def tied(seed):
    """Logits that do not depend on the input: all equal, then a few levels
    shared by many tokens, ⟨eos⟩ among them."""
    params, config = random_model(seed)
    params.out_proj.values[:] = 0.0
    yield "all_ties", params, config
    params, config = random_model(seed)
    params.out_proj.values[:] = 0.0
    params.out_bias.values[:] = np.random.default_rng(seed).integers(0, 3, config.vocab_size)
    yield "tied_levels", params, config


class TestMatchesReference:
    """The greedy and beam loops against the loop-based decoders of decode_reference."""

    @staticmethod
    def check(seed, cases):
        for label, params, config in cases:
            enc = enc_for(params, config, src=(9 + seed % 3, 10, 11 + seed % 2))
            cap = config.max_tgt_len - 1
            for max_len in (cap, 1 + seed % (cap - 1)):
                greedy = DecodeConfig(max_len=max_len)
                assert (beam_decode(params, config, enc, greedy)
                        == ref.greedy_decode(params, config, enc, greedy)), (label, max_len)
                for width in range(1, 6):
                    decode = DecodeConfig(strategy="beam", beam_width=width, max_len=max_len,
                                          length_penalty=(seed % 3) / 2)
                    assert (beam_decode(params, config, enc, decode)
                            == ref.beam_decode(params, config, enc, decode)), (label, max_len, width)

    @pytest.mark.parametrize("seed", range(50))
    def test_token_identical(self, seed):
        self.check(seed, seeded_and_eos_boosted(seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_token_identical_under_ties(self, seed):
        self.check(seed, tied(seed))

    @pytest.mark.parametrize("variant", ["trrgen_concat", "trrgen_order"])
    @pytest.mark.parametrize("seed", range(6))
    def test_token_identical_two_layers(self, seed, variant):
        """A second layer and prepended ⟨cat⟩/⟨r⟩ slots, which a cache read
        from the wrong layer or missing an encoder slot would get wrong."""
        self.check(seed, seeded_and_eos_boosted(seed, n_layers=2, variant=variant))

    @pytest.mark.parametrize("width", [7, 8, 14, 64])
    @pytest.mark.parametrize("seed", range(2))
    def test_token_identical_for_wide_beams(self, seed, width):
        """2·width ≥ V = 14, so `_top_candidates` keeps every one of the W·V
        candidates; `generate_all` decodes groups of 64 // width reviews."""
        for label, params, config in [*seeded_and_eos_boosted(seed), next(tied(seed))]:
            records = [EncodedRecord(list(src), [2, 3], 4 + i, 9)
                       for i, src in enumerate([(9 + seed % 3, 10), (11,), (12, 13, 9)])]
            encs = [M.encode_review(rec, params, config) for rec in records]
            cap = config.max_tgt_len - 1
            for max_len in (cap, 1 + seed % (cap - 1)):
                decode = DecodeConfig(strategy="beam", beam_width=width, max_len=max_len,
                                      length_penalty=(seed % 3) / 2)
                want = [ref.beam_decode(params, config, enc, decode) for enc in encs]
                assert [beam_decode(params, config, enc, decode) for enc in encs] == want, label
                assert generate_all(records, params, config, decode) == want, label

    @pytest.mark.parametrize("seed", range(10))
    def test_teacher_forced_score(self, seed):
        """One decoder pass over ⟨sos⟩ + tokens scores them as the per-prefix
        oracle does, the equality an incremental decoder must keep."""
        params, config = random_model(seed)
        enc = enc_for(params, config)
        rng = np.random.default_rng(seed)
        for n in (0, 1, config.max_tgt_len - 1):
            tokens = [int(t) for t in rng.integers(0, config.vocab_size, n)]
            expected = ref.hypothesis_score(tokens, enc, params, config)
            logits = M.decoder_forward([SOS_ID] + tokens, enc, params, config).values
            got = sum(ref._log_softmax(row)[tok] for row, tok in zip(logits, tokens + [EOS_ID]))
            assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_max_len_above_cap_rejected_before_decoding(self, monkeypatch):
        params, config = random_model(0)
        enc = enc_for(params, config)
        monkeypatch.setattr("trrgen.generation.decoder_step", None)
        for decode in (DecodeConfig(max_len=config.max_tgt_len),
                       DecodeConfig(strategy="beam", max_len=500)):
            with pytest.raises(M.ConfigError, match="max_len"):
                beam_decode(params, config, enc, decode)


REVIEWS = st.lists(st.integers(5, 13), min_size=1, max_size=5)  # 1-token reviews included


class TestGroupDecoding:
    """Reviews decoded together against each review decoded alone by the
    per-prefix oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**16), st.lists(REVIEWS, min_size=1, max_size=6),
           st.lists(st.integers(1, 5), min_size=6, max_size=6), st.integers(1, 5),
           st.sampled_from([0.0, 0.5, 1.0]), st.booleans(), st.sampled_from([None, 2, 5]))
    def test_token_identical_to_each_review_alone(self, seed, reviews, ratings, width,
                                                   penalty, boosted, max_len):
        """Boosted ⟨eos⟩ makes reviews finish at different steps."""
        cases = {label: (params, config) for label, params, config in seeded_and_eos_boosted(
            seed, n_layers=1 + seed % 2, variant=M.FUSION_VARIANTS[seed % 6])}
        params, config = cases["eos_boosted" if boosted else "seeded"]
        records = [EncodedRecord(src, [2, 3], ratings[i], 9 + i % 2)
                   for i, src in enumerate(reviews)]
        encs = [M.encode_review(rec, params, config) for rec in records]
        for decode, oracle in ((DecodeConfig(max_len=max_len), ref.greedy_decode),
                               (DecodeConfig(strategy="beam", beam_width=width,
                                             max_len=max_len, length_penalty=penalty),
                                ref.beam_decode)):
            hyps = decode_group(params, config, encs, decode)
            want = [oracle(params, config, enc, decode) for enc in encs]
            assert hyps == want
            cap = decode.max_len or config.max_tgt_len - 1
            assert all(EOS_ID not in hyp and len(hyp) <= cap for hyp in hyps)
            assert generate_all(records, params, config, decode) == hyps

    @pytest.mark.parametrize("width", [1, 3])
    def test_one_decoder_core_call_per_step_for_the_group(self, width, monkeypatch):
        params, config = random_model(width)
        params.out_bias.values[EOS_ID] = -1e9  # nothing finishes, so every step runs
        encs = [enc_for(params, config, src) for src in [(9,), (10, 11, 12, 13), (9, 12)]]
        calls, decode_positions = [], M._decode_positions

        def counting(ids, *args, **kwargs):
            calls.append(np.shape(ids))
            return decode_positions(ids, *args, **kwargs)
        monkeypatch.setattr(M, "_decode_positions", counting)
        decode = DecodeConfig(strategy="beam", beam_width=width, max_len=6)
        assert [len(h) for h in decode_group(params, config, encs, decode)] == [6] * 3
        assert calls == [(3, 1)] + [(3 * width, 1)] * 5

    @pytest.mark.parametrize("seed", [1, 3, 5, 10])
    def test_each_review_keeps_the_rows_it_has_alone(self, seed, monkeypatch):
        """Every step carries, for each review, the rows it would carry if
        decoded alone, and none once it is done: reviews finish at different
        steps and leave the step and the cache."""
        _, (_, params, config) = seeded_and_eos_boosted(seed)
        encs = [enc_for(params, config, src) for src in [(9,), (10, 11, 12), (13, 9), (12,)]]
        steps = []

        def recording(tokens, cache, *args):
            steps.append(np.bincount(cache.reviews, minlength=len(encs)).tolist())
            return M.decoder_step(tokens, cache, *args)
        monkeypatch.setattr("trrgen.generation.decoder_step", recording)
        decode = DecodeConfig(strategy="beam", beam_width=3)
        alone = []
        for enc in encs:
            steps.clear()
            decode_group(params, config, [enc], decode)
            alone.append([rows[0] for rows in steps])
        steps.clear()
        decode_group(params, config, encs, decode)
        assert len(steps) == max(len(rows) for rows in alone)
        assert len({len(rows) for rows in alone}) > 1  # finished at different steps
        for k, rows in enumerate(steps):
            assert rows == [counts[k] if k < len(counts) else 0 for counts in alone]

    def test_group_size_keeps_steps_within_the_row_ceiling(self, monkeypatch):
        params, config = random_model(5)
        params.out_bias.values[EOS_ID] = -1e9
        records = [EncodedRecord([9 + i % 4], [2, 3], 4, 9) for i in range(70)]
        sizes = []

        def counting(params, config, encs, decode):
            sizes.append(len(encs))
            return decode_group(params, config, encs, decode)
        monkeypatch.setattr("trrgen.generation.decode_group", counting)
        for decode, want in [(DecodeConfig(max_len=2), [64, 6]),
                             (DecodeConfig(strategy="beam", beam_width=30, max_len=2),
                              [2] * 35),
                             (DecodeConfig(strategy="beam", beam_width=64, max_len=1),
                              [1] * 70)]:
            sizes.clear()
            assert len(generate_all(records, params, config, decode)) == 70
            assert sizes == want

    @pytest.mark.parametrize("seed", [2, 5, 10, 19])
    def test_greedy_takes_the_argmax_of_each_row(self, seed, monkeypatch):
        """One decoder step per step and no beam scoring: each review takes
        its row's argmax, and the step's rows fall as reviews retire. The
        cache is touched only on a step where some review retires."""
        _, (_, params, config) = seeded_and_eos_boosted(seed)
        records = [EncodedRecord(src, [2, 3], 4 + i, 9)
                   for i, src in enumerate([[9], [10, 11, 12], [13, 9], [12]])]
        rows, dropped, select = [], [], M.DecoderCache.select

        def counting(tokens, *args):
            rows.append(len(tokens))
            return M.decoder_step(tokens, *args)

        def selecting(cache, kept):
            dropped.append(len(cache.reviews) - len(kept))
            return select(cache, kept)

        def beam_only(*args):
            raise AssertionError("a greedy step ran beam scoring")
        monkeypatch.setattr("trrgen.generation.decoder_step", counting)
        monkeypatch.setattr("trrgen.generation._top_candidates", beam_only)
        monkeypatch.setattr("trrgen.generation._log_softmax", beam_only)
        monkeypatch.setattr(M.DecoderCache, "select", selecting)
        got = generate_all(records, params, config, DecodeConfig())
        encs = [M.encode_review(rec, params, config) for rec in records]
        assert got == [ref.greedy_decode(params, config, enc, DecodeConfig()) for enc in encs]
        cap = config.max_tgt_len - 1
        steps = [min(len(ids) + 1, cap) for ids in got]  # a response ended by ⟨eos⟩ took one more
        assert len(set(steps)) > 1  # finished at different steps
        assert rows == [sum(n > k for n in steps) for k in range(max(steps))]
        assert dropped and 0 not in dropped

    def test_beam_scores_candidates(self, monkeypatch):
        params, config = random_model(3)
        calls = []
        for name in ("_top_candidates", "_log_softmax"):
            def counted(*args, name=name, fn=getattr(generation, name)):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(generation, name, counted)
        decode = DecodeConfig(strategy="beam", beam_width=3, max_len=4)
        beam_decode(params, config, enc_for(params, config), decode)
        assert {"_top_candidates", "_log_softmax"} <= set(calls)

    def test_no_review_gives_no_response(self):
        params, config = random_model(0)
        for decode in (DecodeConfig(), DecodeConfig(strategy="beam", beam_width=3)):
            assert decode_group(params, config, [], decode) == []
            assert generate_all([], params, config, decode) == []


# a tiny value set makes ties everywhere; -inf is a masked token
TIED_SCORES = st.sampled_from([-np.inf, -2.0, -0.5, 0.0])
SCORES = st.one_of(TIED_SCORES, st.floats(-30.0, 0.0))


class TestTopCandidates:
    """The row-wise selection against the flat-partition oracle it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 12), st.data())
    def test_matches_flat_partition(self, w, v, data):
        values = data.draw(st.sampled_from([TIED_SCORES, SCORES]))
        scores = np.array(data.draw(st.lists(values, min_size=w * v, max_size=w * v)))
        scores = scores.reshape(w, v)
        k = data.draw(st.integers(1, w * v + 3))  # k ≥ W·V keeps every entry
        assert _top_candidates(scores, k) == ref.top_candidates(scores, k)

    @pytest.mark.parametrize("w", [1, 2, 4, 8])
    def test_matches_flat_partition_at_vocabulary_width(self, w):
        rng = np.random.default_rng(w)
        scores = rng.normal(size=(w, 8000))
        scores[:, rng.integers(0, 8000, 50)] = -np.inf
        scores[:, 7] = scores.max()  # one token tied at the top of every row
        for k in (1, 2 * w, 3 * w + 1):
            assert _top_candidates(scores, k) == ref.top_candidates(scores, k)


def eos_biased(seeds):
    """Sharpened random models with ⟨eos⟩ boosted by 0, 2 and 3; over a few
    seeds their responses take most lengths from 0 to the cap."""
    for seed in seeds:
        for bias in (0.0, 2.0, 3.0):
            params, config = random_model(seed)
            params.out_proj.values *= 2.5
            params.out_bias.values[EOS_ID] += bias
            yield seed, params, config


class TestResponses:
    """What leaves the decoder is each review's response: no ⟨eos⟩, and
    exactly the length cap long only when decoding stopped at the cap."""

    @staticmethod
    def records(seed):
        return [EncodedRecord([9 + (seed + i) % 5, 10 + i % 3][:1 + i % 2], [2, 3], 4 + i % 5,
                              9 + i % 2) for i in range(6)]

    def test_no_entry_point_returns_eos(self):
        lengths = set()
        for seed, params, config in eos_biased(range(8)):
            records = self.records(seed)
            encs = [M.encode_review(rec, params, config) for rec in records]
            cap = config.max_tgt_len - 1
            for decode in (DecodeConfig(), DecodeConfig(strategy="beam", beam_width=3)):
                responses = [*decode_group(params, config, encs, decode),
                             *generate_all(records, params, config, decode),
                             *(beam_decode(params, config, enc, decode) for enc in encs)]
                assert all(EOS_ID not in ids and len(ids) <= cap for ids in responses)
                lengths.update(len(ids) for ids in responses)
        assert {0, 1, cap - 1, cap} <= lengths

    def test_greedy_response_one_step_later(self):
        """At cap + 1, a greedy response shorter than the cap, which stopped
        at ⟨eos⟩, is unchanged, and one exactly the cap long, which stopped
        at the cap, is a prefix of the new response."""
        ended = capped = 0
        for seed, params, config in eos_biased(range(8)):
            records = self.records(seed)
            for cap in range(1, config.max_tgt_len - 1):
                now, later = (generate_all(records, params, config, DecodeConfig(max_len=n))
                              for n in (cap, cap + 1))
                for ids, more in zip(now, later):
                    assert EOS_ID not in ids and len(ids) <= cap
                    assert (ids == more) if len(ids) < cap else (more[:cap] == ids)
                    ended += len(ids) < cap
                    capped += len(ids) == cap
        assert ended > 100 and capped > 100


# The features each variant does not read, and one it does, as EncodedRecord
# fields; SWAPS moves each to another valid id.
UNREAD = {"vanilla": ("rating_id", "category_id"), "rating_only": ("category_id",),
          "category_only": ("rating_id",)}
READ = {"vanilla": "src_ids", "rating_only": "rating_id", "category_only": "category_id"}
SWAPS = {"src_ids": lambda ids: [13 + (t - 12) % 27 for t in ids],
         "rating_id": lambda r: 4 + (r - 3) % 5, "category_id": lambda c: 9 + (c - 8) % 4}


class TestUnreadFeatures:
    """A variant's responses are bitwise independent of every feature it does
    not read. Swapping one it reads changes some response, so the check
    cannot pass on responses that ignore their input."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("variant", sorted(UNREAD))
    def test_responses_ignore_unread_features(self, variant, n_layers):
        config = M.ModelConfig(vocab_size=40, d_model=16, n_heads=2, n_layers=n_layers,
                               d_ff=32, max_tgt_len=9, dropout=0.0, fusion_variant=variant,
                               seed=n_layers)
        params = M.init_parameters(config, seed=n_layers)
        # nothing finishes, so every response has all 8 tokens that a swap may change
        params.out_bias.values[EOS_ID] = -1e9
        rng = np.random.default_rng(n_layers)
        records = [EncodedRecord(rng.integers(13, 40, rng.integers(1, 8)).tolist(), [2, 3],
                                 int(rng.integers(4, 9)), int(rng.integers(9, 13)))
                   for _ in range(20)]

        def swapped(field):
            return [dataclasses.replace(rec, **{field: SWAPS[field](getattr(rec, field))})
                    for rec in records]
        for decode in (DecodeConfig(), DecodeConfig(strategy="beam", beam_width=3)):
            responses = generate_all(records, params, config, decode)
            for field in UNREAD[variant]:
                assert generate_all(swapped(field), params, config, decode) == responses, field
            assert generate_all(swapped(READ[variant]), params, config, decode) != responses


class TestPostprocess:
    def vocab(self):
        rec = ReviewRecord("a", "T", 3, "thanks for your review contact ⟨email⟩", "x")
        return build_vocabulary([rec], min_freq=1)

    def test_simple_join(self):
        vocab = self.vocab()
        ids = [vocab.token_to_id[t] for t in ["thanks", "for", "your", "review"]]
        assert postprocess(ids, vocab) == "thanks for your review"

    def test_placeholder_passthrough(self):
        vocab = self.vocab()
        ids = [vocab.token_to_id[t] for t in ["contact", "⟨email⟩"]]
        assert postprocess(ids, vocab) == "contact ⟨email⟩"

    def test_round_trip_of_in_vocab_response(self):
        vocab = self.vocab()
        text = "thanks  for your   review"
        ids = [vocab.token_to_id[t] for t in tokenize(text)]
        assert postprocess(ids, vocab) == " ".join(text.split())
