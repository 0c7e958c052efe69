import numpy as np
import pytest

from trrgen import model as M
from trrgen.corpus import (EncodedRecord, Vocabulary, build_vocabulary,
                           ReviewRecord, PreprocessConfig, encode_record,
                           tokenize, SOS_ID, EOS_ID)
from trrgen.generation import DecodeConfig, beam_decode, generate, postprocess

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
    """The one beam loop against the loop-based decoders of decode_reference."""

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


class TestPostprocess:
    def vocab(self):
        rec = ReviewRecord("a", "T", 3, "thanks for your review contact ⟨email⟩", "x")
        return build_vocabulary([rec], min_freq=1)

    def test_simple_join(self):
        vocab = self.vocab()
        ids = vocab.encode(["thanks", "for", "your", "review"])
        assert postprocess(ids, vocab) == "thanks for your review"

    def test_placeholder_passthrough(self):
        vocab = self.vocab()
        ids = vocab.encode(["contact", "⟨email⟩"])
        assert postprocess(ids, vocab) == "contact ⟨email⟩"

    def test_round_trip_of_in_vocab_response(self):
        vocab = self.vocab()
        text = "thanks  for your   review"
        ids = vocab.encode(tokenize(text))
        assert postprocess(ids, vocab) == " ".join(text.split())
