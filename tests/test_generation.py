import numpy as np
import pytest

from trrgen import model as M
from trrgen.corpus import (EncodedRecord, Vocabulary, build_vocabulary,
                           ReviewRecord, PreprocessConfig, encode_record,
                           tokenize, EOS_ID)
from trrgen.generation import (DecodeConfig, greedy_decode, beam_decode,
                               hypothesis_score, generate, postprocess)


def random_model(seed, vocab_size=14):
    config = M.ModelConfig(vocab_size=vocab_size, d_model=8, n_heads=2, n_layers=1,
                           d_ff=16, max_tgt_len=10, dropout=0.0,
                           fusion_variant="vanilla", seed=seed)
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


class TestGreedy:
    def test_immediate_eos_gives_empty_output(self):
        params, config = random_model(0)
        params.out_proj.values[:] = 0.0
        params.out_bias.values[:] = 0.0
        params.out_bias.values[EOS_ID] = 100.0
        out = greedy_decode(params, config, enc_for(params, config), DecodeConfig())
        assert out == []

    def test_length_bounded(self):
        params, config = random_model(1)
        decode = DecodeConfig(max_len=4)
        out = greedy_decode(params, config, enc_for(params, config), decode)
        assert len(out) <= 4

    def test_deterministic(self):
        params, config = random_model(2)
        enc = enc_for(params, config)
        a = greedy_decode(params, config, enc, DecodeConfig())
        b = greedy_decode(params, config, enc, DecodeConfig())
        assert a == b


class TestBeam:
    @pytest.mark.parametrize("seed", range(50))
    def test_width_one_equals_greedy(self, seed):
        params, config = random_model(seed)
        enc = enc_for(params, config, src=(9 + seed % 3, 10, 12))
        greedy = greedy_decode(params, config, enc, DecodeConfig())
        beam = beam_decode(params, config, enc, DecodeConfig(strategy="beam",
                                                             beam_width=1))
        assert beam == greedy

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_beam_score_at_least_greedy(self, seed):
        params, config = random_model(seed)
        params.out_proj.values *= 2.5          # sharpen the distribution
        params.out_bias.values[EOS_ID] += 2.0  # so hypotheses terminate with ⟨eos⟩
        enc = enc_for(params, config)
        greedy = greedy_decode(params, config, enc, DecodeConfig())
        beam = beam_decode(params, config, enc,
                           DecodeConfig(strategy="beam", beam_width=4))
        if len(greedy) >= config.max_tgt_len - 1 or len(beam) >= config.max_tgt_len - 1:
            pytest.skip("hypothesis hit the length cap; scores not comparable")
        gs = hypothesis_score(greedy, enc, params, config)
        bs = hypothesis_score(beam, enc, params, config)
        assert bs >= gs - 1e-9

    def test_empty_output_case_matches_greedy(self):
        params, config = random_model(3)
        params.out_proj.values[:] = 0.0
        params.out_bias.values[:] = 0.0
        params.out_bias.values[EOS_ID] = 100.0
        enc = enc_for(params, config)
        assert beam_decode(params, config, enc,
                           DecodeConfig(strategy="beam", beam_width=4)) == []


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
