"""Record the golden outputs that `test_golden.py` holds the library to.

    PYTHONPATH=src python tests/record_golden.py

Run it only on a commit whose outputs are trusted: it rewrites golden.json
next to this file. A change that moves outputs on purpose re-records the
file and says why.

For each fusion variant, a 2-layer d_model 16 model over six ragged reviews
(V = 41) records:
- the packed training loss at dropout 0.1 and each parameter's gradient
  norm, by name;
- the losses after each of the first three Adam steps (lr 0.01);
- the greedy and beam-3 `generate_all` responses after `DECODE_AFTER`
  steps, the beam ranked at `length_penalty` 0.7. The recorder checks that
  the penalty changes some response, so that a change to it shows.

It also records the SHA-256 of a checkpoint of the seeded initial
parameters. Floats compare at a relative tolerance (`RTOL`), since BLAS
builds and thread counts may move the last bits; tokens compare exactly.
So that no such difference can flip a token, the recorder refuses a
response if, at any decoding step or in the final ranking, two candidates
that the choice separates lie within `MARGIN` in log-probability.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from trrgen import generation
from trrgen.checkpoint import save_checkpoint
from trrgen.corpus import PreprocessConfig, ReviewRecord, build_vocabulary, encode_record
from trrgen.generation import DecodeConfig, generate_all
from trrgen.model import FUSION_VARIANTS, ModelConfig, forward_training, init_parameters
from trrgen.optim import AdamState, adam_step, zero_grads
from trrgen.tensor import Tape

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
RTOL = 1e-9
MARGIN = 1e-6
DECODE_AFTER = 30

REVIEWS = [
    ("TOOLS", 1, "the app crash after update", "sorry we will fix the crash soon"),
    ("GAME", 5, "great game", "thanks for the love"),
    ("TOOLS", 3, "slow sync after the update please fix", "we will fix sync soon"),
    ("MUSIC", 4, "love the sound", "glad you love it"),
    ("GAME", 2, "remove the ads please", "sorry we will remove ads"),
    ("MUSIC", 1, "no sound", "please update the app"),
]
DECODES = {"greedy": DecodeConfig("greedy"),
           "beam": DecodeConfig("beam", beam_width=3, length_penalty=0.7)}


def setup(variant: str):
    """The vocabulary, encoded records and model config of one variant."""
    records = [ReviewRecord(f"app{i}", cat, rating, review, response)
               for i, (cat, rating, review, response) in enumerate(REVIEWS)]
    vocab = build_vocabulary(records, min_freq=1)
    encoded = [encode_record(r, vocab, PreprocessConfig()) for r in records]
    config = ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, n_layers=2, d_ff=32,
                         max_tgt_len=12, fusion_variant=variant, dropout=0.1, seed=0)
    return vocab, encoded, config


def checkpoint_sha256() -> str:
    """SHA-256 of a checkpoint of the seeded initial `trrgen_concat` model."""
    vocab, _, config = setup("trrgen_concat")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "init.ckpt"
        save_checkpoint(path, init_parameters(config), config, vocab)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def variant_outputs(variant: str, decodes: dict = DECODES) -> dict:
    _, encoded, config = setup(variant)
    params = init_parameters(config)
    tensors = params.all_tensors()
    rng = np.random.default_rng(0)

    def step():
        tape = Tape()
        loss = forward_training(encoded, params, config, tape, rng)
        tape.backward(loss)
        return float(loss.values)

    out = {"loss": step(),
           "grad_norms": {name: float(np.linalg.norm(t.grad)) for name, t in params.named()}}
    state = AdamState(tensors, lr=1e-2)
    losses = []
    for _ in range(DECODE_AFTER):
        adam_step(tensors, state)
        zero_grads(tensors)
        losses.append(step())
    out["adam_losses"] = losses[:3]
    for name, decode in decodes.items():
        out[name] = generate_all(encoded, params, config, decode)
    return out


def golden_outputs() -> dict:
    return {"rtol": RTOL, "checkpoint_sha256": checkpoint_sha256(),
            "variants": {v: variant_outputs(v) for v in FUSION_VARIANTS}}


def _check_gaps(values, what):
    values = np.sort(np.asarray(values, dtype=np.float64).ravel())[::-1]
    gaps = -np.diff(values)
    if gaps.size and gaps.min() < MARGIN:
        raise SystemExit(f"refused: {what} within {gaps.min():.3g} of each other")


def _checked_top_candidates(select):
    """`_top_candidates` that first checks the gaps among the k + 1 best
    scores, so neither the kept set nor its order rests on a near tie."""
    def top_candidates(scores, k):
        _check_gaps(np.sort(scores, axis=None)[-(k + 1):], "beam candidates")
        return select(scores, k)
    return top_candidates


def _checked_decoder_step(step):
    """`decoder_step` that checks the gap between each row's best two logits,
    on which a greedy step's argmax rests (log-probabilities of one row
    differ as its logits do)."""
    def decoder_step(*args):
        logits = step(*args)
        for row in logits:
            _check_gaps(np.sort(row)[-2:], "a row's best two tokens")
        return logits
    return decoder_step


def _checked_greedy_step(step):
    """`greedy_step` as the argmax of the checked `decoder_step`'s logits,
    which its float32 screen is proven to agree with."""
    def greedy_step(tokens, cache, params, config, screen):
        return step(tokens, cache, params, config).argmax(axis=1)
    return greedy_step


def _checked_max(*args, key=None, **kwargs):
    """`max` that checks the margin between the best two keys it ranks."""
    if key is not None:
        keys = sorted((key(x) for x in args[0]), reverse=True)
        _check_gaps(keys[:2], "final hypotheses")
        return max(*args, key=key, **kwargs)
    return max(*args, **kwargs)


def main():
    generation._top_candidates = _checked_top_candidates(generation._top_candidates)
    generation.decoder_step = _checked_decoder_step(generation.decoder_step)
    generation.greedy_step = _checked_greedy_step(generation.decoder_step)
    generation.max = _checked_max  # ranks the finished hypotheses in `decode_group`
    golden = golden_outputs()
    unpenalized = DecodeConfig("beam", beam_width=3)
    if all(variant_outputs(v, {"beam": unpenalized})["beam"] == out["beam"]
           for v, out in golden["variants"].items()):
        raise SystemExit("refused: the length penalty changes no beam response")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    for variant, out in golden["variants"].items():
        print(variant, out["loss"], out["greedy"][:2], out["beam"][:2])


if __name__ == "__main__":
    sys.exit(main())
