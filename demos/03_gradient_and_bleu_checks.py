"""Verification tour: finite-difference gradient checking of the full model
and BLEU spot values against hand arithmetic."""

import math
import time

from trrgen.corpus import EncodedRecord
from trrgen.model import ModelConfig, init_parameters, forward_training
from trrgen.tensor import grad_check
from trrgen.evaluation import corpus_bleu, brevity_penalty, modified_precision

# --- gradient check on a deliberately tiny model ------------------------
config = ModelConfig(vocab_size=20, d_model=8, n_heads=4, n_layers=1, d_ff=16,
                     max_tgt_len=20, dropout=0.0, seed=0)
params = init_parameters(config, seed=1)
batch = [EncodedRecord([10, 11, 12], [2, 13, 14, 3], 4, 9),
         EncodedRecord([15, 16], [2, 17, 3], 5, 9)]

def build(tape):  # tape is None for the central differences
    return forward_training(batch, params, config, tape)

start = time.time()
err = grad_check(build, params.all_tensors())
n_params = sum(t.values.size for t in params.all_tensors())
print(f"gradient check over {n_params} parameters: "
      f"max relative error {err:.2e} ({time.time() - start:.1f}s)")

# --- BLEU spot values ---------------------------------------------------
cand = "the the the the the the the".split()
ref = "the cat is on the mat".split()
print("clipped p1 for the classic over-generation example:",
      modified_precision([cand], [ref], 1), "(expected 2/7 =", 2 / 7, ")")
print("brevity penalty BP(3, 4):", brevity_penalty(3, 4),
      "(expected e^(-1/3) =", math.exp(-1 / 3), ")")

perfect = [["we", "will", "fix", "this", "soon"]]
print("identical corpora score:", corpus_bleu(perfect, perfect).bleu)
