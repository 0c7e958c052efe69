"""Corpus-level BLEU-N with modified n-gram precision and brevity penalty,
plus the random-selection baseline."""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from .corpus import EOS_ID, tokenize, EncodedRecord, Vocabulary
from .generation import DecodeConfig, generate_all, postprocess, response_ids
# Not called here; the benchmark's tracer hooks it under this module's name.
from .generation import generate  # noqa: F401
from .model import ModelConfig, Parameters


class EvaluationError(ValueError):
    pass


@dataclass
class BleuReport:
    bleu: float                      # BLEU-N scaled to [0, 100]
    precisions: list[float]          # p_1 .. p_N
    brevity_penalty: float
    candidate_length: int
    reference_length: int
    label: str = ""
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {"label": self.label, "bleu": self.bleu,
               **{f"p{i}": p for i, p in enumerate(self.precisions, start=1)},
               "brevity_penalty": self.brevity_penalty,
               "candidate_length": self.candidate_length,
               "reference_length": self.reference_length}
        obj.update(self.extra)
        return json.dumps(obj, sort_keys=True)


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def modified_precision(candidates: list[list[str]], references: list[list[str]],
                       n: int) -> float:
    """Corpus-level clipped n-gram precision against one reference per candidate."""
    if len(candidates) != len(references):
        raise EvaluationError("candidate/reference count mismatch")
    if not candidates:
        raise EvaluationError("empty corpus")
    matched = 0
    total = 0
    for cand, ref in zip(candidates, references):
        c_counts = _ngram_counts(cand, n)
        r_counts = _ngram_counts(ref, n)
        matched += sum(min(c, r_counts[g]) for g, c in c_counts.items())
        total += sum(c_counts.values())
    return matched / total if total else 0.0


def brevity_penalty(candidate_length: int, reference_length: int) -> float:
    """1 if the candidate corpus is at least as long as the references,
    else exp(1 - r/c); defined as 0 for an empty candidate corpus."""
    if candidate_length == 0:
        return 0.0
    if candidate_length >= reference_length:
        return 1.0
    return math.exp(1.0 - reference_length / candidate_length)


def corpus_bleu(candidates: list[list[str]], references: list[list[str]],
                max_n: int = 4, smooth: bool = False, label: str = "") -> BleuReport:
    """BLEU = BP * exp(sum_n w_n log p_n) with uniform weights w_n = 1/N,
    reported x100. Any p_n = 0 gives BLEU 0 unless `smooth` adds one
    pseudo-match per order (diagnostics only).
    """
    if len(candidates) != len(references):
        raise EvaluationError("candidate/reference count mismatch")
    if not candidates:
        raise EvaluationError("empty corpus")
    precisions = [modified_precision(candidates, references, n)
                  for n in range(1, max_n + 1)]
    c_len = sum(len(c) for c in candidates)
    r_len = sum(len(r) for r in references)
    bp = brevity_penalty(c_len, r_len)

    used = precisions
    if smooth:
        used = [p if p > 0 else 1.0 / (2 * max(c_len, 1)) for p in precisions]
    if any(p == 0.0 for p in used):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in used) / max_n)
    return BleuReport(bleu=100.0 * score, precisions=precisions, brevity_penalty=bp,
                      candidate_length=c_len, reference_length=r_len, label=label)


def random_selection_baseline(training_responses: list[str], test_size: int,
                              seed: int) -> list[str]:
    """Uniform with-replacement draws from the training responses."""
    if not training_responses:
        raise EvaluationError("empty response pool")
    rng = random.Random(seed)
    return [training_responses[rng.randrange(len(training_responses))]
            for _ in range(test_size)]


def evaluate_model(params: Parameters, config: ModelConfig, vocab: Vocabulary,
                   test_records: list[EncodedRecord], test_responses: list[str],
                   decode: DecodeConfig, label: str = "") -> BleuReport:
    """Decode every test review and score against the ground-truth responses.

    `test_responses` are the normalized reference texts; candidates are
    tokenized identically to training. Reviews are decoded in groups
    (`generate_all`). `extra` holds `n_pairs` and `length_capped_frac`, the
    share of responses that stopped at the length cap instead of ⟨eos⟩.
    """
    if config.vocab_size != len(vocab):
        raise EvaluationError(f"checkpoint vocabulary size {config.vocab_size} "
                              f"does not match corpus vocabulary {len(vocab)}")
    if len(test_records) != len(test_responses):
        raise EvaluationError("records/responses count mismatch")
    hyps = generate_all(test_records, params, config, decode)
    candidates = [tokenize(postprocess(response_ids(hyp), vocab)) for hyp in hyps]
    references = [tokenize(ref_text) for ref_text in test_responses]
    report = corpus_bleu(candidates, references, label=label)
    report.extra["n_pairs"] = len(candidates)
    report.extra["length_capped_frac"] = sum(hyp[-1] != EOS_ID for hyp in hyps) / len(hyps)
    return report


def format_report_table(reports: list[BleuReport]) -> str:
    """Human-readable aligned table: one row per report."""
    header = f"{'variant':<16} {'BLEU-4':>8} {'p1':>8} {'p2':>8} {'p3':>8} {'p4':>8} {'BP':>8}"
    lines = [header, "-" * len(header)]
    for r in reports:
        ps = "".join(f" {100 * p:8.2f}" for p in r.precisions)
        lines.append(f"{r.label:<16} {r.bleu:8.2f}{ps} {r.brevity_penalty:8.4f}")
    return "\n".join(lines)
