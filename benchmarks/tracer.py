"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces public functions where their callers look them up
(for example `trrgen.model.matmul`, which is what the model code calls) with
wrappers that open a span, and replaces `Tape.record` so that each backward
closure is timed and charged to the span that was open when it was recorded.
Spans stay in memory; `rollup` turns them into the per-layer metrics and
`write` dumps them when the run ends.

A hook whose target is missing or whose parameters changed is skipped, and
every metric that needs it is left out of the rollup.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

PRIMITIVES = ("matmul", "softmax", "layer_norm", "embedding_lookup", "dropout",
              "cross_entropy_logits")
# Model spans; `model.self_attn` becomes enc_/dec_self_attn by its parent span.
MODEL_ROWS = ("embed_review", "encode.self", "enc_self_attn", "dec_self_attn",
              "cross_attn", "ffn", "decoder_forward.self", "cross_entropy")
OP, SETUP = "bench.op", "bench.setup"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _attention_name(args, kwargs):
    same = _arg(args, kwargs, 0, "x_q") is _arg(args, kwargs, 1, "x_kv")
    return "model.self_attn" if same else "model.cross_attn"


def _generate_note(args, kwargs, out):
    decode = _arg(args, kwargs, 3, "decode")
    config = _arg(args, kwargs, 2, "config")
    max_len = decode.max_len if decode.max_len is not None else config.max_tgt_len - 1
    return (len(out), max_len)


# (module, attribute, span name or name function, parameters, note function)
HOOKS = [
    *[("trrgen.model", p, f"tensor.{p}", None, None) for p in PRIMITIVES],
    ("trrgen.model", "cross_entropy_logits", "model.cross_entropy", None, None),
    ("trrgen.model", "embed_review", "model.embed_review", None, None),
    ("trrgen.model", "encode", "model.encode", None, None),
    ("trrgen.model", "multi_head_attention", _attention_name,
     ("x_q", "x_kv", "mask", "p", "tape", "d_k", "return_weights"), None),
    ("trrgen.model", "feed_forward", "model.ffn", None, None),
    *[(m, "decoder_forward", "model.decoder_forward",
       ("tgt_input_ids", "enc", "params", "config", "tape", "training", "rng"),
       lambda a, k, out: len(_arg(a, k, 0, "tgt_input_ids")))
      for m in ("trrgen.model", "trrgen.generation")],
    ("trrgen.tensor", "Tape.backward", "tensor.backward", ("self", "loss"),
     lambda a, k, out: len(a[0])),
    ("trrgen.training", "train_model", "training.train_model", None, None),
    ("trrgen.training", "forward_training", "training.forward", None, None),
    ("trrgen.training", "_epoch_loss", "training.valid", None, None),
    ("trrgen.training", "adam_step", "optim.adam_step", None, None),
    ("trrgen.training", "zero_grads", "optim.zero_grads", None, None),
    *[(m, "generate", "generation.generate", ("record", "params", "config", "decode"),
       _generate_note) for m in ("trrgen.generation", "trrgen.evaluation")],
    ("trrgen.generation", "encode_review", "generation.encode", None, None),
    ("trrgen.generation", "greedy_decode", "generation.decode", None, None),
    ("trrgen.generation", "beam_decode", "generation.decode", None, None),
    ("trrgen.evaluation", "evaluate_model", "evaluation.evaluate_model", None, None),
    ("trrgen.evaluation", "corpus_bleu", "evaluation.corpus_bleu", None, None),
    ("trrgen.corpus", "build_vocabulary", "corpus.build_vocabulary", None, None),
    ("trrgen.corpus", "encode_record", "corpus.encode_record", None, None),
    ("trrgen.checkpoint", "save_checkpoint", "checkpoint.save", None, None),
    ("trrgen.checkpoint", "load_checkpoint", "checkpoint.load", None, None),
]
# Parameter lists the wrappers were written against; a hook whose target now
# has other parameters is skipped rather than timed under a wrong name.
SIGNATURES = {
    "matmul": ("a", "b", "tape"),
    "softmax": ("a", "tape", "axis"),
    "layer_norm": ("x", "gamma", "beta", "tape", "eps"),
    "embedding_lookup": ("table", "ids", "tape"),
    "dropout": ("x", "p", "training", "tape", "rng"),
    "cross_entropy_logits": ("logits", "targets", "ignore_id", "tape", "reduction"),
    "embed_review": ("src_ids", "rating_id", "category_id", "variant", "params", "tape"),
    "encode": ("x", "src_mask", "params", "config", "tape", "training", "rng"),
    "feed_forward": ("x", "p", "tape"),
    "train_model": ("train", "valid", "config", "opts", "log_fn"),
    "forward_training": ("batch", "params", "config", "tape", "rng"),
    "_epoch_loss": ("records", "params", "config", "batch_size"),
    "adam_step": ("params", "state"),
    "zero_grads": ("params",),
    "encode_review": ("rec", "params", "config", "tape", "training", "rng"),
    "greedy_decode": ("params", "config", "enc", "decode"),
    "beam_decode": ("params", "config", "enc", "decode"),
    "evaluate_model": ("params", "config", "vocab", "test_records", "test_responses",
                       "decode", "label"),
    "corpus_bleu": ("candidates", "references", "max_n", "smooth", "label"),
    "build_vocabulary": ("records", "min_freq"),
    "encode_record": ("record", "vocab", "config"),
    "save_checkpoint": ("path", "params", "config", "vocab", "run_config", "metadata"),
    "load_checkpoint": ("path",),
}

# Span names each metric family needs; the family is absent if any is missing.
NEEDS = {
    "model": ("model.embed_review", "model.encode", "model.self_attn", "model.ffn",
              "model.decoder_forward", "model.cross_entropy"),
    "training": ("training.train_model", "training.forward", "training.valid",
                 "tensor.backward", "optim.adam_step", "optim.zero_grads"),
    "generation": ("generation.generate", "generation.encode", "generation.decode",
                   "model.decoder_forward"),
    "evaluation": ("evaluation.evaluate_model", "evaluation.corpus_bleu",
                   "generation.generate"),
}


class Tracer:
    """Spans in parallel lists; index order is open order, so parents
    always precede their children."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends, self.notes = [], [], [], [], []
        self.backward = []          # (charged span, start, end) per tape closure
        self.stack = [-1]
        self.installed = set()      # span names with a live hook
        self.skipped = []           # hooks whose target was missing or changed
        self._undo = []

    def open(self, name, note=None):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.notes.append(note)
        self.ends.append(None)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i):
        self.ends[i] = perf_counter()
        self.stack.pop()

    # -- hooks --------------------------------------------------------------

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if note is not None:
                tracer.notes[i] = note(args, kwargs, out)
            return out
        return wrapper

    def _record_hook(self, record):
        tracer = self

        @functools.wraps(record)
        def traced_record(tape, backward_fn):
            charged = tracer.stack[-1]
            log = tracer.backward

            def timed():
                start = perf_counter()
                backward_fn()
                log.append((charged, start, perf_counter()))
            record(tape, timed)
        return traced_record

    def install(self):
        """Wrap every hook target that exists with the expected parameters."""
        self.skipped = []
        hooks = [(m, a, n, p or SIGNATURES.get(a), note) for m, a, n, p, note in HOOKS]
        hooks.append(("trrgen.tensor", "Tape.record", "tensor.record",
                      ("self", "backward_fn"), None))
        for module_name, attr, name, params, note in hooks:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            label = name if isinstance(name, str) else "model.self_attn"
            if fn is None or tuple(inspect.signature(fn).parameters) != params:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            wrapper = (self._record_hook(fn) if label == "tensor.record"
                       else self._wrap(fn, name, note))
            setattr(owner, leaf, wrapper)
            self._undo.append((owner, leaf, fn))
            self.installed.add(label)
            if label == "model.self_attn":
                self.installed.add("model.cross_attn")

    def uninstall(self):
        for owner, leaf, fn in reversed(self._undo):
            setattr(owner, leaf, fn)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.parents[i], self.starts[i],
                                     self.ends[i], self.notes[i]]) + "\n")
            for charged, start, end in self.backward:
                fh.write(json.dumps(["bwd", charged, start, end]) + "\n")

    def rollup(self):
        """Per-layer metrics: per operation (median over traced ops), per
        training step (median over steps) or per set-up (median over set-ups)."""
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        n = len(names)
        is_prim = [nm.startswith("tensor.") and nm[7:] in PRIMITIVES for nm in names]
        root, owner, label = [-1] * n, [-1] * n, list(names)
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            root[i] = i if names[i] in (OP, SETUP) else (root[p] if p >= 0 else -1)
            owner[i] = owner[p] if is_prim[i] and p >= 0 else i
            if names[i] == "model.self_attn":
                a = p
                while a >= 0 and names[a] not in ("model.encode", "model.decoder_forward"):
                    a = parents[a]
                label[i] = "model.enc_self_attn" if a >= 0 and names[a] == "model.encode" \
                    else "model.dec_self_attn"
            if p >= 0 and not is_prim[i]:
                child_time[p] += dur[i]
        excl = [d - c for d, c in zip(dur, child_time)]

        per_op = defaultdict(Counter)
        per_setup = defaultdict(Counter)
        steps = defaultdict(list)
        for i in range(n):
            nm, lab, r = names[i], label[i], root[i]
            c = per_op[r] if r >= 0 and names[r] == OP else per_setup[r]
            if is_prim[i]:
                c[f"{nm}.calls"] += 1
                c[f"{nm}.fwd_s"] += dur[i]
            elif nm == "model.encode" or nm == "model.decoder_forward":
                c[f"{nm}.self.fwd_s"] += excl[i]
                if nm == "model.decoder_forward":
                    c["model.decoder_positions"] += self.notes[i]
                    if self._inside(i, "generation.generate"):
                        c["generation.positions"] += self.notes[i]
            elif nm.startswith("model."):
                c[f"{lab}.fwd_s"] += excl[i]
            elif nm == "tensor.backward":
                steps["tensor.tape_entries"].append(self.notes[i])
                steps["tensor.backward_s"].append(dur[i])
            elif nm in ("optim.adam_step", "optim.zero_grads"):
                steps[f"{nm}_s"].append(dur[i])
                c["training.steps"] += nm == "optim.adam_step"
            elif nm == "training.forward":
                if parents[i] < 0 or names[parents[i]] != "training.valid":
                    c["training.forward_s"] += dur[i]
            elif nm == "training.valid":
                c["training.valid_s"] += dur[i]
            elif nm == "training.train_model":
                c["training.train_model.self_s"] += excl[i]
            elif nm == "generation.generate":
                tokens, max_len = self.notes[i]
                c["generation.requests"] += 1
                c["generation.tokens"] += tokens
                c["generation.capped"] += tokens == max_len
                c["unattributed_s"] += excl[i]
            elif nm == "generation.encode":
                c["generation.encode_s"] += dur[i]
            elif nm == "generation.decode":
                c["generation.decode.self_s"] += excl[i]
            elif nm == "evaluation.evaluate_model":
                c["evaluation.evaluate_model.self_s"] += excl[i]
                c["unattributed_s"] += excl[i]
            elif nm == "evaluation.corpus_bleu":
                c["evaluation.corpus_bleu_s"] += dur[i]
            elif nm in ("corpus.build_vocabulary", "corpus.encode_record",
                        "checkpoint.save", "checkpoint.load"):
                c[f"{nm}_s"] += dur[i]
            elif nm == OP:
                c["op_s"] += dur[i]
        for charged, start, end in self.backward:
            if charged < 0:
                continue
            c = per_op[root[charged]]
            if is_prim[charged]:
                c[f"{names[charged]}.bwd_s"] += end - start
            o = owner[charged]
            lab = label[o]
            if lab in ("model.encode", "model.decoder_forward"):
                lab += ".self"
            if lab.startswith("model."):
                c[f"{lab}.bwd_s"] += end - start

        for c in per_op.values():
            if c["generation.tokens"]:
                c["generation.positions_per_token"] = c["generation.positions"] / c["generation.tokens"]
            if c["generation.requests"]:
                c["generation.length_capped_frac"] = c["generation.capped"] / c["generation.requests"]

        ops = [per_op[r] for r in sorted(per_op) if r >= 0]
        setups = [per_setup[r] for r in sorted(per_setup) if r >= 0]

        def med(counters, key):
            return statistics.median([c[key] for c in counters]) if counters else 0.0

        out = {}
        have = self.installed
        for p in PRIMITIVES:
            if f"tensor.{p}" in have:
                out[f"tensor.{p}.calls"] = med(ops, f"tensor.{p}.calls")
                out[f"tensor.{p}.fwd_s"] = med(ops, f"tensor.{p}.fwd_s")
                if "tensor.record" in have:
                    out[f"tensor.{p}.bwd_s"] = med(ops, f"tensor.{p}.bwd_s")
        if "tensor.backward" in have:
            for key in ("tensor.tape_entries", "tensor.backward_s"):
                out[key] = statistics.median(steps[key]) if steps[key] else 0
        if all(s in have for s in NEEDS["model"]):
            for row in MODEL_ROWS:
                out[f"model.{row}.fwd_s"] = med(ops, f"model.{row}.fwd_s")
                if "tensor.record" in have:
                    out[f"model.{row}.bwd_s"] = med(ops, f"model.{row}.bwd_s")
            out["model.decoder_positions"] = med(ops, "model.decoder_positions")
        for key in ("optim.adam_step_s", "optim.zero_grads_s"):
            if key[:-2] in have:
                out[key] = statistics.median(steps[key]) if steps[key] else 0.0
        if all(s in have for s in NEEDS["training"]):
            for key in ("training.steps", "training.forward_s", "training.valid_s",
                        "training.train_model.self_s"):
                out[key] = med(ops, key)
        if all(s in have for s in NEEDS["generation"]):
            for key in ("generation.requests", "generation.tokens", "generation.encode_s",
                        "generation.decode.self_s", "generation.positions_per_token",
                        "generation.length_capped_frac"):
                out[key] = med(ops, key)
        if all(s in have for s in NEEDS["evaluation"]):
            for key in ("evaluation.corpus_bleu_s", "evaluation.evaluate_model.self_s"):
                out[key] = med(ops, key)
        for key in ("corpus.build_vocabulary_s", "corpus.encode_record_s",
                    "checkpoint.save_s", "checkpoint.load_s"):
            if key[:-2] in have:
                out[key] = med(setups, key)
        out["trace.unattributed_frac"] = self._unattributed(ops, label, owner, dur)
        return out

    def _inside(self, i, name):
        a = self.parents[i]
        while a >= 0 and self.names[a] != name:
            a = self.parents[a]
        return a >= 0

    def _unattributed(self, ops, label, owner, dur):
        """Share of traced time no layer span covers.

        On training, the unit is a step, from `forward_training` entry to the
        end of `adam_step`; model spans, backward closures charged to a model
        span and the optimizer spans count as covered. On decode workloads it
        is the self time of `generate` and `evaluate_model` over op time.
        """
        names, parents = self.names, self.parents
        step_total = covered = 0.0
        windows = []
        start = None
        for i, nm in enumerate(names):
            if nm == "training.forward" and (parents[i] < 0 or names[parents[i]] != "training.valid"):
                start = i
            elif nm == "optim.adam_step" and start is not None:
                windows.append((start, i))
                start = None
        if windows:
            model_top = [i for i, nm in enumerate(names) if nm.startswith("model.")
                         and not (parents[i] >= 0 and names[parents[i]].startswith("model."))]
            bwd_model = [(s, e) for ch, s, e in self.backward
                         if ch >= 0 and label[owner[ch]].startswith("model.")]
            for first, last in windows:
                t0, t1 = self.starts[first], self.ends[last]
                step_total += t1 - t0
                covered += sum(dur[i] for i in model_top if t0 <= self.starts[i] < t1)
                covered += sum(e - s for s, e in bwd_model if t0 <= s < t1)
                covered += sum(dur[i] for i in range(first, last + 1)
                               if names[i].startswith("optim."))
            return (step_total - covered) / step_total
        op_total = sum(c["op_s"] for c in ops)
        return sum(c["unattributed_s"] for c in ops) / op_total if op_total else 0.0
