"""Command-line pipeline: preprocess, report-ads, build-vocab, train,
generate, evaluate, ablate.

Configuration is a flat JSON file that may hold any setting; a command takes
a same-named flag (flags win) only for the settings it reads (`ACCEPTS`),
and TRRGEN_SEED overrides the seed. `main` loads the settings, and sets the
floating-point policy, for every command. Text is normalized before it is
encoded, as the checkpoint's own run did for `generate` and `evaluate`.
Machine outputs are UTF-8 JSON-Lines; a failure exits 1 with one "error:" line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import corpus as C
from .checkpoint import save_checkpoint, load_checkpoint
from .evaluation import (corpus_bleu, evaluate_model, random_selection_baseline,
                         format_report_table)
from .generation import DecodeConfig, generate_all, postprocess
from .model import ModelConfig, FUSION_VARIANTS
from .training import TrainOptions, train_model


@dataclasses.dataclass
class PipelineConfig:
    """The CLI's own settings: the vocabulary cut-off and the corpus split."""

    min_freq: int = 2
    train_ratio: float = 0.8
    valid_ratio: float = 0.1
    test_ratio: float = 0.1
    seed: int = 0

    def __post_init__(self):
        C.check_split_ratios(self.ratios)

    @property
    def ratios(self) -> tuple[float, float, float]:
        return self.train_ratio, self.valid_ratio, self.test_ratio


def _key(cls, name: str) -> str:
    return "decode_max_len" if (cls, name) == (DecodeConfig, "max_len") else name


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


# Every setting, keyed as in config files and flags, with the dataclass field
# that gives its type and default. vocab_size comes from the vocabulary, and
# stop_loss is set only through the library.
SETTINGS = {_key(cls, f.name): f
            for cls in (ModelConfig, C.PreprocessConfig, C.AdConfig, TrainOptions,
                        DecodeConfig, PipelineConfig)
            for f in dataclasses.fields(cls)
            if f.name not in ("vocab_size", "stop_loss")}

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

# Per field type: the flag parser, the JSON types a config file may give, and
# the wording of a type error.
TYPES = {"int": (int, (int,), "an integer"),
         "float": (float, (int, float), "a number"),
         "str": (str, (str,), "a string"),
         "bool": (lambda s: _BOOLS[s.lower()], (bool,), "true or false"),
         "int | None": (int, (int, type(None)), "an integer (or null in a config file)")}


class CliError(ValueError):
    pass


def _parse(name: str, key: str, text: str):
    parser, _, wanted = TYPES[SETTINGS[key].type]
    try:
        return parser(text)
    except (ValueError, KeyError):
        raise CliError(f"{name} must be {wanted}, got {text!r}") from None


def _typed(path, what: str, data, keys) -> dict:
    """The `keys` settings in `data`, the JSON object `what` of `path`, type-checked."""
    if not isinstance(data, dict):
        raise CliError(f"{path}: {what} must be a flat JSON object")
    values = {}
    for key in [k for k in data if k in keys]:
        kind, value = SETTINGS[key].type, data[key]
        if type(value) not in TYPES[kind][1]:  # `type`, so true is not an integer
            raise CliError(f"{path}: {key} must be {TYPES[kind][2]}, got {value!r}")
        try:  # an int for a float key is stored as a float, as a flag's would be
            values[key] = float(value) if kind == "float" else value
        except OverflowError:
            values[key] = np.inf
        if kind == "float" and not np.isfinite(values[key]):  # a checkpoint header is strict JSON
            raise CliError(f"{path}: {key} is out of range, got {value!r}")
    return values


def load_settings(path: str | None, flags: dict) -> dict:
    """Every setting: its default, then the `path` config file, then `flags`
    (key -> command-line text), then TRRGEN_SEED; each value type-checked."""
    values = {key: f.default for key, f in SETTINGS.items()}
    if path:
        data = C.parse_json(C.read_text(path), path)
        values.update(_typed(path, "config", data, SETTINGS))
        if unknown := set(data) - set(SETTINGS):
            raise CliError(f"{path}: unknown config keys {sorted(unknown)}")
    values.update({key: _parse(_flag(key), key, text) for key, text in flags.items()})
    if "TRRGEN_SEED" in os.environ:
        values["seed"] = _parse("TRRGEN_SEED", "seed", os.environ["TRRGEN_SEED"])
    return values


def build(cls, cfg: dict, **extra):
    """An instance of dataclass `cls` from its settings in `cfg`; `extra`
    gives or overrides fields by name."""
    values = {f.name: cfg[_key(cls, f.name)] for f in dataclasses.fields(cls)
              if _key(cls, f.name) in SETTINGS}
    return cls(**{**values, **extra})


def _keys(*classes) -> frozenset:
    return frozenset(SETTINGS).intersection(_key(cls, f.name) for cls in classes
                                            for f in dataclasses.fields(cls))


# The settings each command takes flags for: those its `cmd_*` reads. `generate`
# and `evaluate` take the model and the text encoding from the checkpoint, and
# `ablate` sets `fusion_variant` from `--variants`.
ACCEPTS = {"preprocess": frozenset({"lowercase", "ad_ngram_n"}),
           "report-ads": _keys(C.AdConfig) | {"lowercase"},
           "build-vocab": frozenset({"min_freq"}),
           "train": _keys(ModelConfig, C.PreprocessConfig, TrainOptions),
           **dict.fromkeys(["generate", "evaluate"], _keys(DecodeConfig)),
           "ablate": frozenset(SETTINGS) - _keys(C.AdConfig) - {"fusion_variant"}}


def _config_from_args(args) -> dict:
    """The run's settings. A flag for a setting outside the command's
    `ACCEPTS` entry is an error; the same key in the `--config` file is not."""
    flags = {key: getattr(args, key) for key in SETTINGS if getattr(args, key) is not None}
    foreign = [_flag(key) for key in flags if key not in ACCEPTS[args.command]]
    if foreign:
        raise CliError(f"{args.command} does not accept {', '.join(foreign)}")
    return load_settings(args.config, flags)


def _training_settings(cfg: dict, **model):
    """`train`'s and `ablate`'s settings objects, built and checked before any
    file is read; `vocab_size` is filled in once the vocabulary is known."""
    pre_cfg, opts = build(C.PreprocessConfig, cfg), build(TrainOptions, cfg)
    model_cfg = build(ModelConfig, cfg, vocab_size=0, **model)
    if pre_cfg.max_response_tokens - 1 > model_cfg.max_tgt_len:  # decoder input length
        raise CliError(f"--max-response-tokens {pre_cfg.max_response_tokens} needs --max-tgt-len "
                       f"{pre_cfg.max_response_tokens - 1} or more, got {model_cfg.max_tgt_len}")
    return pre_cfg, opts, model_cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_preprocess(args, cfg: dict) -> int:
    pre_cfg, ad_cfg = build(C.PreprocessConfig, cfg), build(C.AdConfig, cfg)
    records = C.normalize_corpus(C.load_corpus(args.input, args.format), pre_cfg)
    if args.blocklist:
        records = C.filter_ads(records, C.load_blocklist(args.blocklist), ad_cfg)
    C.save_corpus(records, args.output)
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def cmd_report_ads(args, cfg: dict) -> int:
    pre_cfg, ad_cfg = build(C.PreprocessConfig, cfg), build(C.AdConfig, cfg)
    records = C.normalize_corpus(C.load_corpus(args.input, args.format), pre_cfg)
    text = C.ad_report(records, ad_cfg).to_tsv()
    with open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout) as fh:
        fh.write(text)
    return 0


def cmd_build_vocab(args, cfg: dict) -> int:
    records = C.load_corpus(args.input, args.format)
    if not records:
        raise CliError(f"{args.input}: empty corpus")
    vocab = C.build_vocabulary(records, min_freq=cfg["min_freq"])
    vocab.save(args.output)
    print(f"wrote vocabulary of {len(vocab)} tokens to {args.output}")
    return 0


def _encode(record, vocab, pre_cfg, where):
    """`record` checked, then its review and response normalized and encoded;
    an error names `where`."""
    record.validate(where)
    (record,) = C.normalize_corpus([record], pre_cfg)
    try:
        return C.encode_record(record, vocab, pre_cfg)
    except C.CorpusError as exc:
        raise C.CorpusError(f"{where}: {exc}") from None


def _encode_all(records, vocab, pre_cfg, path):
    if not records:  # an empty file; `split_corpus` leaves no split empty
        raise CliError(f"{path}: empty corpus")
    return [_encode(r, vocab, pre_cfg, f"{path}: record {n}")
            for n, r in enumerate(records, start=1)]


def _load_model(args, cfg: dict):
    """`generate`'s and `evaluate`'s decode settings, and their checkpoint's model and encoding."""
    decode = build(DecodeConfig, cfg)
    params, config, vocab, run_config, _ = load_checkpoint(args.checkpoint)
    try:  # a setting the run_config lacks (a library caller's) takes its default
        pre_cfg = C.PreprocessConfig(**_typed(args.checkpoint, "run_config", run_config,
                                              _keys(C.PreprocessConfig)))
    except C.CorpusError as exc:
        raise CliError(f"{args.checkpoint}: {exc}") from None
    return decode, params, config, vocab, pre_cfg


def cmd_train(args, cfg: dict) -> int:
    pre_cfg, opts, model_cfg = _training_settings(cfg)
    folder = os.path.dirname(args.output) or "."  # checked now, not after the last epoch
    if os.path.isdir(args.output) or not (os.path.isdir(folder)
                                          and os.access(folder, os.W_OK | os.X_OK)):
        raise CliError(f"--output {args.output}: not a file path in a writable directory")
    vocab = C.Vocabulary.load(args.vocab)
    train_recs = _encode_all(C.load_corpus(args.train), vocab, pre_cfg, args.train)
    valid_recs = (_encode_all(C.load_corpus(args.valid), vocab, pre_cfg, args.valid)
                  if args.valid else [])
    model_cfg = dataclasses.replace(model_cfg, vocab_size=len(vocab))

    with open(args.log or os.devnull, "w", encoding="utf-8") as log_fh:
        def log_fn(entry):
            line = json.dumps(entry, sort_keys=True)
            print(line)
            log_fh.write(line + "\n")

        result = train_model(train_recs, valid_recs, model_cfg, opts, log_fn)
    save_checkpoint(args.output, result.params, model_cfg, vocab, run_config=cfg,
                    metadata={"best_epoch": result.best_epoch, "best_valid_loss":
                              None if result.best_epoch < 0 else result.best_valid_loss})
    print(f"saved checkpoint to {args.output}")
    return 0


def cmd_generate(args, cfg: dict) -> int:
    flag_review = [args.review, args.rating, args.category]
    if args.batch and flag_review != [None] * 3:
        raise CliError("generate takes --batch or --review, --rating and --category, not both")
    if not args.batch and None in flag_review:
        raise CliError("generate requires --review, --rating and --category (or --batch)")
    decode, params, config, vocab, pre_cfg = _load_model(args, cfg)
    if args.batch:
        objs = ((where, C.parse_json(line, where)) for where, line in C.read_lines(args.batch))
    else:
        objs = [("input", dict(review=args.review, rating=args.rating, category=args.category))]
    inputs = []  # (object, encoded review), every one checked before decoding
    for where, obj in objs:
        if type(obj) is not dict or not obj.keys() >= {"review", "rating", "category"}:
            raise CliError(f"{where}: expected an object with review, rating and category")
        rec = C.ReviewRecord("", obj["category"], obj["rating"], obj["review"])
        inputs.append((obj, _encode(rec, vocab, pre_cfg, where)))
    responses = generate_all([encoded for _, encoded in inputs], params, config, decode)
    for (obj, _), ids in zip(inputs, responses):
        response = postprocess(ids, vocab)
        print(json.dumps({"input": obj, "response": response}, ensure_ascii=False)
              if args.batch else response)
    return 0


def cmd_evaluate(args, cfg: dict) -> int:
    decode, params, config, vocab, pre_cfg = _load_model(args, cfg)
    records = C.load_corpus(args.test)
    report = evaluate_model(params, config, vocab, _encode_all(records, vocab, pre_cfg, args.test),
                            [C.normalize_text(r.response_text, pre_cfg) for r in records],
                            decode, label=config.fusion_variant)
    print(report.to_json())
    return 0


def cmd_ablate(args, cfg: dict) -> int:
    variants = list(FUSION_VARIANTS) if args.variants is None else args.variants.split(",")
    if not all(variants) or len(set(variants)) < len(variants):
        raise CliError(f"--variants must name distinct variants, got {args.variants!r}")
    pre_cfg, opts, model_cfg = _training_settings(cfg, fusion_variant=variants[0])
    configs = [dataclasses.replace(model_cfg, fusion_variant=v) for v in variants]  # checks each
    decode, pipe = build(DecodeConfig, cfg), build(PipelineConfig, cfg)
    decode.length_cap(model_cfg)  # checked before the first variant trains
    records = C.normalize_corpus(C.load_corpus(args.data), pre_cfg)
    train, valid, test = C.split_corpus(records, pipe.seed, pipe.ratios)
    vocab = C.build_vocabulary(train, min_freq=pipe.min_freq)
    train_e, valid_e, test_e = (_encode_all(s, vocab, pre_cfg, f"{args.data} ({name} split)")
                                for s, name in ((train, "train"), (valid, "valid"), (test, "test")))
    test_resp = [r.response_text for r in test]

    reports = []
    for config in configs:
        config = dataclasses.replace(config, vocab_size=len(vocab))
        result = train_model(train_e, valid_e, config, opts)
        reports.append(evaluate_model(result.params, config, vocab, test_e, test_resp, decode,
                                      label=config.fusion_variant))
        print(reports[-1].to_json())

    if args.baseline:
        baseline = random_selection_baseline([r.response_text for r in train], len(test),
                                             pipe.seed)
        reports.append(corpus_bleu([C.tokenize(c) for c in baseline],
                                   [C.tokenize(r) for r in test_resp], label="random_selection"))
        print(reports[-1].to_json())

    print(format_report_table(reports), file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one `error:` line from `main`, not usage and exit 2
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trrgen",
                     description="Feature-fused transformer for review response generation")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, what in [
            ("preprocess", cmd_preprocess, "normalize a corpus (and optionally drop ad sentences)"),
            ("report-ads", cmd_report_ads, "rank candidate ad expressions by frequency"),
            ("build-vocab", cmd_build_vocab, "build a vocabulary from a preprocessed corpus")]:
        p = sub.add_parser(name, help=what)
        p.add_argument("--input", required=True)
        p.add_argument("--output", required=name != "report-ads")
        p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
        p.set_defaults(fn=fn)
    sub.choices["preprocess"].add_argument("--blocklist", help="ad-expression blocklist file")

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--log", help="JSON-Lines training log file")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="generate a response for a review")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--review")
    p.add_argument("--rating", type=int)
    p.add_argument("--category")
    p.add_argument("--batch", help="JSON-Lines input; writes JSON-Lines output")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="BLEU-evaluate a checkpoint on a test corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and evaluate several fusion variants")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", help="comma-separated variant list (default: all)")
    p.add_argument("--baseline", action="store_true",
                   help="include the random-selection baseline row")
    p.set_defaults(fn=cmd_ablate)
    for p in sub.choices.values():  # settings flags are parsed by `load_settings`
        p.add_argument("--config", help="flat JSON config file")
        for key in SETTINGS:
            p.add_argument(_flag(key), dest=key, default=None, help=argparse.SUPPRESS)
    return parser


# trrgen's own errors are ValueErrors; FloatingPointError is a loss or logits gone non-finite
REPORTED_ERRORS = (ValueError, OSError, FloatingPointError)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args, _config_from_args(args))
    except REPORTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
