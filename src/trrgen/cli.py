"""Command-line pipeline: preprocess, report-ads, build-vocab, train,
generate, evaluate, ablate.

Configuration is a flat JSON key-value file; every key can be overridden by a
same-named command-line flag (flags win), and TRRGEN_SEED overrides the seed.
`generate` and `evaluate` take the model and training settings from the
checkpoint and reject flags for them.
All machine outputs are UTF-8 JSON-Lines. Failures exit nonzero with a single
"error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

from . import corpus as C
from .checkpoint import save_checkpoint, load_checkpoint, CheckpointError
from .evaluation import (corpus_bleu, evaluate_model, random_selection_baseline,
                         format_report_table, EvaluationError)
from .generation import DecodeConfig, generate, postprocess
from .model import ModelConfig, ConfigError, FUSION_VARIANTS
from .training import TrainOptions, train_model


@dataclass
class RunConfig:
    """Every knob of the pipeline, flat and fully serializable."""

    # model
    d_model: int = 256
    n_heads: int = 4
    n_layers: int = 1
    d_ff: int = 1024
    max_tgt_len: int = 120
    fusion_variant: str = "trrgen_concat"
    dropout: float = 0.1
    # preprocessing
    lowercase: bool = True
    ad_ngram_n: int = 5
    ad_flag_threshold: float = 0.005
    max_review_tokens: int = 100
    max_response_tokens: int = 120
    min_freq: int = 2
    # optimizer / schedule
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32
    epochs: int = 30
    patience: int = 5
    validate_every: int = 1
    # decoding
    strategy: str = "greedy"
    beam_width: int = 4
    decode_max_len: int | None = None
    length_penalty: float = 0.0
    # splitting / reproducibility
    train_ratio: float = 0.8
    valid_ratio: float = 0.1
    test_ratio: float = 0.1
    seed: int = 0

    def preprocess_config(self) -> C.PreprocessConfig:
        return C.PreprocessConfig(lowercase=self.lowercase, ad_ngram_n=self.ad_ngram_n,
                                  ad_flag_threshold=self.ad_flag_threshold,
                                  max_review_tokens=self.max_review_tokens,
                                  max_response_tokens=self.max_response_tokens)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, d_model=self.d_model,
                           n_heads=self.n_heads, n_layers=self.n_layers,
                           d_ff=self.d_ff, max_tgt_len=self.max_tgt_len,
                           fusion_variant=self.fusion_variant,
                           dropout=self.dropout, seed=self.seed)

    def train_options(self) -> TrainOptions:
        return TrainOptions(lr=self.lr, beta1=self.beta1, beta2=self.beta2,
                            adam_eps=self.adam_eps, batch_size=self.batch_size,
                            epochs=self.epochs, patience=self.patience,
                            validate_every=self.validate_every, seed=self.seed)

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(strategy=self.strategy, beam_width=self.beam_width,
                            max_len=self.decode_max_len,
                            length_penalty=self.length_penalty)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class CliError(ValueError):
    pass


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    values = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise CliError(f"{path}: config must be a flat JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise CliError(f"{path}: unknown config keys {sorted(unknown)}")
        values.update(data)
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "TRRGEN_SEED" in os.environ:
        values["seed"] = int(os.environ["TRRGEN_SEED"])
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise CliError(f"bad configuration: {exc}") from None


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat JSON config file")
    parse_bool = lambda s: s.lower() in ("1", "true", "yes")
    for f in dataclasses.fields(RunConfig):
        caster = {"int": int, "float": float, "str": str,
                  "bool": parse_bool, "int | None": int}.get(str(f.type), str)
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                            type=caster, default=None, help=argparse.SUPPRESS)


# Settings that `generate` and `evaluate` read from the checkpoint or never
# use; a flag for one of them there would be silently ignored.
MODEL_AND_TRAINING_KEYS = ({f.name for f in dataclasses.fields(ModelConfig)}
                           | {f.name for f in dataclasses.fields(TrainOptions)})


def _config_from_args(args, reject=frozenset()) -> RunConfig:
    """The run configuration; a flag naming a key in `reject` is an error,
    while the same key in the `--config` file is allowed."""
    overrides = {f.name: getattr(args, f.name, None)
                 for f in dataclasses.fields(RunConfig)}
    given = [f"--{k.replace('_', '-')}" for k, v in overrides.items()
             if v is not None and k in reject]
    if given:
        raise CliError(f"{args.command} takes model and training settings from the "
                       f"checkpoint; it does not accept {', '.join(given)}")
    return load_run_config(args.config, overrides)


def _load_and_normalize(path, fmt, cfg: RunConfig):
    records = C.load_corpus(path, fmt)
    return C.normalize_corpus(records, cfg.preprocess_config())


# ---------------------------------------------------------------------------
# subcommands


def cmd_preprocess(args) -> int:
    cfg = _config_from_args(args)
    records = _load_and_normalize(args.input, args.format, cfg)
    if args.blocklist:
        records = C.filter_ads(records, C.load_blocklist(args.blocklist),
                               cfg.preprocess_config())
    C.save_corpus(records, args.output)
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def cmd_report_ads(args) -> int:
    cfg = _config_from_args(args)
    records = _load_and_normalize(args.input, args.format, cfg)
    report = C.ad_report(records, cfg.preprocess_config())
    text = report.to_tsv()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_build_vocab(args) -> int:
    cfg = _config_from_args(args)
    records = C.load_corpus(args.input, args.format)
    vocab = C.build_vocabulary(records, min_freq=cfg.min_freq)
    vocab.save(args.output)
    print(f"wrote vocabulary of {len(vocab)} tokens to {args.output}")
    return 0


def _encode_all(records, vocab, pre_cfg):
    encoded = [C.encode_record(r, vocab, pre_cfg) for r in records]
    responses = [r.response_text for r in records]
    return encoded, responses


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    vocab = C.Vocabulary.load(args.vocab)
    pre_cfg = cfg.preprocess_config()
    train_recs, _ = _encode_all(C.load_corpus(args.train), vocab, pre_cfg)
    valid_recs = []
    if args.valid:
        valid_recs, _ = _encode_all(C.load_corpus(args.valid), vocab, pre_cfg)
    model_cfg = cfg.model_config(len(vocab))

    log_fh = open(args.log, "w", encoding="utf-8") if args.log else None

    def log_fn(entry):
        line = json.dumps(entry, sort_keys=True)
        print(line)
        if log_fh:
            log_fh.write(line + "\n")

    result = train_model(train_recs, valid_recs, model_cfg, cfg.train_options(), log_fn)
    if log_fh:
        log_fh.close()
    save_checkpoint(args.output, result.params, model_cfg, vocab,
                    run_config=cfg.to_dict(),
                    metadata={"best_epoch": result.best_epoch,
                              "best_valid_loss": result.best_valid_loss})
    print(f"saved checkpoint to {args.output}")
    return 0


def cmd_generate(args) -> int:
    cfg = _config_from_args(args, reject=MODEL_AND_TRAINING_KEYS)
    params, config, vocab, _, _ = load_checkpoint(args.checkpoint)
    decode = cfg.decode_config()
    pre_cfg = cfg.preprocess_config()

    def encode(review, rating, category, where):
        rec = C.ReviewRecord("", category, rating, C.normalize_text(review, pre_cfg), "")
        rec.validate(where)
        try:
            return C.encode_record(rec, vocab, pre_cfg)
        except C.CorpusError as exc:
            raise C.CorpusError(f"{where}: {exc}") from None

    def respond(encoded):
        return postprocess(generate(encoded, params, config, decode), vocab)

    if args.batch:
        inputs = []  # every line is checked before the first response is generated
        with open(args.batch, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{args.batch}:{lineno}"
                try:
                    obj = json.loads(line)
                    fields = (str(obj["review"]), obj["rating"], str(obj["category"]))
                except json.JSONDecodeError as exc:
                    raise CliError(f"{where}: malformed JSON ({exc})") from None
                except KeyError as exc:
                    raise CliError(f"{where}: missing field {exc}") from None
                except TypeError as exc:
                    raise CliError(f"{where}: expected an object with a review, an integer "
                                   f"rating and a category ({exc})") from None
                inputs.append((obj, encode(*fields, where)))
        for obj, encoded in inputs:
            print(json.dumps({"input": obj, "response": respond(encoded)}, ensure_ascii=False))
    else:
        if args.review is None or args.rating is None or args.category is None:
            raise CliError("generate requires --review, --rating and --category (or --batch)")
        print(respond(encode(args.review, args.rating, args.category, "input")))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args, reject=MODEL_AND_TRAINING_KEYS)
    params, config, vocab, _, _ = load_checkpoint(args.checkpoint)
    pre_cfg = cfg.preprocess_config()
    records = C.load_corpus(args.test)
    if not records:
        raise CliError(f"{args.test}: empty test corpus")
    encoded, responses = _encode_all(records, vocab, pre_cfg)
    report = evaluate_model(params, config, vocab, encoded, responses,
                            cfg.decode_config(), label=config.fusion_variant)
    print(report.to_json())
    return 0


def cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    variants = args.variants.split(",") if args.variants else list(FUSION_VARIANTS)
    for v in variants:
        if v not in FUSION_VARIANTS:
            raise CliError(f"unknown fusion variant {v!r}")
    pre_cfg = cfg.preprocess_config()
    records = C.normalize_corpus(C.load_corpus(args.data), pre_cfg)
    train, valid, test = C.split_corpus(records, cfg.seed,
                                        (cfg.train_ratio, cfg.valid_ratio, cfg.test_ratio))
    vocab = C.build_vocabulary(train, min_freq=cfg.min_freq)
    train_e, _ = _encode_all(train, vocab, pre_cfg)
    valid_e, _ = _encode_all(valid, vocab, pre_cfg)
    test_e, test_resp = _encode_all(test, vocab, pre_cfg)

    reports = []
    for variant in variants:
        model_cfg = cfg.model_config(len(vocab))
        model_cfg = dataclasses.replace(model_cfg, fusion_variant=variant)
        result = train_model(train_e, valid_e, model_cfg, cfg.train_options())
        report = evaluate_model(result.params, model_cfg, vocab, test_e, test_resp,
                                cfg.decode_config(), label=variant)
        reports.append(report)
        print(report.to_json())

    if args.baseline:
        baseline = random_selection_baseline([r.response_text for r in train],
                                             len(test), cfg.seed)
        report = corpus_bleu([C.tokenize(c) for c in baseline],
                             [C.tokenize(r) for r in test_resp],
                             label="random_selection")
        reports.append(report)
        print(report.to_json())

    print(format_report_table(reports), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trrgen",
                                     description="Feature-fused transformer for review response generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="normalize a corpus (and optionally drop ad sentences)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    p.add_argument("--blocklist", help="ad-expression blocklist file")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("report-ads", help="rank candidate ad expressions by frequency")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_report_ads)

    p = sub.add_parser("build-vocab", help="build a vocabulary from a preprocessed corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--valid")
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--log", help="JSON-Lines training log file")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="generate a response for a review")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--review")
    p.add_argument("--rating", type=int)
    p.add_argument("--category")
    p.add_argument("--batch", help="JSON-Lines input; writes JSON-Lines output")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="BLEU-evaluate a checkpoint on a test corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and evaluate several fusion variants")
    p.add_argument("--data", required=True)
    p.add_argument("--variants", help="comma-separated variant list (default: all)")
    p.add_argument("--baseline", action="store_true",
                   help="include the random-selection baseline row")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, C.CorpusError, ConfigError, CheckpointError, EvaluationError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
