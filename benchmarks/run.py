"""trrgen benchmark: one workload, one seed, one process.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory):
  train         one `training.train_model` call per operation
  reply_greedy  one greedy `generation.generate` call per operation
  eval_beam     one beam-4 `evaluation.evaluate_model` call per operation

Each run sets up several times (`setup_s` is their median), warms up, then
runs a closed loop from one caller for `--seconds`, in whole rounds, and
checks every output. With `--trace 1` each operation runs twice, untraced and
traced, and the run reports per-layer metrics instead of end-to-end ones.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread: in sizing runs on a 2-core machine, training throughput
# varied about ±10% between runs with two threads and about ±3% with one.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUPS = 5
# One round of reply_greedy uses each length once: 13 values evenly spread over 8..60.
REPLY_LENGTHS = tuple(round(8 + 52 * k / 12) for k in range(13))
EVAL_MAX_LEN = 16
BEAM_WIDTH = 4
LOSS_RTOL = 1e-6
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms", "tokens_per_s": "tokens/s"}


def median(values):
    values = list(values)
    return statistics.median(values) if values else math.nan


def quartiles(values):
    """Median, first and third quartile and sample count of a timing."""
    values = sorted(values)
    if len(values) < 2:
        q1 = med = q3 = median(values)
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def close(a, b, rtol=LOSS_RTOL):
    return len(a) == len(b) and all(
        math.isfinite(x) and abs(x - y) <= rtol * abs(y) for x, y in zip(a, b))


class Op:
    """One timed call and what the check needs from it."""

    __slots__ = ("round", "key", "seconds", "tokens", "output", "error", "failed")

    def __init__(self, round_, key):
        self.round, self.key = round_, key
        self.seconds, self.tokens, self.output, self.error, self.failed = 0.0, 0, None, None, False


# ---------------------------------------------------------------------------
# workloads: each builds rounds of operations, runs one, and checks the lot


class Train:
    """One op = `train_model` over two batches of 32 plus one validation batch."""

    name = "train"

    def __init__(self, su, seed, m):
        self.su, self.seed, self.m = su, seed, m
        self.opts = m.training.TrainOptions(batch_size=32, epochs=1, seed=seed)
        self.tokens = sum(len(r.tgt_ids) - 1 for r in su.train)

    def warm_up(self):
        self.m.training.train_model(self.su.train[:32], [], self.su.config, self.opts)
        return "one train_model call on the first batch, no validation"

    def round(self, index):
        return [Op(index, None)]

    def run(self, op):
        result = self.m.training.train_model(self.su.train, self.su.valid, self.su.config, self.opts)
        op.output = [v for e in result.log for v in (e["train_loss"], e["valid_loss"])]
        op.tokens = self.tokens

    def check(self, ops):
        """Every op repeats the first op's losses; then one dropout-free call
        on separate inputs must match the recorded reference losses."""
        first = next((op.output for op in ops if op.output is not None), None)
        for op in ops:
            if op.output is not None and not close(op.output, first):
                op.failed = True
        check = Op(None, "reference")
        check_seed = self.seed % self.m.inputs.CHECK_SEEDS
        reference = json.loads((HERE / "train_reference.json").read_text())
        expected = [v for pair in reference["losses"].get(str(check_seed), []) for v in pair]
        try:
            check.output = [v for pair in self.m.inputs.check_call_losses(check_seed) for v in pair]
        except Exception:
            check.error = traceback.format_exc()
        check.failed = check.output is None or not close(check.output, expected, reference["rtol"])
        return {"check_seed": check_seed, "expected": expected, "got": check.output,
                "rtol": reference["rtol"], "repeat_losses": first}, [check]


class ReplyGreedy:
    """One op = greedy `generate` for one review; one round = every length in
    REPLY_LENGTHS once, in a seeded order, over the next reviews of the pool."""

    name = "reply_greedy"

    def __init__(self, su, seed, m):
        self.su, self.m = su, m
        self.rng = m.np.random.default_rng(seed + 7)
        self.next_review = 0

    def warm_up(self):
        for rec in self.su.reply_pool[-2:]:
            self.generate(rec, REPLY_LENGTHS[0])
        return f"two greedy requests of max_len {REPLY_LENGTHS[0]}"

    def generate(self, rec, max_len):
        decode = self.m.generation.DecodeConfig(strategy="greedy", max_len=max_len)
        return self.m.generation.generate(rec, self.su.params, self.su.config, decode)

    def round(self, index):
        ops = []
        for length in self.rng.permutation(REPLY_LENGTHS):
            ops.append(Op(index, (self.next_review % len(self.su.reply_pool), int(length))))
            self.next_review += 1
        return ops

    def run(self, op):
        review, max_len = op.key
        op.output = self.generate(self.su.reply_pool[review], max_len)
        op.tokens = len(op.output)

    def check(self, ops):
        """Tokens equal the reference decoder's, exactly, and fill max_len."""
        used = sorted({op.key[0] for op in ops})
        longest = max(op.key[1] for op in ops)
        ref = self.m.reference(self.su)
        expected = dict(zip(used, ref.greedy([self.su.reply_pool[i] for i in used], longest)))
        for op in ops:
            review, max_len = op.key
            if op.output is not None and op.output != expected[review][:max_len]:
                op.failed = True
        return {"reviews_checked": len(used), "max_len_checked": longest}, []


class EvalBeam:
    """One op = beam-4 `evaluate_model` over the fixed test set.

    A random model's words rarely occur in the corpus responses, which would
    leave p1..p4 at 0 and the check blind. So each reference is the reference
    decoder's beam output with every fifth token replaced by a word of the
    corpus response: the BLEU statistics are then well above 0 and move with
    any change in the program's output.
    """

    name = "eval_beam"

    def __init__(self, su, seed, m):
        self.su, self.m = su, m
        self.decode = m.generation.DecodeConfig(strategy="beam", beam_width=BEAM_WIDTH,
                                                max_len=EVAL_MAX_LEN)
        ref = m.reference(su)
        words = su.vocab.id_to_token
        self.expected = [[words[t] for t in ref.beam(rec, EVAL_MAX_LEN, BEAM_WIDTH)]
                         for rec in su.eval_records]
        self.references = []
        for tokens, text in zip(self.expected, su.eval_references):
            corpus_words = text.split()
            self.references.append(" ".join(
                corpus_words[i % len(corpus_words)] if i % 5 == 4 else w
                for i, w in enumerate(tokens)))

    def warm_up(self):
        decode = self.m.generation.DecodeConfig(strategy="beam", beam_width=BEAM_WIDTH, max_len=2)
        self.m.generation.generate(self.su.eval_records[0], self.su.params, self.su.config, decode)
        return "one beam-4 request of max_len 2"

    def round(self, index):
        return [Op(index, None)]

    def run(self, op):
        report = self.m.evaluation.evaluate_model(
            self.su.params, self.su.config, self.su.vocab, self.su.eval_records,
            self.references, self.decode)
        op.output = [report.candidate_length, *report.precisions]
        op.tokens = report.candidate_length

    def check(self, ops):
        """candidate_length and p1..p4 equal the statistics of the reference
        decoder's beam outputs, exactly (they are ratios of integer counts)."""
        length, precisions = self.m.oracle.bleu_stats(
            self.expected, [r.split() for r in self.references])
        expected = [length, *precisions]
        for op in ops:
            if op.output is not None and op.output != expected:
                op.failed = True
        return {"expected": expected}, []


WORKLOADS = {w.name: w for w in (Train, ReplyGreedy, EvalBeam)}


# ---------------------------------------------------------------------------


class Modules:
    """The program and the benchmark's own modules, imported after the
    thread environment is pinned."""

    def __init__(self):
        import numpy as np
        from trrgen import evaluation, generation, training
        import inputs
        import oracle
        import tracer
        self.np, self.evaluation, self.generation, self.training = np, evaluation, generation, training
        self.inputs, self.oracle, self.tracer = inputs, oracle, tracer

    def reference(self, su):
        c = su.config
        return self.oracle.ReferenceModel(c.vocab_size, c.d_model, c.n_heads, c.n_layers,
                                          c.d_ff, c.seed, su.banned_ids)


def method_record(m, args, warm_up):
    blas = m.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": m.np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loop": "closed, one caller, whole rounds until --seconds have passed",
        "setups": SETUPS, "warm_up": warm_up,
    }


def timed(workload, op, tracer=None):
    if tracer is not None:
        tracer.install()
        span = tracer.open("bench.op")
    start = perf_counter()
    try:
        workload.run(op)
    except Exception:
        op.error = traceback.format_exc()
        op.failed = True
    op.seconds = perf_counter() - start
    if tracer is not None:
        tracer.close(span)
        tracer.uninstall()


def set_up(m, seed, tracer):
    """SETUPS timed set-ups (traced as a whole when tracing); returns the
    last set-up and the seconds each took."""
    seconds = []
    if tracer:
        tracer.install()
    for _ in range(SETUPS):
        su = None   # one model in memory at a time, as in a real start-up
        span = tracer.open("bench.setup") if tracer else None
        start = perf_counter()
        su = m.inputs.set_up(seed, str(OUT))
        seconds.append(perf_counter() - start)
        if tracer:
            tracer.close(span)
    if tracer:
        tracer.uninstall()
    return su, seconds


def measure(workload, seconds, tracer):
    """Closed loop of whole rounds until `seconds` have passed. When tracing,
    each op also runs as a traced twin, alternating which of the two goes first."""
    ops, traced_ops, rounds = [], [], 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        for op in workload.round(rounds):
            if tracer:
                twin = Op(op.round, op.key)
                pair = [(op, None), (twin, tracer)]
                for o, t in (pair if len(ops) % 2 == 0 else pair[::-1]):
                    timed(workload, o, t)
                traced_ops.append(twin)
            else:
                timed(workload, op)
            ops.append(op)
        rounds += 1
    return ops, traced_ops, rounds, perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_ENV)   # before numpy loads BLAS
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    try:
        m = Modules()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tracer = m.tracer.Tracer() if args.trace else None

    su, setup_seconds = set_up(m, args.seed, tracer)
    workload = WORKLOADS[args.workload](su, args.seed, m)
    record = method_record(m, args, workload.warm_up())
    ops, traced_ops, rounds, elapsed = measure(workload, args.seconds, tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # before the checks

    checks, extra_ops = workload.check(ops + traced_ops)
    all_ops = ops + traced_ops + extra_ops
    failed = sum(op.failed for op in all_ops)
    for op in all_ops:
        if op.error:
            print(op.error, file=sys.stderr)
    record["checks"] = checks
    record["rounds"], record["measured_s"] = rounds, elapsed

    completed = [op for op in ops if op.error is None]   # a wrong answer still took its time
    per_round = {}
    for op in completed:
        secs, toks = per_round.get(op.round, (0.0, 0))
        per_round[op.round] = (secs + op.seconds, toks + op.tokens)
    samples = {
        "setup_s": setup_seconds,
        "op_ms": [1000 * op.seconds for op in completed],
        "round_tokens_per_s": [t / s for s, t in per_round.values()],
    }
    if args.workload == "reply_greedy":
        samples["round_ms_per_token"] = [1000 * s / t for s, t in per_round.values()]
    if args.workload == "eval_beam":
        samples["round_responses_per_s"] = [len(su.eval_records) / s for s, _ in per_round.values()]
    record["timings"] = {k: quartiles(v) for k, v in samples.items()}

    if tracer:
        metrics = tracer.rollup()
        untraced = sum(op.seconds for op in ops)
        metrics["trace.overhead_frac"] = sum(op.seconds for op in traced_ops) / untraced - 1.0
        record["trace_skipped_hooks"] = tracer.skipped
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": median(samples["setup_s"]),
            "peak_rss_mb": peak_mb,
            "op_ms_p50": median(samples["op_ms"]),
            "tokens_per_s": median(samples["round_tokens_per_s"]),
        }
        record["summary"] = summary(args.workload, metrics, samples, failed, len(all_ops))
    record["metrics"] = metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    print("method:", json.dumps({k: v for k, v in record.items() if k != "checks"}, default=float))
    if "summary" in record:
        print("summary:", json.dumps(record["summary"]))
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.startswith("trace.") or name.endswith(("_frac", "_per_token")):
        return "ratio"
    if name in ("tensor.tape_entries",):
        return "count/step"
    if name in ("tensor.backward_s", "optim.adam_step_s", "optim.zero_grads_s"):
        return "s/step"
    if name.startswith(("corpus.", "checkpoint.")):
        return "s/setup"
    return "s/op" if name.endswith("_s") else "count/op"


def p90(values):
    values = list(values)
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summary(workload, metrics, samples, failed, attempted):
    """The workload's end-to-end figures under the names the docs use."""
    out = {"setup_s": [metrics["setup_s"], "s"], "peak_rss_mb": [metrics["peak_rss_mb"], "MB"],
           "failed_frac": [failed / attempted, "ratio"]}
    if workload == "train":
        out["train_tokens_per_s"] = [metrics["tokens_per_s"], "tokens/s"]
    elif workload == "reply_greedy":
        out["reply_ms_p50"] = [metrics["op_ms_p50"], "ms"]
        out["reply_ms_p90"] = [p90(samples["op_ms"]), "ms"]
        out["reply_ms_per_token"] = [median(samples["round_ms_per_token"]), "ms/token"]
    else:
        out["eval_responses_per_s"] = [median(samples["round_responses_per_s"]), "responses/s"]
    return out


if __name__ == "__main__":
    sys.exit(main())
