"""A traced benchmark run reports every per-layer metric `BENCHMARK.json` names.

`benchmarks/tracer.py` drops a whole metric family from its rollup when one
hook it needs is missing or re-signed, and the run still exits 0. Deleting
the `cross_entropy_logits` import from `model.py` alone cut a traced `train`
result from 57 to 37 metrics. This test holds the rollup to the benchmark's
own list of names, not to the tracer's hook list. The tracer is executed
from its source text, so nothing is written under `benchmarks/`.
"""

import json
import math
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"
# `benchmarks/run.py` adds this one after the rollup, from the untraced twins.
ADDED_BY_RUN = {"trace.overhead_frac"}


def test_rollup_reports_every_per_layer_name():
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert ADDED_BY_RUN <= names and len(names) == 57
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    tracer = module.Tracer()
    tracer.install()
    try:
        metrics = tracer.rollup()
    finally:
        tracer.uninstall()
    assert sorted(names - ADDED_BY_RUN - set(metrics)) == []
    assert all(math.isfinite(value) for value in metrics.values()), metrics
