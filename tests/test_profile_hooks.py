"""The benchmark's per-layer profile still finds the functions it wraps.

`benchmarks/tracer.py` skips a hook whose target is missing or whose
parameters changed, and drops every metric that needs it from a traced run,
so a signature change would silently lose a whole metric family. The tracer
is executed from its source text, so nothing is written under `benchmarks/`.
"""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_only_the_deleted_decode_hooks_are_skipped():
    """`generation` no longer calls `greedy_decode` or `decoder_forward`, and
    `evaluation` no longer imports `generate`; the model's own
    `decoder_forward` hook stays because the name still exists (packed
    training does not run it), and so does the `generation.generate` span,
    through `trrgen.generation`."""
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.skipped == ["trrgen.generation.decoder_forward",
                                  "trrgen.evaluation.generate",
                                  "trrgen.generation.greedy_decode"]
        assert "generation.generate" in tracer.installed
    finally:
        tracer.uninstall()
