"""Binary checkpoint container, format version 2.

Layout (little-endian): magic "TRRGEN1", uint32 format version, uint64 header
length, JSON header (model config, run config, vocabulary tokens, training
metadata, tensor manifest), then one uint64-length-prefixed raw float64 block
per tensor in `Parameters.named()` order. Attention projections are stored
fused, one d_model x d_model block each; version 1 stored one block per head
and is rejected, like any truncated or inconsistent file or one holding a
non-finite weight; a load checks the manifest against the config and the
file's length before it allocates anything. The JSON header is strict JSON,
with sorted keys so identical state produces byte-identical files: a NaN or
infinite value in it is an error before a save writes anything, though a
load still reads one.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from itertools import zip_longest

import numpy as np

from .corpus import Vocabulary
from .model import ModelConfig, Parameters, build_parameters, parameter_shapes

MAGIC = b"TRRGEN1"
VERSION = 2


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: Parameters, config: ModelConfig,
                    vocab: Vocabulary, run_config: dict | None = None,
                    metadata: dict | None = None):
    named = list(params.named())
    header = {
        "model_config": dataclasses.asdict(config),
        "run_config": run_config or {},
        "vocabulary": vocab.id_to_token,
        "metadata": metadata or {},
        "tensors": [[name, list(t.values.shape)] for name, t in named],
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"  # so that a failed save leaves the old file whole
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<IQ", VERSION, len(blob)) + blob)
            for _, t in named:  # no copy on a little-endian host
                raw = np.ascontiguousarray(t.values, dtype="<f8")
                fh.write(struct.pack("<Q", raw.nbytes))
                fh.write(memoryview(raw).cast("B"))
        os.replace(tmp, path)
    finally:  # gone once it has replaced `path`
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path):
    """Returns (params, config, vocab, run_config, metadata); bitwise round trip.
    A tensor holding a NaN or infinite value is rejected, since no model
    with one decodes. Each tensor block is read in place into its array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n, what, into=None):
            if n > size - fh.tell():
                raise CheckpointError(f"{path}: truncated {what}")
            return fh.read(n) if into is None else fh.readinto(into)

        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version} "
                                  f"(this build reads version {VERSION})")
        (hlen,) = struct.unpack("<Q", read(8, "header length"))
        blob = read(hlen, "header")
        try:
            header = json.loads(blob.decode("utf-8"))
            config = ModelConfig(**header["model_config"])
            vocab = Vocabulary(header["vocabulary"])
            manifest = [(name, tuple(shape)) for name, shape in header["tensors"]]
            run_config, metadata = header["run_config"], header["metadata"]
        except (ValueError, KeyError, TypeError, RecursionError) as exc:  # JSON too deep
            raise CheckpointError(f"{path}: malformed header: {exc}") from None
        if len(vocab) != config.vocab_size:
            raise CheckpointError(f"{path}: vocabulary has {len(vocab)} tokens, "
                                  f"model expects {config.vocab_size}")

        # both checked before the config's sizes allocate anything
        if any(a != b for a, b in zip_longest(manifest, parameter_shapes(config))):
            raise CheckpointError(f"{path}: tensor manifest does not match the model config")
        need, left = sum(8 + 8 * math.prod(shape) for _, shape in manifest), size - fh.tell()
        if need != left:  # each block is its uint64 length and its float64 values
            raise CheckpointError(f"{path}: truncated tensors" if need > left
                                  else f"{path}: {left - need} trailing bytes")
        params = build_parameters(config, lambda *shape: np.empty(shape))
        for name, t in params.named():
            (nbytes,) = struct.unpack("<Q", read(8, f"tensor {name} length"))
            if nbytes != t.values.nbytes:
                raise CheckpointError(f"{path}: tensor {name} block is {nbytes} bytes, "
                                      f"expected {t.values.nbytes}")
            read(nbytes, f"tensor {name}", t.values)
            t.values = t.values.view("<f8").astype(np.float64, copy=False)  # converts if big-endian
            if not np.isfinite(t.values).all():
                raise CheckpointError(f"{path}: tensor {name} holds a NaN or infinite value")
    return params, config, vocab, run_config, metadata
