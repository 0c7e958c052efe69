"""Binary checkpoint container, format version 2.

Layout (little-endian): magic "TRRGEN1", uint32 format version, uint64 header
length, JSON header (model config, run config, vocabulary tokens, training
metadata, tensor manifest), then one uint64-length-prefixed raw float64 block
per tensor in `Parameters.named()` order. Attention projections are stored
fused, one d_model x d_model block each; version 1 stored one block per head
and is rejected, like any truncated or inconsistent file or one holding a
non-finite weight. The JSON header is serialized with sorted keys so
identical state produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct

import numpy as np

from .corpus import Vocabulary
from .model import ModelConfig, Parameters, build_parameters

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
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, t in named:  # no copy on a little-endian host
            raw = np.ascontiguousarray(t.values, dtype="<f8")
            fh.write(struct.pack("<Q", raw.nbytes))
            fh.write(memoryview(raw).cast("B"))


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
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc}") from None
        if len(vocab) != config.vocab_size:
            raise CheckpointError(f"{path}: vocabulary has {len(vocab)} tokens, "
                                  f"model expects {config.vocab_size}")

        params = build_parameters(config, lambda *shape: np.empty(shape))
        named = list(params.named())
        if manifest != [(name, t.values.shape) for name, t in named]:
            raise CheckpointError(f"{path}: tensor manifest does not match the model config")
        for name, t in named:
            (nbytes,) = struct.unpack("<Q", read(8, f"tensor {name} length"))
            if nbytes != t.values.nbytes:
                raise CheckpointError(f"{path}: tensor {name} block is {nbytes} bytes, "
                                      f"expected {t.values.nbytes}")
            read(nbytes, f"tensor {name}", t.values)
            t.values = t.values.view("<f8").astype(np.float64, copy=False)  # converts if big-endian
            if not np.isfinite(t.values).all():
                raise CheckpointError(f"{path}: tensor {name} holds a NaN or infinite value")
        if fh.tell() != size:
            raise CheckpointError(f"{path}: {size - fh.tell()} trailing bytes")
    return params, config, vocab, run_config, metadata
