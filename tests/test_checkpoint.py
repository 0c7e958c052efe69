import json
import struct
import tracemalloc

import numpy as np
import pytest

from trrgen.checkpoint import save_checkpoint, load_checkpoint, CheckpointError, MAGIC
from trrgen.corpus import ReviewRecord, build_vocabulary
from trrgen import model
from trrgen.model import ModelConfig, init_parameters


@pytest.fixture
def setup():
    records = [ReviewRecord("a", "TOOLS", 4, "great app works well", "thanks a lot"),
               ReviewRecord("b", "GAME", 2, "crashes on load", "we will fix it")]
    vocab = build_vocabulary(records, min_freq=1)
    config = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_layers=1,
                         d_ff=16, max_tgt_len=16, dropout=0.0, seed=5)
    params = init_parameters(config, seed=5)
    return params, config, vocab


def test_round_trip_bitwise(tmp_path, setup):
    params, config, vocab = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, vocab, run_config={"lr": 0.001},
                    metadata={"best_epoch": 3})
    loaded, config2, vocab2, run_cfg, meta = load_checkpoint(path)
    assert config2 == config
    assert vocab2.id_to_token == vocab.id_to_token
    assert run_cfg == {"lr": 0.001} and meta == {"best_epoch": 3}
    for (na, ta), (nb, tb) in zip(params.named(), loaded.named()):
        assert na == nb
        assert np.array_equal(ta.values, tb.values)


def test_load_draws_no_random_numbers(tmp_path, setup, monkeypatch):
    params, config, vocab = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, vocab)

    def no_draw(*args):
        raise AssertionError("load_checkpoint drew random weights")

    monkeypatch.setattr(model, "_xavier", no_draw)
    loaded, *_ = load_checkpoint(path)
    for (_, ta), (_, tb) in zip(params.named(), loaded.named()):
        assert np.array_equal(ta.values, tb.values)


def test_save_load_save_byte_identical(tmp_path, setup):
    params, config, vocab = setup
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, params, config, vocab, run_config={"seed": 1})
    loaded, config2, vocab2, run_cfg, meta = load_checkpoint(p1)
    save_checkpoint(p2, loaded, config2, vocab2, run_config=run_cfg, metadata=meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path, setup):
    params, config, vocab = setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, vocab)
    raw = bytearray(path.read_bytes())
    for version in (99, 1):  # 1 is the per-head layout this build no longer reads
        raw[len(MAGIC)] = version
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_checkpoint(path)


@pytest.fixture
def tiny_checkpoint(tmp_path):
    records = [ReviewRecord("a", "TOOLS", 4, "fine", "thanks")]
    vocab = build_vocabulary(records, min_freq=1)
    config = ModelConfig(vocab_size=len(vocab), d_model=2, n_heads=1, n_layers=1,
                         d_ff=2, max_tgt_len=4, dropout=0.0, seed=0)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(path, init_parameters(config), config, vocab)
    return path


def test_truncated_at_every_offset_rejected(tmp_path, tiny_checkpoint):
    raw = tiny_checkpoint.read_bytes()
    path = tmp_path / "cut.ckpt"
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def rewrite_header(path, edit):
    """Apply `edit` to the parsed JSON header and write the file back."""
    raw = path.read_bytes()
    start = len(MAGIC) + 4
    (hlen,) = struct.unpack("<Q", raw[start:start + 8])
    header = json.loads(raw[start + 8:start + 8 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:start] + struct.pack("<Q", len(blob)) + blob
                     + raw[start + 8 + hlen:])


@pytest.mark.parametrize("edit,match", [
    (lambda h: h.pop("vocabulary"), "malformed header"),
    (lambda h: h["model_config"].update(n_heads=3), "malformed header"),
    (lambda h: h["vocabulary"].pop(), "vocabulary has"),
    (lambda h: h["vocabulary"].__setitem__(-1, 7), "JSON list of strings"),
    (lambda h: h["tensors"][0][1].append(1), "manifest"),
])
def test_inconsistent_header_rejected(tiny_checkpoint, edit, match):
    rewrite_header(tiny_checkpoint, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(tiny_checkpoint)


def test_malformed_json_and_block_length_rejected(tiny_checkpoint):
    raw = bytearray(tiny_checkpoint.read_bytes())
    hstart = len(MAGIC) + 12
    (hlen,) = struct.unpack("<Q", raw[hstart - 8:hstart])
    bad_json = raw[:hstart] + b"{" * hlen + raw[hstart + hlen:]
    tiny_checkpoint.write_bytes(bytes(bad_json))
    with pytest.raises(CheckpointError, match="malformed header"):
        load_checkpoint(tiny_checkpoint)
    (nbytes,) = struct.unpack_from("<Q", raw, hstart + hlen)
    struct.pack_into("<Q", raw, hstart + hlen, nbytes - 8)  # one float short
    tiny_checkpoint.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="block"):
        load_checkpoint(tiny_checkpoint)


@pytest.mark.parametrize("bad", [
    [("out_proj", (0, 5), np.nan)],
    [("embedding", (3, 1), np.inf)],
    [("dec0.ffn.w1", (1, 0), -np.inf), ("out_proj", (0, 5), np.nan)],
    [("enc0.norm1.gamma", (0,), np.nan), ("dec0.cross.wv", (2, 2), np.inf)],
])
def test_non_finite_tensor_rejected_by_name(tmp_path, setup, bad):
    """The error names the first tensor, in file order, that holds a NaN or
    an infinite value."""
    params, config, vocab = setup
    tensors = dict(params.named())
    for name, index, value in bad:
        tensors[name].values[index] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config, vocab)
    with pytest.raises(CheckpointError, match=rf"tensor {bad[0][0]} holds a NaN or infinite"):
        load_checkpoint(path)


def traced_peak(fn):
    """`fn()`'s result and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_and_load_make_no_tensor_copies(tmp_path, setup):
    """A save writes each tensor's own buffer, and a load reads each block
    straight into the array it returns. The slack is half the largest tensor
    (2 MiB at `d_ff` 2,048), so a second copy of it breaks either bound."""
    _, _, vocab = setup
    config = ModelConfig(vocab_size=len(vocab), d_model=128, n_heads=2, n_layers=1,
                         d_ff=2048, max_tgt_len=16, dropout=0.0, seed=5)
    params = init_parameters(config, seed=5)
    largest = max(t.values.nbytes for _, t in params.named())
    total = sum(t.values.nbytes for _, t in params.named())
    slack = largest // 2
    path = tmp_path / "model.ckpt"
    _, peak = traced_peak(lambda: save_checkpoint(path, params, config, vocab))
    assert peak < slack
    (loaded, *_), peak = traced_peak(lambda: load_checkpoint(path))
    assert peak < total + slack
    for (_, ta), (_, tb) in zip(params.named(), loaded.named()):
        assert np.array_equal(ta.values, tb.values)
