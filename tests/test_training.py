import numpy as np
import pytest

from trrgen.corpus import PreprocessConfig, build_vocabulary
from trrgen.training import TrainOptions, train_model
from trrgen.model import forward_training

from conftest import make_records, encode_corpus, build_tiny_setup


def setup_tiny(n=16, seed=0):
    pre_cfg = PreprocessConfig()
    records = make_records(n, seed=seed)
    vocab, config = build_tiny_setup(records, pre_cfg, d_model=16, d_ff=32)
    encoded, _ = encode_corpus(records, vocab, pre_cfg)
    return encoded, config


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("batch_size", -1), ("validate_every", 0), ("patience", -1),
    ("lr", 0.0), ("lr", -1e-3), ("lr", float("inf")), ("lr", float("nan")),
    ("adam_eps", 0.0), ("adam_eps", float("nan")), ("beta1", 1.0), ("beta1", -0.1),
    ("beta2", 1.0), ("beta2", float("nan")), ("lr", 10 ** 400)])
def test_bad_option_rejected_naming_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainOptions(**{field: value})


def test_boundary_options_accepted():
    TrainOptions(batch_size=1, validate_every=1, patience=0, lr=1, beta1=0.0, beta2=0.0)


def test_loss_decreases_after_one_epoch():
    encoded, config = setup_tiny()
    opts = TrainOptions(lr=1e-3, batch_size=8, epochs=1, seed=0)
    result = train_model(encoded, [], config, opts)
    first = forward_training(encoded, result.params, config)
    from trrgen.model import init_parameters
    initial = forward_training(encoded, init_parameters(config, seed=0), config)
    assert float(first.values) < float(initial.values)


def test_training_is_seed_deterministic():
    encoded, config = setup_tiny()
    opts = TrainOptions(lr=1e-3, batch_size=8, epochs=3, seed=1)
    a = train_model(encoded, [], config, opts)
    b = train_model(encoded, [], config, opts)
    assert a.log == b.log
    for (na, ta), (nb, tb) in zip(a.params.named(), b.params.named()):
        assert np.array_equal(ta.values, tb.values)


def test_validation_tracking_and_log_shape():
    encoded, config = setup_tiny(24)
    train, valid = encoded[:16], encoded[16:]
    opts = TrainOptions(lr=1e-3, batch_size=8, epochs=4, patience=10, seed=2)
    result = train_model(train, valid, config, opts)
    assert len(result.log) == 4
    assert all("train_loss" in e and "valid_loss" in e for e in result.log)
    assert result.best_epoch >= 1
    assert result.best_valid_loss == min(e["valid_loss"] for e in result.log)


def test_early_stop_on_patience():
    encoded, config = setup_tiny(24)
    train, valid = encoded[:16], encoded[16:]
    # huge lr diverges quickly, so validation stops improving
    opts = TrainOptions(lr=0.5, batch_size=8, epochs=50, patience=1, seed=3)
    result = train_model(train, valid, config, opts)
    assert len(result.log) < 50
