import numpy as np
import pytest

from trrgen.corpus import PreprocessConfig, build_vocabulary
from trrgen.training import TrainOptions, train_model
from trrgen.model import forward_training, init_parameters

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


@pytest.mark.parametrize("epochs", [0, -1])
def test_epochs_below_one_rejected(epochs):
    with pytest.raises(ValueError, match=f"^epochs must be >= 1, got {epochs}$"):
        TrainOptions(epochs=epochs)


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


def same_parameters(a, b):
    return all(np.array_equal(ta.values, tb.values)
               for (_, ta), (_, tb) in zip(a.named(), b.named()))


def test_returns_best_validated_epoch_parameters():
    encoded, config = setup_tiny(24)
    train, valid = encoded[:16], encoded[16:]
    opts = TrainOptions(lr=0.02, batch_size=8, epochs=4, patience=10, seed=2)
    result = train_model(train, valid, config, opts)
    assert 1 <= result.best_epoch < len(result.log) == 4  # a later epoch was worse
    # validation draws nothing, so training alone to the best epoch replays it
    upto_best = train_model(train, [], config, TrainOptions(
        lr=0.02, batch_size=8, epochs=result.best_epoch, seed=2))
    assert same_parameters(result.params, upto_best.params)
    assert all(t.grad is None for _, t in result.params.named())


def test_never_validated_run_returns_final_parameters():
    encoded, config = setup_tiny(24)
    train, valid = encoded[:16], encoded[16:]
    opts = TrainOptions(lr=1e-3, batch_size=8, epochs=3, validate_every=5, seed=2)
    result = train_model(train, valid, config, opts)
    final = train_model(train, [], config, opts)
    assert all("valid_loss" not in e for e in result.log) and len(result.log) == 3
    assert same_parameters(result.params, final.params)
    assert not same_parameters(result.params, init_parameters(config, seed=2))
    assert result.best_epoch == -1 and result.best_valid_loss == float("inf")


@pytest.mark.parametrize("with_valid", [False, True])
def test_stop_loss_exit_without_validation_has_no_best_epoch(with_valid):
    encoded, config = setup_tiny(24)
    train, valid = encoded[:16], (encoded[16:] if with_valid else [])
    opts = TrainOptions(lr=1e-3, batch_size=8, epochs=3, validate_every=2, seed=2,
                        stop_loss=1e9)
    result = train_model(train, valid, config, opts)
    one_epoch = train_model(train, [], config, TrainOptions(lr=1e-3, batch_size=8, epochs=1,
                                                            seed=2))
    assert len(result.log) == 1 and result.best_epoch == -1
    assert same_parameters(result.params, one_epoch.params)
