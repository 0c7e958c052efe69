"""The library's outputs against `golden.json`, recorded by `record_golden.py`:
floats within the file's relative tolerance, tokens and bytes exactly."""

import json

import numpy as np
import pytest

from trrgen.model import FUSION_VARIANTS

from record_golden import GOLDEN, checkpoint_sha256, variant_outputs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_checkpoint_bytes(golden):
    assert checkpoint_sha256() == golden["checkpoint_sha256"]


def test_every_variant_recorded(golden):
    assert sorted(golden["variants"]) == sorted(FUSION_VARIANTS)


@pytest.mark.parametrize("variant", FUSION_VARIANTS)
def test_variant_outputs(golden, variant):
    want, got = golden["variants"][variant], variant_outputs(variant)
    close = dict(rtol=golden["rtol"], atol=0)
    np.testing.assert_allclose(got["loss"], want["loss"], **close)
    assert list(got["grad_norms"]) == list(want["grad_norms"])
    for name, norm in want["grad_norms"].items():
        np.testing.assert_allclose(got["grad_norms"][name], norm, err_msg=name, **close)
    np.testing.assert_allclose(got["adam_losses"], want["adam_losses"], **close)
    assert got["greedy"] == want["greedy"]
    assert got["beam"] == want["beam"]
