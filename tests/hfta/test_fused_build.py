"""A fused array built with ``nn.init.disabled()`` and filled by
``load_from_unfused``, as ``FusedPhysics.build`` makes one: the same arrays
as a fully initialised build, no generator seeded on the way, and a slot no
model fills is an error rather than uninitialised memory."""

import hashlib

import numpy as np
import pytest

from repro import nn
from repro.hfta import load_from_unfused
from repro.models import PointNetCls, TransformerLM
from repro.nn.modules.module import Parameter
from .test_equivalence_matrix import SweepMLP

B = 4


def mlp(num_models, generator):
    return SweepMLP(num_models, generator)


def pointnet(num_models, generator):
    return PointNetCls(num_classes=8, num_models=num_models, width=0.25,
                       dropout=0.0, feature_transform=True,
                       generator=generator)


def lm(num_models, generator):
    return TransformerLM(vocab_size=64, d_model=32, nhead=2, num_layers=2,
                         dim_feedforward=64, max_len=16, dropout=0.0,
                         num_models=num_models, generator=generator)


def templates(build):
    return [build(None, np.random.default_rng(b)) for b in range(B)]


def digest(model):
    h = hashlib.sha256()
    for name, array in [*((n, p.data) for n, p in model.named_parameters()),
                        *model.named_buffers()]:
        h.update(name.encode() + str(array.dtype).encode() + array.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("build", [mlp, pointnet, lm],
                         ids=["mlp", "pointnet", "lm"])
def test_a_build_without_initialisers_loads_the_same_arrays(build,
                                                           monkeypatch):
    drawn = build(B, None)
    load_from_unfused(drawn, templates(build))

    def no_generator(*args):
        raise AssertionError("a generator was seeded")
    with monkeypatch.context() as seeding:
        seeding.setattr(np.random, "default_rng", no_generator)
        with nn.init.disabled():
            skipped = build(B, None)
    load_from_unfused(skipped, templates(build))
    assert digest(skipped) == digest(drawn)


def test_initialisers_are_off_only_inside_the_block():
    with nn.init.disabled():
        with nn.init.disabled():
            assert not nn.init.enabled()
        assert not nn.init.enabled()
    assert nn.init.enabled()


def test_a_slot_no_model_fills_is_an_error():
    fused = mlp(B, None)
    fused.extra = Parameter(np.empty((B, 3), np.float32))
    with pytest.raises(KeyError, match="extra"):
        load_from_unfused(fused, templates(mlp))
    fused = mlp(B, None)
    fused.register_buffer("stats", np.empty(B * 2, np.float32))
    with pytest.raises(KeyError, match="stats"):
        load_from_unfused(fused, templates(mlp))
