"""Which layers have a fused class (paper Table 6).

A fused class exists to add the array dimension ``B`` to a layer's
parameters. A layer without parameters or buffers (an activation, a pool,
dropout) has no array dimension to add: the serial layer applied to the
fused layout already is the fused operator. These two checks keep it so —
``OpsLibrary`` hands out the serial class exactly for the stateless layers,
and every module class ``repro.hfta.ops`` exports owns per-model parameters.
"""

import inspect

import pytest

from repro import nn
from repro.hfta import ops as hops
from repro.hfta.ops.factory import _SERIAL_CLASSES, OpsLibrary

B = 3

#: each layer the library hands out -> serial constructor arguments
LAYER_ARGS = {
    "Conv1d": (2, 4, 1), "Conv2d": (2, 4, 1),
    "ConvTranspose1d": (2, 4, 1), "ConvTranspose2d": (2, 4, 1),
    "Linear": (2, 4), "BatchNorm1d": (2,), "BatchNorm2d": (2,),
    "LayerNorm": (2,), "Embedding": (5, 2),
    "MaxPool2d": (2,), "MaxPool1d": (2,), "AvgPool2d": (2,),
    "AdaptiveAvgPool2d": (1,), "Dropout": (0.5,), "Dropout2d": (0.5,),
    "ReLU": (), "ReLU6": (), "LeakyReLU": (), "Tanh": (), "Sigmoid": (),
    "GELU": (), "Hardswish": (), "Hardsigmoid": (), "Softmax": (),
    "LogSoftmax": (),
    "MultiheadAttention": (4, 2), "TransformerEncoderLayer": (4, 2, 8),
}
#: criteria are not layers: a fused criterion says how the ``B`` models'
#: losses combine, so it has a fused class without parameters
CRITERIA = ("CrossEntropyLoss", "BCELoss")


def test_every_library_name_is_a_layer_or_a_criterion():
    assert set(_SERIAL_CLASSES) == set(LAYER_ARGS) | set(CRITERIA)


@pytest.mark.parametrize("name", sorted(LAYER_ARGS))
def test_the_library_hands_out_the_serial_class_exactly_for_stateless_layers(
        name):
    serial = _SERIAL_CLASSES[name](*LAYER_ARGS[name])
    stateless = (not list(serial.parameters())
                 and not list(serial.named_buffers()))
    handed = getattr(OpsLibrary(B), name)
    assert (handed is _SERIAL_CLASSES[name]) == stateless
    assert getattr(OpsLibrary(None), name) is _SERIAL_CLASSES[name]


@pytest.mark.parametrize("name", sorted(
    n for n in hops.__all__
    if inspect.isclass(getattr(hops, n))
    and issubclass(getattr(hops, n), nn.Module)))
def test_every_fused_class_owns_per_model_parameters(name):
    fused = getattr(hops, name)(B, *LAYER_ARGS[name])
    shapes = [p.shape for p in fused.parameters()]
    assert shapes and all(shape[0] == B for shape in shapes), shapes
