"""Fusion round-trip: ``load_from_unfused`` -> ``export_to_unfused`` is exact.

The runtime hands every finished job a checkpoint extracted from a fused
array, so the import/export pair must be lossless: each unfused model's
parameters *and* buffers must come back bit-exactly, for a model mixing the
three parameter-carrying operator families (conv + batch norm + linear).
"""

import numpy as np
import pytest

from repro import hfta, nn
from repro.hfta import ops as hops

B = 3


def build_serial(seed, channels=4):
    gen = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, channels, 3, padding=1, generator=gen),
        nn.BatchNorm2d(channels),
        nn.ReLU(), nn.AdaptiveAvgPool2d(1))


def build_fused(num_models, channels=4):
    return nn.Sequential(
        hops.Conv2d(num_models, 3, channels, 3, padding=1),
        hops.BatchNorm2d(num_models, channels),
        nn.ReLU(), nn.AdaptiveAvgPool2d(1))


def perturb_buffers(models):
    """Give every model distinct batch-norm running stats (fresh models all
    start from the same zeros/ones, which would hide indexing bugs)."""
    for i, model in enumerate(models):
        for name, buf in model.named_buffers():
            if buf is not None and np.issubdtype(buf.dtype, np.floating):
                buf += np.arange(buf.size, dtype=buf.dtype).reshape(buf.shape) \
                    * (i + 1)


class TestRoundTrip:
    def test_conv_bn_linear_roundtrip_is_bit_exact(self):
        serial = [build_serial(seed) for seed in range(B)]
        heads = [nn.Linear(4, 2, generator=np.random.default_rng(50 + b))
                 for b in range(B)]
        perturb_buffers(serial)

        fused = build_fused(B)
        fused_head = hops.Linear(B, 4, 2)
        hfta.load_from_unfused(fused, serial)
        hfta.load_from_unfused(fused_head, heads)

        for b in range(B):
            template = build_serial(seed=999)   # weights will be overwritten
            head_template = nn.Linear(4, 2)
            hfta.export_to_unfused(fused, b, template)
            hfta.export_to_unfused(fused_head, b, head_template)

            for (name, p_out), (_, p_in) in zip(
                    template.named_parameters(),
                    serial[b].named_parameters()):
                np.testing.assert_array_equal(
                    p_out.data, p_in.data,
                    err_msg=f"model {b} parameter {name}")
            for (name, b_out), (_, b_in) in zip(template.named_buffers(),
                                                serial[b].named_buffers()):
                if b_in is None:
                    continue
                np.testing.assert_array_equal(
                    b_out, b_in, err_msg=f"model {b} buffer {name}")
            for (name, p_out), (_, p_in) in zip(
                    head_template.named_parameters(),
                    heads[b].named_parameters()):
                np.testing.assert_array_equal(
                    p_out.data, p_in.data,
                    err_msg=f"model {b} head parameter {name}")

    def test_load_rejects_wrong_array_width(self):
        serial = [build_serial(seed) for seed in range(B)]
        too_narrow = build_fused(B - 1)
        with pytest.raises(ValueError, match="fused shape"):
            hfta.load_from_unfused(too_narrow, serial)


class TestValidateFusibility:
    def test_accepts_identical_structures(self):
        models = [build_serial(seed) for seed in range(B)]
        assert hfta.validate_fusibility(models)
        assert hfta.fusibility_error(models) is None

    def test_rejects_shape_mismatch(self):
        models = [build_serial(0), build_serial(1, channels=8)]
        with pytest.raises(ValueError, match="shape mismatch"):
            hfta.validate_fusibility(models)
        assert "shape mismatch" in hfta.fusibility_error(models)

    def test_rejects_different_structure(self):
        cnn = build_serial(0)
        mlp = nn.Sequential(nn.Linear(3, 4), nn.ReLU())
        with pytest.raises(ValueError, match="different module structure"):
            hfta.validate_fusibility([cnn, mlp])
        assert "different module structure" in \
            hfta.fusibility_error([cnn, mlp])

    def test_prefix_parameter_mismatch_is_reported_not_raised(self):
        """Same module structure, but one model's parameter list is a strict
        prefix of the other's (bias present in only one): ``fusibility_error``
        must report it without raising, and the validator must raise
        ValueError."""
        with_bias = nn.Sequential(nn.Linear(4, 3))
        without_bias = nn.Sequential(nn.Linear(4, 3, bias=False))
        models = [with_bias, without_bias]
        assert "parameters" in hfta.fusibility_error(models)
        with pytest.raises(ValueError, match="parameters"):
            hfta.validate_fusibility(models)

    def test_structural_signature_is_a_grouping_key(self):
        same = {hfta.structural_signature(build_serial(s)) for s in range(3)}
        assert len(same) == 1
        assert hfta.structural_signature(build_serial(0)) != \
            hfta.structural_signature(build_serial(0, channels=8))
