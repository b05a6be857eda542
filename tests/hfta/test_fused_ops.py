"""Fused-operator equivalence tests (paper Table 6 fusion rules).

Every fused operator must produce, for each array slot ``b``, exactly the
output the corresponding unfused operator would produce on model ``b``'s
input — these tests check that property operator by operator, byte for
byte, with the slots loaded the one way the runtime loads them:
:func:`repro.hfta.load_from_unfused`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.hfta import load_from_unfused
from repro.hfta import ops as hops
from ..conftest import same_bytes

rng = np.random.default_rng(3)
B = 3


def per_model_inputs(shape, count=B):
    return [nn.tensor(rng.standard_normal(shape).astype(np.float32))
            for _ in range(count)]


def assert_slotwise_equal(fused_out_per_model, serial_outs):
    outs = list(zip(fused_out_per_model, serial_outs))
    assert len(outs) == B
    for b, (fused, serial) in enumerate(outs):
        assert same_bytes(fused.data, serial.data), f"slot {b}"


def randomize_affine(serial):
    """Give each serial norm layer its own affine parameters (they start as
    ones and zeros, which would hide a slot mix-up)."""
    for m in serial:
        m.weight.data[...] = rng.standard_normal(m.weight.shape)
        m.bias.data[...] = rng.standard_normal(m.bias.shape)
    return serial


class TestFusedConvFamily:
    @pytest.mark.parametrize("groups", [1, 2])
    def test_conv2d_equivalence(self, groups):
        serial = [nn.Conv2d(4, 6, 3, padding=1, groups=groups,
                            generator=np.random.default_rng(b))
                  for b in range(B)]
        fused = hops.Conv2d(B, 4, 6, 3, padding=1, groups=groups)
        load_from_unfused(fused, serial)
        xs = per_model_inputs((2, 4, 5, 5))
        fused_out = fused(hops.fuse_channel(xs))
        assert_slotwise_equal(hops.unfuse_channel(fused_out, B),
                              [m(x) for m, x in zip(serial, xs)])

    def test_conv2d_uses_grouped_convolution(self):
        """The fused conv must execute with B x groups groups (the key rule)."""
        fused = hops.Conv2d(B, 4, 6, 3, groups=2)
        assert fused.weight.shape == (B, 6, 2, 3, 3)
        x = nn.tensor(rng.standard_normal((1, B * 4, 6, 6)).astype(np.float32))
        assert fused(x).shape == (1, B * 6, 4, 4)

    def test_conv2d_channel_validation(self):
        fused = hops.Conv2d(B, 4, 6, 3)
        with pytest.raises(ValueError):
            fused(nn.zeros(1, 4, 5, 5))   # missing the array dimension

    def test_conv1d_equivalence(self):
        serial = [nn.Conv1d(3, 8, 1, generator=np.random.default_rng(b))
                  for b in range(B)]
        fused = hops.Conv1d(B, 3, 8, 1)
        load_from_unfused(fused, serial)
        xs = per_model_inputs((2, 3, 20))
        fused_out = fused(hops.fuse_channel(xs))
        assert_slotwise_equal(hops.unfuse_channel(fused_out, B),
                              [m(x) for m, x in zip(serial, xs)])

    def test_conv_transpose2d_equivalence(self):
        serial = [nn.ConvTranspose2d(6, 4, 4, stride=2, padding=1,
                                     generator=np.random.default_rng(b))
                  for b in range(B)]
        fused = hops.ConvTranspose2d(B, 6, 4, 4, stride=2, padding=1)
        load_from_unfused(fused, serial)
        xs = per_model_inputs((2, 6, 5, 5))
        fused_out = fused(hops.fuse_channel(xs))
        assert_slotwise_equal(hops.unfuse_channel(fused_out, B),
                              [m(x) for m, x in zip(serial, xs)])

    def test_gradients_stay_per_model(self):
        """Model b's gradient must not leak into model b'."""
        fused = hops.Conv2d(B, 2, 2, 3, padding=1)
        xs = per_model_inputs((1, 2, 4, 4))
        out = fused(hops.fuse_channel(xs))
        # loss depends only on model 0's slice of the output
        pieces = hops.unfuse_channel(out, B)
        (pieces[0] * pieces[0]).sum().backward()
        grad = fused.weight.grad
        assert np.abs(grad[0]).sum() > 0
        np.testing.assert_array_equal(grad[1], 0)
        np.testing.assert_array_equal(grad[2], 0)


def assert_fused_slices_bitwise(fused, serial, shape):
    """Slice ``b`` of the fused layer's output and of its x, weight and bias
    gradients is bit for bit serial layer ``b``'s, on ``[B, *shape]`` input."""
    xs = [rng.standard_normal(shape).astype(np.float32) for _ in range(B)]
    x = nn.tensor(np.stack(xs), requires_grad=True)
    out = fused(x)
    cotangent = rng.standard_normal(out.shape).astype(np.float32)
    (out * nn.tensor(cotangent)).sum().backward()
    for b, m in enumerate(serial):
        x_b = nn.tensor(xs[b], requires_grad=True)
        out_b = m(x_b)
        (out_b * nn.tensor(cotangent[b])).sum().backward()
        np.testing.assert_array_equal(out.data[b], out_b.data)
        np.testing.assert_array_equal(x.grad[b], x_b.grad)
        np.testing.assert_array_equal(fused.weight.grad[b], m.weight.grad)
        np.testing.assert_array_equal(fused.bias.grad[b], m.bias.grad)


class TestFusedLinearAndNorm:
    def test_linear_slices_are_bitwise_serial(self):
        """N*L = 21 rows: each slice must run the serial [N*L, E] GEMM."""
        serial = [nn.Linear(10, 7, generator=np.random.default_rng(b))
                  for b in range(B)]
        fused = hops.Linear(B, 10, 7)
        load_from_unfused(fused, serial)
        assert_fused_slices_bitwise(fused, serial, (3, 7, 10))

    def test_layernorm_parameter_gradients_are_bitwise_serial(self):
        serial = randomize_affine([nn.LayerNorm(8) for _ in range(B)])
        fused = load_from_unfused(hops.LayerNorm(B, 8), serial)
        assert_fused_slices_bitwise(fused, serial, (3, 7, 8))

    def test_linear_middle_dims(self):
        fused = hops.Linear(B, 8, 4)
        out = fused(nn.randn(B, 2, 5, 8))
        assert out.shape == (B, 2, 5, 4)

    def test_linear_input_validation(self):
        fused = hops.Linear(B, 8, 4)
        with pytest.raises(ValueError):
            fused(nn.randn(B + 1, 2, 8))
        with pytest.raises(ValueError):
            fused(nn.randn(B, 2, 9))

    def test_batchnorm2d_equivalence_train_and_eval(self):
        serial = randomize_affine([nn.BatchNorm2d(5) for _ in range(B)])
        fused = load_from_unfused(hops.BatchNorm2d(B, 5), serial)
        xs = per_model_inputs((4, 5, 3, 3))
        for training in (True, False):
            for m in serial:
                m.train(training)
            fused.train(training)
            fused_out = fused(hops.fuse_channel(xs))
            assert_slotwise_equal(hops.unfuse_channel(fused_out, B),
                                  [m(x) for m, x in zip(serial, xs)])

    def test_batchnorm_running_stats_per_model(self):
        """Each model's running stats must track only its own activations."""
        fused = hops.BatchNorm1d(B, 2)
        xs = [nn.tensor(np.full((8, 2, 4), float(b), dtype=np.float32))
              for b in range(B)]
        fused(hops.fuse_channel(xs))
        means = fused.running_mean.reshape(B, 2)
        assert means[0].mean() < means[1].mean() < means[2].mean()

    def test_batchnorm1d_batched_layout(self):
        fused = hops.BatchNorm1d(B, 6)
        out = fused(nn.randn(B, 10, 6))
        assert out.shape == (B, 10, 6)

    def test_layernorm_equivalence(self):
        serial = randomize_affine([nn.LayerNorm(8) for _ in range(B)])
        fused = load_from_unfused(hops.LayerNorm(B, 8), serial)
        xs = per_model_inputs((4, 6, 8))
        fused_out = fused(hops.fuse_batch(xs))
        assert_slotwise_equal([fused_out[b] for b in range(B)],
                              [m(x) for m, x in zip(serial, xs)])


class TestFusedEmbeddingPoolingActivation:
    def test_embedding_equivalence_and_offsets(self):
        serial = [nn.Embedding(12, 6, generator=np.random.default_rng(b))
                  for b in range(B)]
        fused = hops.Embedding(B, 12, 6)
        load_from_unfused(fused, serial)
        ids = rng.integers(0, 12, size=(B, 4, 5))
        fused_out = fused(ids)
        assert_slotwise_equal([fused_out[b] for b in range(B)],
                              [m(ids[b]) for b, m in enumerate(serial)])

    def test_embedding_rejects_out_of_range(self):
        fused = hops.Embedding(B, 10, 4)
        with pytest.raises(IndexError):
            fused(np.full((B, 3), 10))

    @pytest.mark.parametrize("pool,shape", [
        (nn.MaxPool2d(2), (2, 3, 8, 8)), (nn.AvgPool2d(2), (2, 3, 8, 8)),
        (nn.AdaptiveAvgPool2d(1), (2, 3, 8, 8)), (nn.MaxPool1d(2), (2, 3, 8))],
        ids=["MaxPool2d", "AvgPool2d", "AdaptiveAvgPool2d", "MaxPool1d"])
    def test_a_serial_pool_on_the_channel_folded_layout_is_the_fused_pool(
            self, pool, shape):
        """Table 6's pooling rows: pooling works per channel, so the serial
        layer over ``[N, B*C, ...]`` is ``B`` serial layers."""
        xs = per_model_inputs(shape)
        assert_slotwise_equal(
            hops.unfuse_channel(pool(hops.fuse_channel(xs)), B),
            [pool(x) for x in xs])

    def test_a_serial_activation_on_the_batched_layout_is_the_fused_one(self):
        """Table 6's activation rows: elementwise (softmax over the last
        axis), so the serial layer over ``[B, N, ...]`` is ``B`` serial
        layers."""
        xs = per_model_inputs((2, 4, 5))
        fused_in = hops.fuse_batch(xs)
        for act in (nn.ReLU(), nn.ReLU6(), nn.LeakyReLU(0.2), nn.Tanh(),
                    nn.Sigmoid(), nn.GELU(), nn.Hardswish(), nn.Hardsigmoid(),
                    nn.Softmax(), nn.LogSoftmax()):
            out = act(fused_in)
            assert_slotwise_equal([out[b] for b in range(B)],
                                  [act(x) for x in xs])

    def test_fused_attention_equivalence(self):
        serial = [nn.TransformerEncoderLayer(8, 2, 16, dropout=0.0,
                                             generator=np.random.default_rng(b))
                  for b in range(B)]
        fused = hops.TransformerEncoderLayer(B, 8, 2, 16, dropout=0.0)
        load_from_unfused(fused, serial)
        xs = per_model_inputs((2, 5, 8))
        fused_out = fused(hops.fuse_batch(xs))
        assert_slotwise_equal([fused_out[b] for b in range(B)],
                              [m(x) for m, x in zip(serial, xs)])


#: layer -> (fused constructor at width B, serial constructor); the
#: transposed conv has C_in != C_out, so its bias bound's fan-in shows
INIT_CASES = {
    "Linear": (lambda g: hops.Linear(B, 10, 7, generator=g),
               lambda g: nn.Linear(10, 7, generator=g)),
    "Conv1d": (lambda g: hops.Conv1d(B, 3, 8, 1, generator=g),
               lambda g: nn.Conv1d(3, 8, 1, generator=g)),
    "Conv2d": (lambda g: hops.Conv2d(B, 4, 6, 3, groups=2, generator=g),
               lambda g: nn.Conv2d(4, 6, 3, groups=2, generator=g)),
    "ConvTranspose2d": (
        lambda g: hops.ConvTranspose2d(B, 6, 4, 4, stride=2, generator=g),
        lambda g: nn.ConvTranspose2d(6, 4, 4, stride=2, generator=g)),
    "Embedding": (lambda g: hops.Embedding(B, 12, 6, generator=g),
                  lambda g: nn.Embedding(12, 6, generator=g)),
}


def slot_params(module, b):
    return [p.data[b] for _, p in module.named_parameters()]


class TestPerModelInit:
    @pytest.mark.parametrize("name", sorted(INIT_CASES))
    def test_slot_b_is_the_serial_layer_built_with_generator_b(self, name):
        build_fused, build_serial = INIT_CASES[name]
        fused = build_fused([np.random.default_rng(b) for b in range(B)])
        for b in range(B):
            serial = build_serial(np.random.default_rng(b))
            want = [p.data for _, p in serial.named_parameters()]
            got = slot_params(fused, b)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), f"slot {b}"

    def test_one_generator_is_drawn_in_slot_order(self):
        build_fused, build_serial = INIT_CASES["Linear"]
        fused = build_fused(np.random.default_rng(7))
        shared = np.random.default_rng(7)
        for b in range(B):
            serial = build_serial(shared)
            for g, (_, w) in zip(slot_params(fused, b),
                                 serial.named_parameters()):
                assert g.tobytes() == w.data.tobytes()

    def test_generator_count_must_match_the_width(self):
        with pytest.raises(ValueError, match="one generator per fused model"):
            hops.Linear(B, 4, 4, generator=[np.random.default_rng(0)] * 2)


class TestLayoutHelpers:
    def test_fuse_unfuse_channel_roundtrip(self):
        xs = per_model_inputs((2, 4, 3, 3))
        back = hops.unfuse_channel(hops.fuse_channel(xs), B)
        for a, b in zip(xs, back):
            np.testing.assert_array_equal(a.data, b.data)

    def test_fuse_unfuse_batch_roundtrip(self):
        xs = per_model_inputs((5, 7))
        back = hops.unfuse_batch(hops.fuse_batch(xs))
        for a, b in zip(xs, back):
            np.testing.assert_array_equal(a.data, b.data)

    def test_channel_batch_layout_conversion_roundtrip(self):
        xs = per_model_inputs((2, 4, 3))
        folded = hops.fuse_channel(xs)
        batched = hops.channel_to_batch(folded, B)
        assert batched.shape == (B, 2, 4, 3)
        back = hops.batch_to_channel(batched)
        np.testing.assert_array_equal(back.data, folded.data)

    def test_unfuse_channel_validates_divisibility(self):
        with pytest.raises(ValueError):
            hops.unfuse_channel(nn.zeros(1, 7, 2, 2), 2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4))
    def test_property_layout_roundtrip(self, b, n, c):
        x = nn.tensor(np.random.default_rng(0).standard_normal(
            (n, b * c, 2)).astype(np.float32))
        roundtrip = hops.batch_to_channel(hops.channel_to_batch(x, b))
        np.testing.assert_array_equal(roundtrip.data, x.data)
