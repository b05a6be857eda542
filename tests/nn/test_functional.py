"""Gradient checks and behavioural tests for the functional ops."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from ..conftest import numerical_gradient

rng = np.random.default_rng(7)


def t64(shape):
    return nn.tensor(rng.standard_normal(shape), requires_grad=True)


def check_grads(build, params, tol=1e-5):
    """Verify autograd gradients of 0.5*sum(out^2) against finite differences."""
    out = build()
    ((out * out).sum() * 0.5).backward()
    for p in params:
        num = numerical_gradient(
            lambda: float((build().data ** 2).sum()) * 0.5, p)
        np.testing.assert_allclose(p.grad, num, rtol=tol, atol=tol)


class TestConvolutions:
    @pytest.mark.parametrize("stride,padding,groups", [
        (1, 0, 1), (2, 1, 1), (1, 1, 2), (2, 0, 2)])
    def test_conv2d_gradients(self, stride, padding, groups):
        x = t64((2, 4, 6, 6))
        w = t64((6, 4 // groups, 3, 3))
        b = t64((6,))
        check_grads(lambda: F.conv2d(x, w, b, stride, padding, groups=groups),
                    [x, w, b])

    def test_conv2d_output_shape(self):
        x = nn.zeros(1, 3, 8, 8)
        w = nn.zeros(5, 3, 3, 3)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (1, 5, 4, 4)

    def test_conv2d_groups_channel_independence(self):
        """With groups=2, group-0 outputs must not depend on group-1 inputs."""
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        base = F.conv2d(nn.tensor(x), nn.tensor(w), groups=2).data
        x2 = x.copy()
        x2[:, 2:] += 100.0   # perturb only the second group's inputs
        out2 = F.conv2d(nn.tensor(x2), nn.tensor(w), groups=2).data
        np.testing.assert_allclose(base[:, :2], out2[:, :2], rtol=1e-5)
        assert not np.allclose(base[:, 2:], out2[:, 2:])

    def test_conv2d_rejects_bad_groups(self):
        with pytest.raises(ValueError):
            F.conv2d(nn.zeros(1, 3, 4, 4), nn.zeros(4, 3, 3, 3), groups=2)

    def test_conv1d_matches_manual(self):
        x = nn.tensor(rng.standard_normal((2, 3, 10)).astype(np.float32))
        w = nn.tensor(rng.standard_normal((5, 3, 1)).astype(np.float32))
        out = F.conv1d(x, w)
        manual = np.einsum("ncl,oc->nol", x.data, w.data[:, :, 0])
        np.testing.assert_allclose(out.data, manual, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("stride,padding,groups", [(1, 0, 1), (2, 1, 2)])
    def test_conv_transpose2d_gradients(self, stride, padding, groups):
        x = t64((1, 4, 4, 4))
        w = t64((4, 3 // 1 if groups == 1 else 2, 3, 3))
        check_grads(lambda: F.conv_transpose2d(
            x, w, None, stride, padding, groups=groups), [x, w])

    def test_conv_transpose2d_inverts_conv_shape(self):
        x = nn.zeros(1, 8, 5, 5)
        w = nn.zeros(8, 4, 4, 4)
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 4, 10, 10)


def composed_pointwise_conv(x, w, b, groups):
    """Pointwise grouped conv from broadcast multiply + sum primitives."""
    n, c_in = x.shape[:2]
    c_out = w.shape[0]
    x_g = x.reshape(n, groups, 1, c_in // groups, -1)
    w_g = w.reshape(1, groups, c_out // groups, c_in // groups, 1)
    out = (x_g * w_g).sum(axis=3).reshape(n, c_out, *x.shape[2:])
    if b is not None:
        out = out + b.reshape(1, c_out, *([1] * (x.ndim - 2)))
    return out


def conv_for(x):
    return F.conv1d if x.ndim == 3 else F.conv2d


def assert_matches_reference(kernel, reference, make_inputs, tol=1e-6):
    """``kernel`` and the composed ``reference`` agree on float32 values and
    on the gradient of every input under one random output weighting."""
    results = []
    for fn in (kernel, reference):
        inputs = make_inputs()
        out = fn(*inputs)
        weights = np.random.default_rng(3).standard_normal(out.shape)
        (out * nn.tensor(weights.astype(np.float32))).sum().backward()
        results.append((out.data, [t.grad for t in inputs if t is not None]))
    (out, grads), (ref_out, ref_grads) = results
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, ref_out, rtol=tol, atol=tol)
    for grad, ref_grad in zip(grads, ref_grads):
        np.testing.assert_allclose(grad, ref_grad, rtol=tol,
                                   atol=tol * max(1.0, np.abs(ref_grad).max()))


def f32_inputs(seed, *shapes):
    """Factory of identical float32 leaf tensors (``None`` shapes pass)."""
    def make():
        gen = np.random.default_rng(seed)
        return [None if shape is None else nn.tensor(
            gen.standard_normal(shape).astype(np.float32), requires_grad=True)
            for shape in shapes]
    return make


class TestPointwiseConv:
    """kernel 1 / stride 1 / no padding: one batched matmul, no im2col."""

    @pytest.mark.parametrize("spatial", [(9,), (3, 4)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_gradients(self, groups, bias, spatial):
        x = t64((2, 8) + spatial)
        w = t64((12, 8 // groups) + (1,) * len(spatial))
        b = t64((12,)) if bias else None
        conv = conv_for(x)
        check_grads(lambda: conv(x, w, b, groups=groups),
                    [x, w] + ([b] if bias else []))

    @pytest.mark.parametrize("spatial", [(9,), (3, 4)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_matches_composed_primitives(self, groups, bias, spatial):
        make = f32_inputs(11, (2, 8) + spatial,
                          (12, 8 // groups) + (1,) * len(spatial),
                          (12,) if bias else None)
        assert_matches_reference(
            lambda x, w, b: conv_for(x)(x, w, b, groups=groups),
            lambda x, w, b: composed_pointwise_conv(x, w, b, groups), make)

    def test_is_one_graph_node(self):
        x, w = t64((2, 4, 5)), t64((6, 4, 1))
        out = F.conv1d(x, w)
        assert out._op == "conv1d" and set(out._prev) == {x, w}

    def test_fused_groups_run_each_models_own_arithmetic(self):
        """groups=B output blocks are bitwise the B separate groups=1 convs."""
        gen = np.random.default_rng(5)
        xs = [gen.standard_normal((4, 16, 32)).astype(np.float32)
              for _ in range(3)]
        ws = [gen.standard_normal((24, 16, 1)).astype(np.float32)
              for _ in range(3)]
        fused = F.conv1d(nn.tensor(np.concatenate(xs, axis=1)),
                         nn.tensor(np.concatenate(ws, axis=0)), groups=3).data
        for b in range(3):
            alone = F.conv1d(nn.tensor(xs[b]), nn.tensor(ws[b])).data
            np.testing.assert_array_equal(fused[:, 24 * b:24 * (b + 1)], alone)


class TestLinear:
    def test_gradients_3d_input(self):
        x, w, b = t64((3, 5, 4)), t64((6, 4)), t64((6,))
        check_grads(lambda: F.linear(x, w, b), [x, w, b])

    @pytest.mark.parametrize("bias", [True, False])
    def test_gradients_fused_weight(self, bias):
        x, w = t64((2, 3, 5, 4)), t64((2, 6, 4))
        b = t64((2, 6)) if bias else None
        check_grads(lambda: F.linear(x, w, b), [x, w] + [b] * bias)

    def test_is_one_graph_node(self):
        x, w, b = t64((2, 3, 4)), t64((2, 5, 4)), t64((2, 5))
        out = F.linear(x, w, b)
        assert out.shape == (2, 3, 5)
        assert out._op == "linear" and out._prev == (x, w, b)

    def test_rejects_mismatched_input(self):
        with pytest.raises(ValueError):
            F.linear(nn.zeros(3, 5), nn.zeros(6, 4))
        with pytest.raises(ValueError):     # array dim differs from weight's
            F.linear(nn.zeros(3, 2, 4), nn.zeros(2, 6, 4))


class TestPooling:
    def test_max_pool2d_values(self):
        x = nn.tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2, 2)
        np.testing.assert_allclose(out.data.reshape(-1), [5, 7, 13, 15])

    def test_max_pool2d_gradient(self):
        x = t64((1, 2, 4, 4))
        check_grads(lambda: F.max_pool2d(x, 2, 2), [x])

    def test_avg_pool2d_is_mean(self):
        x = nn.tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        np.testing.assert_allclose(F.avg_pool2d(x, 2).data,
                                   np.ones((1, 1, 2, 2)))

    def test_adaptive_avg_pool_global(self):
        x = nn.tensor(rng.standard_normal((2, 3, 5, 5)).astype(np.float32))
        out = F.adaptive_avg_pool2d(x, 1)
        np.testing.assert_allclose(out.data.reshape(2, 3),
                                   x.data.mean(axis=(2, 3)), rtol=1e-5)

    def test_adaptive_avg_pool_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            F.adaptive_avg_pool2d(nn.zeros(1, 1, 5, 5), 2)


class TestNormalization:
    def test_batch_norm_normalizes_training(self):
        x = nn.tensor(rng.standard_normal((64, 8)).astype(np.float32) * 5 + 3)
        out = F.batch_norm(x, None, None, None, None, training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_batch_norm_updates_running_stats(self):
        mean = np.zeros(4, dtype=np.float32)
        var = np.ones(4, dtype=np.float32)
        x = nn.tensor(np.full((8, 4), 10.0, dtype=np.float32))
        F.batch_norm(x, mean, var, None, None, training=True, momentum=0.5)
        assert np.all(mean > 0)

    def test_batch_norm_eval_uses_running_stats(self):
        mean = np.full(4, 2.0, dtype=np.float32)
        var = np.full(4, 4.0, dtype=np.float32)
        x = nn.tensor(np.full((2, 4), 4.0, dtype=np.float32))
        out = F.batch_norm(x, mean, var, None, None, training=False)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-3)

    def test_layer_norm_gradients(self):
        x = t64((3, 6))
        w = t64((6,))
        b = t64((6,))
        check_grads(lambda: F.layer_norm(x, (6,), w, b), [x, w, b], tol=1e-4)

    def test_layer_norm_gradients_two_trailing_dims_no_affine(self):
        x = t64((3, 4, 5))
        mix = nn.tensor(rng.standard_normal((3, 4, 5)))
        check_grads(lambda: F.layer_norm(x, (4, 5)) * mix, [x], tol=1e-4)

    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize("shape", [(6, 5), (4, 5, 7), (3, 5, 4, 2)])
    def test_batch_norm_gradients(self, shape, affine):
        x = t64(shape)
        params = [t64((5,)), t64((5,))] if affine else [None, None]
        mix = nn.tensor(rng.standard_normal(shape))
        check_grads(lambda: F.batch_norm(x, None, None, *params,
                                         training=True) * mix,
                    [x] + [p for p in params if p is not None], tol=1e-4)

    def test_batch_norm_eval_gradients(self):
        x, w, b = t64((4, 5, 7)), t64((5,)), t64((5,))
        mean = rng.standard_normal(5)
        var = rng.random(5) + 0.5
        check_grads(lambda: F.batch_norm(x, mean.copy(), var.copy(), w, b,
                                         training=False), [x, w, b])


# The composed-primitive formulas the single-node kernels replaced: the
# reference every kernel must match to 1e-6 in float32.
def composed_batch_norm(x, running_mean, running_var, weight, bias, training,
                        momentum=0.1, eps=1e-5, channel_axis=1):
    axes = tuple(i for i in range(x.ndim) if i != channel_axis)
    shape = [1] * x.ndim
    shape[channel_axis] = x.shape[channel_axis]
    if training or running_mean is None:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        if running_mean is not None:
            count = int(np.prod([x.shape[a] for a in axes]))
            unbiased = var.data * count / max(count - 1, 1)
            running_mean *= (1 - momentum)
            running_mean += momentum * mean.data.reshape(-1)
            running_var *= (1 - momentum)
            running_var += momentum * unbiased.reshape(-1)
    else:
        mean = nn.tensor(running_mean.reshape(shape))
        var = nn.tensor(running_var.reshape(shape))
    x_hat = (x - mean) / ((var + eps) ** 0.5)
    if weight is not None:
        x_hat = x_hat * weight.reshape(*shape) + bias.reshape(*shape)
    return x_hat


def composed_layer_norm(x, normalized_shape, weight=None, bias=None,
                        eps=1e-5):
    axes = tuple(range(x.ndim - len(normalized_shape), x.ndim))
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    x_hat = (x - mean) / ((var + eps) ** 0.5)
    if weight is not None:
        x_hat = x_hat * weight
    if bias is not None:
        x_hat = x_hat + bias
    return x_hat


def composed_softmax(x, axis=-1):
    e = (x - nn.tensor(x.data.max(axis=axis, keepdims=True))).exp()
    return e / e.sum(axis=axis, keepdims=True)


def composed_log_softmax(x, axis=-1):
    shifted = x - nn.tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


class TestSingleNodeKernelsMatchComposedPrimitives:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize("shape", [(16, 5), (8, 5, 12), (4, 5, 6, 3)])
    def test_batch_norm(self, shape, affine, training):
        start = (np.linspace(-0.5, 0.5, 5).astype(np.float32),
                 np.linspace(0.5, 2.0, 5).astype(np.float32))
        running = {}

        def with_own_stats(fn):
            def call(x, w, b):
                running[fn] = [stat.copy() for stat in start]
                return fn(x, *running[fn], w, b, training, momentum=0.3)
            return call
        param = (5,) if affine else None
        assert_matches_reference(with_own_stats(F.batch_norm),
                                 with_own_stats(composed_batch_norm),
                                 f32_inputs(21, shape, param, param))
        for ours, theirs, before in zip(running[F.batch_norm],
                                        running[composed_batch_norm], start):
            np.testing.assert_allclose(ours, theirs, rtol=1e-6, atol=1e-6)
            assert np.array_equal(ours, before) != training

    def test_batch_norm_without_running_stats_uses_batch_stats(self):
        assert_matches_reference(
            lambda x: F.batch_norm(x, None, None, None, None, False),
            lambda x: composed_batch_norm(x, None, None, None, None, False),
            f32_inputs(22, (8, 3, 6)))

    def test_batch_norm_is_one_graph_node(self):
        x, w, b = t64((4, 3, 5)), t64((3,)), t64((3,))
        out = F.batch_norm(x, None, None, w, b, training=True)
        assert out._op == "batch_norm" and set(out._prev) == {x, w, b}

    @pytest.mark.parametrize("affine", [True, False])
    @pytest.mark.parametrize("normalized", [(7,), (4, 7)])
    def test_layer_norm(self, normalized, affine):
        param = normalized if affine else None
        assert_matches_reference(
            lambda x, w, b: F.layer_norm(x, normalized, w, b),
            lambda x, w, b: composed_layer_norm(x, normalized, w, b),
            f32_inputs(23, (3, 5, 4, 7), param, param))

    @pytest.mark.parametrize("axis", [-1, 1, 0])
    @pytest.mark.parametrize("kernel,reference", [
        (F.softmax, composed_softmax), (F.log_softmax, composed_log_softmax)])
    def test_softmax_family(self, kernel, reference, axis):
        assert_matches_reference(lambda x: kernel(x, axis=axis),
                                 lambda x: reference(x, axis=axis),
                                 f32_inputs(24, (4, 6, 5)))
        x = t64((4, 6, 5))
        out = kernel(x, axis=axis)
        assert set(out._prev) == {x}
        check_grads(lambda: kernel(x, axis=axis), [x])

    def test_log_softmax_forward_is_bitwise_the_composed_order(self):
        """max-shift -> exp -> sum -> log -> subtract, the composed order."""
        x = nn.tensor(rng.standard_normal((32, 10)).astype(np.float32) * 4)
        np.testing.assert_array_equal(F.log_softmax(x, axis=1).data,
                                      composed_log_softmax(x, axis=1).data)


class TestEmbeddingDropoutActivations:
    def test_embedding_lookup_and_grad(self):
        w = t64((10, 4))
        idx = np.array([[1, 2], [2, 3]])
        out = F.embedding(idx, w)
        assert out.shape == (2, 2, 4)
        out.sum().backward()
        assert w.grad[2].sum() == pytest.approx(8.0)  # row 2 used twice
        assert w.grad[0].sum() == 0.0

    def test_dropout_eval_is_identity(self):
        x = nn.tensor(np.ones((4, 4), dtype=np.float32))
        np.testing.assert_array_equal(F.dropout(x, 0.5, training=False).data,
                                      x.data)

    def test_dropout_preserves_expectation(self):
        gen = np.random.default_rng(0)
        x = nn.tensor(np.ones((2000,), dtype=np.float32))
        out = F.dropout(x, 0.25, training=True, generator=gen)
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_dropout2d_zeroes_whole_channels(self):
        gen = np.random.default_rng(0)
        x = nn.tensor(np.ones((4, 8, 3, 3), dtype=np.float32))
        out = F.dropout2d(x, 0.5, training=True, generator=gen).data
        per_channel = out.reshape(4, 8, -1)
        for n in range(4):
            for c in range(8):
                vals = np.unique(per_channel[n, c])
                assert len(vals) == 1  # all-zero or all-scaled

    def test_relu6_clips(self):
        x = nn.tensor(np.array([-1.0, 3.0, 9.0], dtype=np.float32))
        np.testing.assert_allclose(F.relu6(x).data, [0.0, 3.0, 6.0])

    def test_hardswish_known_points(self):
        x = nn.tensor(np.array([-4.0, 0.0, 4.0], dtype=np.float32))
        np.testing.assert_allclose(F.hardswish(x).data, [0.0, 0.0, 4.0])

    def test_gelu_monotone_near_origin(self):
        x = nn.tensor(np.array([-1.0, 0.0, 1.0], dtype=np.float32))
        out = F.gelu(x).data
        assert out[0] < out[1] < out[2]

    def test_leaky_relu_slope(self):
        x = t64((5,))
        out = F.leaky_relu(x, 0.1)
        expected = np.where(x.data > 0, x.data, 0.1 * x.data)
        np.testing.assert_allclose(out.data, expected)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = nn.tensor(rng.standard_normal((4, 5)).astype(np.float32))
        target = np.array([0, 1, 2, 3])
        loss = F.cross_entropy(logits, target)
        probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        manual = -np.log(probs[np.arange(4), target]).mean()
        assert loss.item() == pytest.approx(manual, rel=1e-5)

    def test_nll_loss_reductions(self):
        lp = nn.tensor(np.log(np.full((2, 3), 1 / 3, dtype=np.float32)))
        target = np.array([0, 1])
        assert F.nll_loss(lp, target, "sum").item() == pytest.approx(
            2 * np.log(3), rel=1e-5)
        assert F.nll_loss(lp, target, "mean").item() == pytest.approx(
            np.log(3), rel=1e-5)

    def test_cross_entropy_gradients(self):
        logits = t64((3, 4))
        target = np.array([1, 0, 3])
        loss = F.cross_entropy(logits, target)
        loss.backward()
        probs = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        expected = probs.copy()
        expected[np.arange(3), target] -= 1
        np.testing.assert_allclose(logits.grad, expected / 3, rtol=1e-5,
                                   atol=1e-6)

    def test_mse_loss(self):
        pred = nn.tensor(np.array([1.0, 2.0], dtype=np.float32))
        assert F.mse_loss(pred, np.array([0.0, 0.0])).item() == pytest.approx(2.5)

    def test_bce_loss_bounds(self):
        prob = nn.tensor(np.array([0.9, 0.1], dtype=np.float32))
        loss = F.binary_cross_entropy(prob, np.array([1.0, 0.0]))
        assert loss.item() == pytest.approx(-np.log(0.9), rel=1e-4)

    def test_segmentation_nll_shape(self):
        """nll_loss handles [N, C, P] predictions (PointNet segmentation)."""
        lp = F.log_softmax(nn.tensor(
            rng.standard_normal((2, 5, 7)).astype(np.float32)), axis=1)
        target = rng.integers(0, 5, size=(2, 7))
        loss = F.nll_loss(lp, target)
        assert np.isfinite(loss.item())
