"""Unit tests for the Tensor/autograd core."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.nn.tensor import no_grad


def t64(arr, requires_grad=True):
    return nn.tensor(np.asarray(arr, dtype=np.float64),
                     requires_grad=requires_grad)


class TestConstruction:
    def test_python_scalars_default_to_float32(self):
        assert nn.tensor([1.0, 2.0]).dtype == np.float32

    def test_float64_arrays_preserved(self):
        assert nn.tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_zeros_ones_full(self):
        assert nn.zeros(2, 3).shape == (2, 3)
        assert np.all(nn.ones(4).data == 1.0)
        assert np.all(nn.full((2, 2), 7.0).data == 7.0)

    def test_randn_with_generator_is_deterministic(self):
        a = nn.randn(5, generator=np.random.default_rng(0))
        b = nn.randn(5, generator=np.random.default_rng(0))
        np.testing.assert_array_equal(a.data, b.data)

    def test_len(self):
        assert len(nn.zeros(3, 4)) == 3


class TestArithmeticBackward:
    def test_add_broadcast_backward(self):
        a = t64(np.ones((2, 3)))
        b = t64(np.ones(3))
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_backward(self):
        a = t64([2.0, 3.0])
        b = t64([5.0, 7.0])
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)

    def test_div_backward(self):
        a = t64([4.0])
        b = t64([2.0])
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_pow_backward(self):
        a = t64([3.0])
        (a ** 3).backward()
        np.testing.assert_allclose(a.grad, [27.0])

    def test_matmul_backward(self):
        a = t64(np.random.default_rng(0).standard_normal((3, 4)))
        b = t64(np.random.default_rng(1).standard_normal((4, 5)))
        a.matmul(b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T,
                                   rtol=1e-6)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)),
                                   rtol=1e-6)

    def test_reused_tensor_accumulates_gradient(self):
        a = t64([2.0])
        ((a * a) + a).backward()
        np.testing.assert_allclose(a.grad, [5.0])  # 2a + 1

    def test_scalar_backward_requires_scalar(self):
        a = t64(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        a = nn.tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        a = t64(np.arange(12, dtype=np.float64).reshape(3, 4))
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))

    def test_mean_matches_numpy(self):
        a = t64(np.arange(6, dtype=np.float64).reshape(2, 3))
        np.testing.assert_allclose(a.mean(axis=0).data,
                                   a.data.mean(axis=0))

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).standard_normal((4, 5))
        np.testing.assert_allclose(t64(data).var(axis=1).data,
                                   data.var(axis=1), rtol=1e-6)

    def test_max_backward_routes_to_argmax(self):
        a = t64([[1.0, 5.0, 2.0]])
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis,expected", [
        (None, [[0.0, 0.25, 0.25], [0.25, 0.25, 0.0]]),
        (0, [[0.0, 0.5, 1.0], [1.0, 0.5, 0.0]]),
        (1, [[0.0, 0.5, 0.5], [0.5, 0.5, 0.0]]),
        ((0, 1), [[0.0, 0.25, 0.25], [0.25, 0.25, 0.0]])])
    def test_max_backward_splits_gradient_equally_among_ties(
            self, axis, keepdims, expected):
        """PointNet pools post-ReLU features: all-zero channels tie."""
        a = t64([[0.0, 3.0, 3.0], [3.0, 3.0, 0.0]])
        out = a.max(axis=axis, keepdims=keepdims)
        assert out.shape == a.data.max(axis=axis, keepdims=keepdims).shape
        out.sum().backward()
        np.testing.assert_array_equal(a.grad, expected)

    def test_max_backward_all_equal_row_in_float32(self):
        a = nn.tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
        (a.max(axis=1) * nn.tensor(np.array([1.0, 2.0], dtype=np.float32))
         ).sum().backward()
        assert a.grad.dtype == np.float32
        np.testing.assert_array_equal(a.grad, [[0.25] * 4, [0.5] * 4])

    def test_max_backward_with_and_without_ties_at_arena_size(self):
        def max_grad(data, axis):
            x = nn.tensor(data, requires_grad=True)
            top = x.max(axis=axis)
            g = np.arange(1, top.data.size + 1, dtype=np.float32).reshape(
                top.shape)
            top.backward(g)
            return x.grad, g
        # no ties: every row's gradient lands on its one maximum, unscaled
        data = np.random.default_rng(0).standard_normal(
            (8, 64, 128)).astype(np.float32)
        with nn.Arena().active():
            grad, g = max_grad(data, axis=2)
        expected = np.where(data == data.max(axis=2, keepdims=True),
                            g[..., None], np.float32(0))
        assert np.array_equal(grad, expected)
        # ties share equally; a NaN row (which matches nothing) cannot make
        # a tie elsewhere look like one maximum per row
        tied = np.array([[1, 3, 3], [2, 0, 1], [np.nan, 1, 0]], np.float32)
        with np.errstate(divide="ignore", invalid="ignore"):
            grad, g = max_grad(tied, axis=1)
        np.testing.assert_array_equal(grad[:2], [[0, 0.5, 0.5], [2, 0, 0]])

    def test_reshape_and_permute_backward(self):
        a = t64(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        out = a.permute(2, 0, 1).reshape(4, 6)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 2.0))

    def test_transpose_swaps_dims(self):
        a = nn.zeros(2, 5)
        assert a.transpose(0, 1).shape == (5, 2)

    def test_unsqueeze_squeeze(self):
        a = nn.zeros(3, 4)
        assert a.unsqueeze(1).shape == (3, 1, 4)
        assert a.unsqueeze(1).squeeze(1).shape == (3, 4)

    def test_expand_backward_sums(self):
        a = t64(np.ones((1, 3)))
        a.expand(4, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((1, 3), 4.0))

    def test_getitem_backward_scatters(self):
        a = t64(np.arange(5, dtype=np.float64))
        a[np.array([0, 0, 3])].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 0.0, 1.0, 0.0])

    def test_cat_and_stack_backward(self):
        a, b = t64(np.ones(3)), t64(np.ones(3))
        nn.cat([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        c, d = t64(np.ones(2)), t64(np.ones(2))
        (nn.stack([c, d], axis=0) * 3).sum().backward()
        np.testing.assert_allclose(d.grad, np.full(2, 3.0))


class TestElementwise:
    def test_exp_log_roundtrip_backward(self):
        a = t64([0.5, 1.5])
        a.exp().log().sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0], rtol=1e-6)

    def test_sigmoid_range_and_grad(self):
        a = t64([0.0])
        s = a.sigmoid()
        np.testing.assert_allclose(s.data, [0.5])
        s.sum().backward()
        np.testing.assert_allclose(a.grad, [0.25])

    def test_relu_kills_negative_gradient(self):
        a = t64([-1.0, 2.0])
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])

    def test_clamp_gradient_mask(self):
        a = t64([-2.0, 0.5, 9.0])
        a.clamp(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_abs_gradient_sign(self):
        a = t64([-3.0, 4.0])
        a.abs().sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, 1.0])


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        a = t64([1.0])
        with no_grad():
            out = a * 2 + 1
        assert not out.requires_grad
        assert out._backward is None

    def test_detach_breaks_graph(self):
        a = t64([1.0])
        out = (a * 2).detach()
        assert not out.requires_grad


class TestBackwardConsumesTheGraph:
    """``backward()`` frees each activation once its node has run, and a
    consumed graph cannot be traversed again."""

    def test_activations_die_during_backward_while_the_loss_is_held(self):
        x = t64(np.linspace(-1.0, 1.0, 6))
        hidden = (x * 3.0).relu()
        activation = weakref.ref(hidden.data)
        loss = (hidden * hidden).sum()
        del hidden
        assert activation() is not None      # the graph holds it
        loss.backward()
        assert activation() is None
        assert loss.data.shape == () and x.grad is not None

    def test_a_second_backward_raises(self):
        x = t64([1.0, 2.0])
        loss = (x * x).sum()
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, grad)   # nothing accumulated

    def test_a_graph_reaching_a_consumed_node_raises(self):
        x = t64([1.0, 2.0])
        shared = x * 2.0
        (shared * shared).sum().backward()
        with pytest.raises(RuntimeError, match="consumed"):
            (shared * 3.0).sum().backward()

    def test_a_leaf_is_not_consumed(self):
        x = t64([1.0, 2.0])
        x.backward(np.ones(2))
        x.backward(np.ones(2))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.lists(st.floats(-10, 10), min_size=1, max_size=8))
def test_property_add_commutes(xs, ys):
    """x + y == y + x for arbitrary broadcast-compatible 1-D tensors."""
    n = min(len(xs), len(ys))
    a, b = nn.tensor(xs[:n]), nn.tensor(ys[:n])
    np.testing.assert_allclose((a + b).data, (b + a).data)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5))
def test_property_matmul_shapes(m, n):
    """Matmul output shape follows (m, k) @ (k, n) -> (m, n)."""
    a = nn.zeros(m, 3)
    b = nn.zeros(3, n)
    assert a.matmul(b).shape == (m, n)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=16))
def test_property_softmax_normalizes(xs):
    """softmax output sums to one and is non-negative."""
    from repro.nn import functional as F
    out = F.softmax(nn.tensor(xs)).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-4)
