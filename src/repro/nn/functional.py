"""Functional (stateless) neural-network operations.

This module implements the differentiable building blocks that the module
layer (:mod:`repro.nn.modules`) and the HFTA fused operators
(:mod:`repro.hfta.ops`) are built from:

* grouped 1-D / 2-D convolutions and 2-D transposed convolutions (im2col),
* pooling (max, adaptive average),
* normalization (batch norm, layer norm),
* embeddings,
* activations,
* dropout,
* softmax / log-softmax and the common loss functions.

Grouped convolution support is the linchpin of the HFTA reproduction: the
paper's key observation is that horizontally fusing ``B`` independent
``Conv2d`` operators of identical shape is mathematically equivalent to a
single grouped convolution with ``B x G`` groups (Appendix B, Table 6).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from . import arena
from .tensor import Tensor, _accumulate, _make_out, _unbroadcast

__all__ = [
    "conv2d", "conv1d", "conv_transpose2d", "linear",
    "max_pool2d", "adaptive_avg_pool2d", "avg_pool2d",
    "batch_norm", "conv1d_bn", "layer_norm", "embedding", "dropout",
    "relu", "relu6", "leaky_relu", "tanh", "sigmoid", "gelu", "hardswish",
    "hardsigmoid", "softmax", "log_softmax", "attention",
    "cross_entropy", "nll_loss", "nll_per_group", "mse_loss",
    "binary_cross_entropy", "binary_cross_entropy_with_logits",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


# --------------------------------------------------------------------- #
# im2col / col2im helpers
# --------------------------------------------------------------------- #
def _im2col_indices(x_shape, kh, kw, stride, padding, dilation=(1, 1)):
    """Return gather indices (k, i, j) for im2col on an NCHW tensor."""
    n, c, h, w = x_shape
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    out_h = (h + 2 * ph - dh * (kh - 1) - 1) // sh + 1
    out_w = (w + 2 * pw - dw * (kw - 1) - 1) // sw + 1

    i0 = np.repeat(np.arange(kh) * dh, kw)
    i0 = np.tile(i0, c)
    i1 = sh * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw) * dw, kh * c)
    j1 = sw * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return (k, i, j), out_h, out_w


def _im2col(x: np.ndarray, kh, kw, stride, padding, dilation=(1, 1)):
    """Convert an NCHW array into column form [N, C*kh*kw, out_h*out_w]."""
    ph, pw = padding
    x_padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    (k, i, j), out_h, out_w = _im2col_indices(x.shape, kh, kw, stride, padding,
                                              dilation)
    cols = x_padded[:, k, i, j]  # [N, C*kh*kw, out_h*out_w]
    return cols, out_h, out_w


def _col2im(cols: np.ndarray, x_shape, kh, kw, stride, padding,
            dilation=(1, 1)) -> np.ndarray:
    """Scatter-add column form back into an NCHW array (adjoint of im2col)."""
    n, c, h, w = x_shape
    ph, pw = padding
    h_padded, w_padded = h + 2 * ph, w + 2 * pw
    x_padded = np.zeros((n, c, h_padded, w_padded), dtype=cols.dtype)
    (k, i, j), _, _ = _im2col_indices(x_shape, kh, kw, stride, padding,
                                      dilation)
    np.add.at(x_padded, (slice(None), k, i, j), cols)
    if ph == 0 and pw == 0:
        return x_padded
    return x_padded[:, :, ph:h_padded - ph or None, pw:w_padded - pw or None]


# --------------------------------------------------------------------- #
# Convolutions
# --------------------------------------------------------------------- #
def _needs_grad(t: Optional[Tensor]) -> bool:
    return t is not None and (t.requires_grad or t._backward is not None)


def _conv(x: Tensor, weight: Tensor, bias: Optional[Tensor], x_shape, w_shape,
          stride, padding, dilation, groups: int, op: str) -> Tensor:
    """One grouped-convolution node over 4-D views of ``x`` and ``weight``.

    ``x_shape``/``w_shape`` are the operands' NCHW shapes (``conv1d`` passes
    its height-1 lift).  Forward and backward are batched matmuls with the
    groups axis leading, ``[G, C_out/G, K] x [N, G, K, L]``: the ``B`` fused
    models of a ``groups=B`` call run exactly the GEMMs each would run alone.
    A pointwise convolution (kernel 1, stride 1, no padding) is its own column
    matrix, so it gathers nothing forward and scatters nothing backward.
    """
    n, c_in, h, w = x_shape
    c_out, c_in_per_group, kh, kw = w_shape
    if c_in % groups != 0 or c_out % groups != 0:
        raise ValueError(f"channels ({c_in}, {c_out}) not divisible by groups "
                         f"({groups})")
    if c_in_per_group != c_in // groups:
        raise ValueError("weight shape inconsistent with groups: expected "
                         f"C_in/groups={c_in // groups}, got {c_in_per_group}")

    x4 = x.data.reshape(x_shape)
    pointwise = (kh, kw, stride, padding) == (1, 1, (1, 1), (0, 0))
    if pointwise:
        cols, out_h, out_w = x4, h, w
    else:
        cols, out_h, out_w = _im2col(x4, kh, kw, stride, padding, dilation)
    L = out_h * out_w
    k = c_in_per_group * kh * kw
    cols_g = cols.reshape(n, groups, k, L)
    w_g = weight.data.reshape(groups, c_out // groups, k)
    out_g = arena.buffer((n, groups, c_out // groups, L),
                         np.promote_types(w_g.dtype, cols_g.dtype))
    np.matmul(w_g, cols_g, out=out_g)
    if bias is not None:
        out_g += bias.data.reshape(groups, -1, 1)
    spatial = (out_h, out_w) if x.ndim == 4 else (out_w,)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make_out(out_g.reshape((n, c_out) + spatial), parents, op)
    if out.requires_grad:
        def _bw(grad_out):
            g = grad_out.reshape(n, groups, c_out // groups, L)
            # a node's gradient arrives in its output's dtype, the promotion
            # of the operands', so every product below has g's dtype
            per_sample = gx = None
            if _needs_grad(weight):
                per_sample = arena.buffer((n, groups, c_out // groups, k),
                                          g.dtype)
            if _needs_grad(x):
                gx = arena.buffer((n, groups, k, L), g.dtype)
            if per_sample is not None:
                np.matmul(g, cols_g.swapaxes(-1, -2), out=per_sample)
            if gx is not None:
                np.matmul(w_g.swapaxes(-1, -2), g, out=gx)
            if per_sample is not None:
                # the sum over N, each column summed in sample order
                gw = arena.buffer(per_sample.shape[1:], g.dtype)
                per_sample.reshape(n, -1).sum(axis=0, out=gw.reshape(-1))
                _accumulate(weight, gw.reshape(weight.shape))
            if _needs_grad(bias):
                _accumulate(bias, np.einsum("ncl->c", g.reshape(n, c_out, L)))
            if gx is not None:
                if not pointwise:
                    gx = _col2im(gx.reshape(n, c_in * kh * kw, L), x_shape,
                                 kh, kw, stride, padding, dilation)
                _accumulate(x, gx.reshape(x.shape))
        out._backward = _bw
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: IntPair = 1, padding: IntPair = 0, dilation: IntPair = 1,
           groups: int = 1) -> Tensor:
    """2-D convolution with grouping support.

    Parameters follow ``torch.nn.functional.conv2d``:

    * ``x``      — input ``[N, C_in, H, W]``
    * ``weight`` — filters ``[C_out, C_in // groups, kH, kW]``
    * ``bias``   — optional ``[C_out]``
    * ``groups`` — number of blocked connections from input to output
      channels.  ``groups == C_in`` gives a depthwise convolution; HFTA uses
      ``groups = B * g`` to fuse ``B`` models whose original convolutions had
      ``g`` groups.
    """
    return _conv(x, weight, bias, x.shape, weight.shape, _pair(stride),
                 _pair(padding), _pair(dilation), groups, "conv2d")


def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0, dilation: int = 1,
           groups: int = 1) -> Tensor:
    """1-D convolution: :func:`conv2d`'s node on a height-1 view."""
    n, c_in, length = x.shape
    c_out, c_in_per_group, k = weight.shape
    return _conv(x, weight, bias, (n, c_in, 1, length),
                 (c_out, c_in_per_group, 1, k), (1, int(stride)),
                 (0, int(padding)), (1, int(dilation)), groups, "conv1d")


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                     stride: IntPair = 1, padding: IntPair = 0,
                     output_padding: IntPair = 0, groups: int = 1) -> Tensor:
    """2-D transposed ("de-") convolution with grouping support.

    ``weight`` has shape ``[C_in, C_out // groups, kH, kW]`` (PyTorch
    convention).  The forward pass is the adjoint of :func:`conv2d`'s forward
    (a col2im scatter), and the backward pass correspondingly uses im2col.
    """
    stride, padding = _pair(stride), _pair(padding)
    output_padding = _pair(output_padding)
    n, c_in, h, w = x.shape
    c_in_w, c_out_per_group, kh, kw = weight.shape
    if c_in_w != c_in:
        raise ValueError("conv_transpose2d weight C_in mismatch")
    if c_in % groups != 0:
        raise ValueError("C_in not divisible by groups")
    c_out = c_out_per_group * groups
    sh, sw = stride
    ph, pw = padding
    oph, opw = output_padding
    out_h = (h - 1) * sh - 2 * ph + kh + oph
    out_w = (w - 1) * sw - 2 * pw + kw + opw

    L = h * w
    x_g = x.data.reshape(n, groups, c_in // groups, L)
    w_g = weight.data.reshape(groups, c_in // groups, c_out_per_group * kh * kw)
    # cols: [N, G, C_out/G*kh*kw, L] -> [N, C_out*kh*kw, L]
    cols = np.matmul(w_g.swapaxes(-1, -2), x_g).reshape(n, c_out * kh * kw, L)
    out_shape = (n, c_out, out_h, out_w)
    out_data = _col2im(cols, out_shape, kh, kw, stride, padding)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make_out(out_data, parents, "conv_transpose2d")
    if out.requires_grad:
        def _bw(grad_out):
            gcols, _, _ = _im2col(grad_out, kh, kw, stride, padding)
            gcols_g = gcols.reshape(n, groups, c_out_per_group * kh * kw, L)
            if _needs_grad(x):
                _accumulate(x, np.matmul(w_g, gcols_g).reshape(x.shape))
            if _needs_grad(weight):
                gw = np.matmul(x_g, gcols_g.swapaxes(-1, -2)).sum(axis=0)
                _accumulate(weight, gw.reshape(weight.shape))
            if _needs_grad(bias):
                _accumulate(bias, grad_out.sum(axis=(0, 2, 3)))
        out._backward = _bw
    return out


# --------------------------------------------------------------------- #
# Linear algebra
# --------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine transform ``y = x @ W^T + b`` (PyTorch ``Linear`` convention).

    ``weight`` is ``[out, in]`` with ``x`` ``[*, in]``, or ``[B, out, in]``
    for ``B`` fused layers (paper Table 6) with ``x`` ``[B, *, in]`` and
    ``bias`` ``[B, out]``.  One autograd node: the leading dims of ``x``
    flatten into one ``[M, in] @ [in, out]`` GEMM per model, so each slice of
    a fused call runs exactly the GEMM its model runs alone.  The output
    and both gradients come from the arena.
    """
    lead = weight.shape[:-2]                 # () serial, (B,) fused
    out_features, in_features = weight.shape[-2:]
    x_shape = x.shape
    if x_shape[-1] != in_features or x_shape[:len(lead)] != lead:
        raise ValueError(f"linear: input {x_shape} does not match weight "
                         f"{weight.shape}")
    x2 = x.data.reshape(lead + (-1, in_features))
    w = weight.data
    shift = None if bias is None else bias.data.reshape(
        lead + (1, out_features))
    out_data = np.matmul(x2, w.swapaxes(-1, -2), out=arena.empty(
        x2.shape[:-1] + (out_features,),
        np.promote_types(x2.dtype, w.dtype)))
    if shift is not None:
        out_data += shift

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = _make_out(out_data.reshape(x_shape[:-1] + (out_features,)), parents,
                    "linear")
    if out.requires_grad:
        def _bw(grad_out):
            g = grad_out.reshape(out_data.shape)
            # g carries the output's dtype, the promotion of x's and w's
            gx = gw = None
            if _needs_grad(x):
                gx = np.matmul(g, w, out=arena.empty(x2.shape, g.dtype))
            if _needs_grad(weight):
                gw = np.matmul(g.swapaxes(-1, -2), x2,
                               out=arena.empty(weight.shape, g.dtype))
            if gx is not None:
                _accumulate(x, gx.reshape(x_shape))
            if gw is not None:
                _accumulate(weight, gw)
            if _needs_grad(bias):
                _accumulate(bias, g.sum(axis=-2).reshape(bias.shape))
        out._backward = _bw
    return out


# --------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """2-D max pooling over an NCHW tensor."""
    kh, kw = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else (kh, kw)
    padding = _pair(padding)
    n, c, h, w = x.shape

    x_resh = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = _im2col(x_resh, kh, kw, stride, padding)
    # cols: [N*C, kh*kw, L]
    idx = cols.argmax(axis=1)
    L = out_h * out_w
    out_data = np.take_along_axis(cols, idx[:, None, :], axis=1)[:, 0, :]
    out_data = out_data.reshape(n, c, out_h, out_w)

    out = _make_out(out_data, (x,), "max_pool2d")
    if out.requires_grad:
        def _bw(grad_out):
            g = grad_out.reshape(n * c, 1, L)
            gcols = np.zeros_like(cols)
            np.put_along_axis(gcols, idx[:, None, :], g, axis=1)
            gx = _col2im(gcols, x_resh.shape, kh, kw, stride, padding)
            _accumulate(x, gx.reshape(x.shape))
        out._backward = _bw
    return out


def avg_pool2d(x: Tensor, kernel_size: IntPair,
               stride: Optional[IntPair] = None,
               padding: IntPair = 0) -> Tensor:
    """2-D average pooling over an NCHW tensor."""
    kh, kw = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else (kh, kw)
    padding = _pair(padding)
    n, c, h, w = x.shape
    x_resh = x.data.reshape(n * c, 1, h, w)
    cols, out_h, out_w = _im2col(x_resh, kh, kw, stride, padding)
    out_data = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    out = _make_out(out_data, (x,), "avg_pool2d")
    if out.requires_grad:
        L = out_h * out_w

        def _bw(grad_out):
            g = grad_out.reshape(n * c, 1, L) / (kh * kw)
            gcols = np.broadcast_to(g, cols.shape).astype(cols.dtype)
            gx = _col2im(gcols, x_resh.shape, kh, kw, stride, padding)
            _accumulate(x, gx.reshape(x.shape))
        out._backward = _bw
    return out


def adaptive_avg_pool2d(x: Tensor, output_size: IntPair) -> Tensor:
    """Adaptive average pooling producing an exact ``output_size`` map.

    Only the common cases used by the benchmark models are required:
    output sizes that evenly divide the input, plus global pooling ``(1, 1)``.
    """
    oh, ow = _pair(output_size)
    n, c, h, w = x.shape
    if oh == 1 and ow == 1:
        return x.mean(axis=(2, 3), keepdims=True)
    if h % oh != 0 or w % ow != 0:
        raise ValueError("adaptive_avg_pool2d requires the output size to "
                         "divide the input size in this implementation")
    return avg_pool2d(x, kernel_size=(h // oh, w // ow),
                      stride=(h // oh, w // ow))


# --------------------------------------------------------------------- #
# Normalization
# --------------------------------------------------------------------- #
def _sum_over(a: np.ndarray, axes: Tuple[int, ...],
              b: Optional[np.ndarray] = None) -> np.ndarray:
    """``a.sum(axes, keepdims=True)`` — of ``a * b`` when ``b`` is given — in
    one pass over the operands, with no full-size temporary."""
    letters = "abcdefghijklmnop"[:a.ndim]      # one einsum subscript per axis
    kept = "".join(c for i, c in enumerate(letters) if i not in axes)
    operands = (a,) if b is None else (a, b)
    out = np.einsum(",".join([letters] * len(operands)) + "->" + kept,
                    *operands)
    return out.reshape([1 if i in axes else d for i, d in enumerate(a.shape)])


def _centre(data: np.ndarray, xc: np.ndarray, mean: np.ndarray,
            var: np.ndarray, axes: Tuple[int, ...], count: int) -> None:
    """Batch statistics of one channel range: ``mean``, ``x_c = data -
    mean`` into ``xc`` (which may be ``data`` itself) and ``var = sum(x_c^2)
    / count``."""
    np.multiply(_sum_over(data, axes), 1.0 / count, out=mean)
    np.subtract(data, mean, out=xc)
    np.multiply(_sum_over(xc, axes, xc), 1.0 / count, out=var)


def _update_running(running_mean: np.ndarray, running_var: np.ndarray,
                    mean: np.ndarray, var: np.ndarray, count: int,
                    momentum: float) -> None:
    """Fold a batch's statistics into the running ones, in place, with the
    unbiased variance."""
    unbiased = var * count / max(count - 1, 1)
    running_mean *= (1 - momentum)
    running_mean += momentum * mean.reshape(-1)
    running_var *= (1 - momentum)
    running_var += momentum * unbiased.reshape(-1)


def _batch_norm_dx(g, xc, rstd, scale, sum_g, sum_gxc, count: int,
                   out: np.ndarray, tmp: Optional[np.ndarray] = None) -> None:
    """Batch norm's input gradient of one channel range into ``out``:
    ``scale * (g - (x_c * rstd^2 * sum(g x_c) / count + sum(g) / count))``.
    The bracket goes to ``tmp``, a new array by default; ``tmp`` may be
    ``out`` unless ``g`` is."""
    tmp = np.multiply(xc, rstd * rstd * sum_gxc * (1.0 / count), out=tmp)
    tmp += sum_g * (1.0 / count)
    np.subtract(g, tmp, out=out)
    out *= scale


def batch_norm(x: Tensor, running_mean: Optional[np.ndarray],
               running_var: Optional[np.ndarray], weight: Optional[Tensor],
               bias: Optional[Tensor], training: bool, momentum: float = 0.1,
               eps: float = 1e-5, channel_axis: int = 1) -> Tensor:
    """Batch normalization over all axes except ``channel_axis``.

    Supports the layouts used by ``BatchNorm1d`` (``[N, C]`` / ``[N, C, L]``)
    and ``BatchNorm2d`` (``[N, C, H, W]``).  Running statistics are plain
    numpy arrays owned by the calling module and are updated in place when
    ``training`` is true.

    One autograd node: backward keeps the centered input and ``rstd`` and
    applies ``dx = scale * (g - mean(g) - x_c * rstd^2 * mean(g * x_c))``.
    """
    data = x.data
    channel_axis %= data.ndim
    axes = tuple(i for i in range(data.ndim) if i != channel_axis)
    channels = data.shape[channel_axis]
    shape = [1] * data.ndim
    shape[channel_axis] = channels
    batch_stats = training or running_mean is None
    if batch_stats:
        count = data.size // channels
        mean, var = np.empty(shape, data.dtype), np.empty(shape, data.dtype)
        xc = arena.buffer(data.shape, data.dtype)
        _centre(data, xc, mean, var, axes, count)
        if running_mean is not None:
            _update_running(running_mean, running_var, mean, var, count,
                            momentum)
    else:
        xc = data - running_mean.reshape(shape)
        var = running_var.reshape(shape)
    rstd = 1.0 / np.sqrt(var + eps)
    scale = rstd if weight is None else rstd * weight.data.reshape(shape)
    shift = None if bias is None else bias.data.reshape(shape)
    out_data = np.multiply(xc, scale, out=arena.buffer(
        xc.shape, np.promote_types(xc.dtype, scale.dtype)))
    if shift is not None:
        out_data += shift

    parents = tuple(p for p in (x, weight, bias) if p is not None)
    out = _make_out(out_data, parents, "batch_norm")
    if out.requires_grad:
        def _bw(g):
            # g has the output's dtype, which xc's promotes to
            sum_g, sum_gxc = np.empty(shape, g.dtype), np.empty(shape, g.dtype)
            gx = None
            if batch_stats and _needs_grad(x):
                gx = arena.buffer(xc.shape, g.dtype)
            sum_g[...] = _sum_over(g, axes)
            sum_gxc[...] = _sum_over(g, axes, xc)
            if gx is not None:
                _batch_norm_dx(g, xc, rstd, scale, sum_g, sum_gxc, count, gx,
                               tmp=gx)
            if _needs_grad(weight):
                _accumulate(weight, (sum_gxc * rstd).reshape(weight.shape))
            if _needs_grad(bias):
                _accumulate(bias, sum_g.reshape(bias.shape))
            if _needs_grad(x):
                _accumulate(x, g * scale if gx is None else gx)
        out._backward = _bw
    return out


#: bytes of one channel chunk of :func:`conv1d_bn`'s batch-norm backward and
#: of its ``global_max`` stage
_CHUNK_BYTES = 256 * 1024


def _channel_chunks(channels: int, step: int):
    """``(slice(None), slice(c0, c1))`` over ``channels`` channels, ``step``
    at a time."""
    for c0 in range(0, channels, step):
        yield slice(None), slice(c0, min(c0 + step, channels))


def conv1d_bn(x: Tensor, weight: Tensor, bias: Optional[Tensor],
              bn_weight: Optional[Tensor], bn_bias: Optional[Tensor],
              running_mean: Optional[np.ndarray],
              running_var: Optional[np.ndarray], training: bool,
              momentum: float = 0.1, eps: float = 1e-5, groups: int = 1,
              relu: bool = False, global_max: bool = False) -> Tensor:
    """A pointwise (kernel-1) grouped ``conv1d``, then :func:`batch_norm`
    over its channels, then (``relu=True``) a ReLU, then (``global_max=
    True``) the max over the ``L`` points: one autograd node.

    ``x`` is ``[N, C_in, L]``; the output is ``[N, C_out, L]``, or ``[N,
    C_out]`` with ``global_max``.  ``weight`` holds ``C_out x C_in/groups``
    values and ``bias`` and the batch-norm operands ``C_out``, in any shape
    (a fused ``[B, C, ...]`` parameter needs no reshape node): each gets its
    gradient in its own shape.

    The convolution's output buffer never becomes a tensor: batch norm
    centres it in place, and the affine and the ReLU run in place in the
    output buffer, so besides the output (the next node's input) the node
    keeps only the centred input and per-channel ``rstd`` and scale.
    Backward reads the ReLU mask off the output (``out > 0`` exactly where
    the affine was) and runs batch norm's passes channel chunk by chunk,
    with chunk-sized temporaries.  With ``global_max`` no ``[N, C_out, L]``
    output exists: forward runs the affine, the ReLU and the max a channel
    chunk at a time, and backward recomputes each chunk's block output from
    the centred input with forward's own operations, so its tie mask
    ``out == max`` and ReLU mask are forward's.  Every element gets the
    operations of :func:`conv1d`, :func:`batch_norm`, ``Tensor.relu`` and
    ``Tensor.max`` in their order (a row's share of its maximum's gradient
    is ``(g / ties).astype(dtype)``, which is ``g`` for one tie and NaN for
    a NaN row, as in ``Tensor.max``), so outputs, running statistics and
    gradients are bitwise the separate nodes'.
    """
    n, c_in, length = x.shape
    if c_in % groups:
        raise ValueError(f"channels ({c_in}) not divisible by groups "
                         f"({groups})")
    k = c_in // groups
    c_out = weight.size // k
    m = c_out // groups                      # output channels per group
    if m * groups * k != weight.size:
        raise ValueError(f"weight of {weight.size} values does not fit "
                         f"{groups} groups of {k} input channels")
    # the reshapes of conv1d's height-1 lift, so the GEMMs see its strides
    cols_g = x.data.reshape(n, c_in, 1, length).reshape(n, groups, k, length)
    w_g = weight.data.reshape(groups, m, k)
    xc = arena.buffer((n, c_out, length),
                      np.promote_types(w_g.dtype, cols_g.dtype))
    xc_g = xc.reshape(n, groups, m, length)
    shape, axes, count = (1, c_out, 1), (0, 2), n * length
    batch_stats = training or running_mean is None
    if batch_stats:
        mean, var = np.empty(shape, xc.dtype), np.empty(shape, xc.dtype)
    else:
        mean, var = running_mean.reshape(shape), running_var.reshape(shape)
    rstd = np.empty(shape, var.dtype)      # the dtype 1 / sqrt(var + eps) has
    gamma = None if bn_weight is None else bn_weight.data.reshape(shape)
    shift = None if bn_bias is None else bn_bias.data.reshape(shape)
    scale = rstd if gamma is None else np.empty(
        shape, np.promote_types(rstd.dtype, gamma.dtype))
    dtype = np.promote_types(xc.dtype, scale.dtype)
    out_data = arena.buffer((n, c_out) if global_max else xc.shape, dtype)
    step = max(1, _CHUNK_BYTES // (n * length * dtype.itemsize))

    def block(c, out=None):
        """The block output of channels ``c``: the affine, then the ReLU."""
        out_c = np.multiply(xc[c], scale[c], out=out)
        if shift is not None:
            out_c += shift[c]
        if relu:
            np.maximum(out_c, 0.0, out=out_c)
        return out_c

    np.matmul(w_g, cols_g, out=xc_g)
    if bias is not None:
        xc_g += bias.data.reshape(groups, m, 1)
    if batch_stats:
        _centre(xc, xc, mean, var, axes, count)
    else:
        np.subtract(xc, mean, out=xc)
    rstd[...] = 1.0 / np.sqrt(var + eps)
    if gamma is not None:
        np.multiply(rstd, gamma, out=scale)
    if not global_max:
        block((slice(None), slice(None)), out=out_data)
    else:
        for chunk in _channel_chunks(c_out, step):
            np.max(block(chunk), axis=2, out=out_data[chunk])
    if batch_stats and running_mean is not None:
        _update_running(running_mean, running_var, mean, var, count, momentum)

    parents = tuple(p for p in (x, weight, bias, bn_weight, bn_bias)
                    if p is not None)
    out = _make_out(out_data, parents,
                    "conv1d_bn_max" if global_max else "conv1d_bn")
    if out.requires_grad:
        def _bw(g):
            # g has the output's dtype, so every product below has g's
            sum_g, sum_gxc = np.empty(shape, g.dtype), np.empty(shape, g.dtype)
            per_sample = gw = gx = gbias = None
            dx = arena.buffer(xc.shape, g.dtype)
            dx_g = dx.reshape(xc_g.shape)
            if _needs_grad(weight):
                per_sample = arena.buffer((n, groups, m, k), g.dtype)
                gw = arena.buffer(weight.shape, g.dtype)
            if _needs_grad(x):
                gx = arena.buffer(x.shape, g.dtype)
                gx_g = gx.reshape(cols_g.shape)
            if _needs_grad(bias):
                gbias = np.empty(c_out, g.dtype)

            def block_grad(c):
                """The gradient at the block output of channels ``c`` —
                with ``global_max``, Tensor.max's share at each row's ties
                — times the ReLU's mask, in dx's buffer (or ``g``'s)."""
                if not global_max:
                    if not relu:
                        return g[c]
                    return np.multiply(g[c], out_data[c] > 0, out=dx[c])
                out_c = block(c)
                mask = np.equal(out_c, out_data[c][..., None])
                ties = np.count_nonzero(mask, axis=2, keepdims=True)
                share = (g[c][..., None] / ties).astype(dtype, copy=False)
                g_c = np.multiply(mask, share, out=dx[c])
                if relu:
                    np.multiply(g_c, out_c > 0, out=g_c)
                return g_c

            def batch_norm_backward(c):
                g_c, xc_c, dx_c = block_grad(c), xc[c], dx[c]
                sum_g[c] = _sum_over(g_c, axes)
                sum_gxc[c] = _sum_over(g_c, axes, xc_c)
                if batch_stats:
                    _batch_norm_dx(g_c, xc_c, rstd[c], scale[c], sum_g[c],
                                   sum_gxc[c], count, dx_c)
                else:
                    np.multiply(g_c, scale[c], out=dx_c)

            # batch norm's passes channel chunk by chunk: a chunk's
            # temporaries stay small and its operands in cache
            for chunk in _channel_chunks(c_out, step):
                batch_norm_backward(chunk)
            if gbias is not None:
                gbias[:] = np.einsum("ncl->c", dx)
            if per_sample is not None:
                np.matmul(dx_g, cols_g.swapaxes(-1, -2), out=per_sample)
                # the sum over N, each column summed in sample order
                per_sample.reshape(n, -1).sum(axis=0, out=gw.reshape(-1))
            if gx is not None:
                np.matmul(w_g.swapaxes(-1, -2), dx_g, out=gx_g)
            if _needs_grad(bn_weight):
                _accumulate(bn_weight,
                            (sum_gxc * rstd).reshape(bn_weight.shape))
            if _needs_grad(bn_bias):
                _accumulate(bn_bias, sum_g.reshape(bn_bias.shape))
            if gw is not None:
                _accumulate(weight, gw)
            if gbias is not None:
                _accumulate(bias, gbias.reshape(bias.shape))
            if gx is not None:
                _accumulate(x, gx)
        out._backward = _bw
    return out


def _out_for(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """An arena ``out=`` buffer for an elementwise ``a (op) b``."""
    return arena.empty(np.broadcast_shapes(a.shape, b.shape),
                       np.result_type(a, b))


def layer_norm(x: Tensor, normalized_shape: Tuple[int, ...],
               weight: Optional[Tensor] = None, bias: Optional[Tensor] = None,
               eps: float = 1e-5, residual: Optional[Tensor] = None) -> Tensor:
    """Layer normalization over the trailing ``normalized_shape`` dims.

    ``weight``/``bias`` broadcast against ``x``: ``normalized_shape`` for one
    layer, ``[B, 1, ..., 1, *normalized_shape]`` for ``B`` fused layers (paper
    Table 6).  One autograd node: backward keeps ``x_hat`` and ``rstd`` and
    applies ``dx = rstd * (gw - mean(gw) - x_hat * mean(gw * x_hat))``, ``gw``
    the incoming gradient times ``weight``; a parameter's gradient is summed
    in one pass over the axes where the parameter has size 1.

    ``residual`` normalizes ``x + residual`` in the same node, a post-norm
    block's ``norm(x + sublayer(x))``: the sum is formed in the buffer that
    becomes ``x_hat``, so no sum is kept, and backward hands ``dx`` to ``x``
    and then to ``residual``, as the sum's own node did.
    """
    data = x.data
    if residual is not None:
        data = np.add(data, residual.data, out=_out_for(data, residual.data))
    axes = tuple(range(data.ndim - len(normalized_shape), data.ndim))
    inv_count = 1.0 / int(np.prod(normalized_shape))
    mean = _sum_over(data, axes) * inv_count
    x_hat = np.subtract(data, mean,
                        out=data if residual is not None else
                        _out_for(data, mean))
    rstd = 1.0 / np.sqrt(_sum_over(x_hat, axes, x_hat) * inv_count + eps)
    x_hat *= rstd
    out_data = x_hat
    if weight is not None:
        out_data = np.multiply(x_hat, weight.data,
                               out=_out_for(x_hat, weight.data))
    if bias is not None:
        out_data = np.add(out_data, bias.data,
                          out=_out_for(out_data, bias.data))

    parents = tuple(p for p in (x, residual, weight, bias) if p is not None)
    out = _make_out(out_data, parents, "layer_norm")
    if out.requires_grad:
        def _param_grad(p, g, b=None):
            shape = (1,) * (x_hat.ndim - p.ndim) + p.shape
            broadcast = tuple(i for i, d in enumerate(shape) if d == 1)
            return _sum_over(g, broadcast, b).reshape(p.shape)

        def _bw(g):
            if _needs_grad(weight):
                _accumulate(weight, _param_grad(weight, g, x_hat))
            if _needs_grad(bias):
                _accumulate(bias, _param_grad(bias, g))
            if _needs_grad(x) or _needs_grad(residual):
                gw = g if weight is None else np.multiply(
                    g, weight.data, out=_out_for(g, weight.data))
                gx = np.multiply(x_hat, _sum_over(gw, axes, x_hat) * inv_count,
                                 out=arena.empty(x_hat.shape,
                                                 np.result_type(x_hat, gw)))
                gx += _sum_over(gw, axes) * inv_count
                np.subtract(gw, gx, out=gx)
                gx *= rstd
                for p in (x, residual):
                    if _needs_grad(p):
                        _accumulate(p, _unbroadcast(gx, p.shape))
        out._backward = _bw
    return out


# --------------------------------------------------------------------- #
# Embedding
# --------------------------------------------------------------------- #
#: ``np.add.at`` over ``[n, dim]`` rows costs about the same per element
#: (~9 ns on a 2-core x86 VM, numpy 2.4); one occurrence round costs about
#: as much as ``_ROUND_COST`` of those elements, and sorting and ranking the
#: ids about ``_ROW_COST`` per row.
_ROUND_COST, _ROW_COST = 512, 16


def _add_in_rounds(out: np.ndarray, ids: np.ndarray,
                   rows: np.ndarray) -> None:
    """``np.add.at(out, ids, rows)`` for a 1-D ``ids``, bitwise, in
    occurrence rounds: round ``k`` adds each id's ``k``-th row with one
    fancy-indexed ``+=``, in which no id repeats.  Each row of ``out`` so
    still sums its rows in occurrence order, ``((0 + r_a) + r_b) + ...``,
    in as many rounds as the most frequent id has rows."""
    if not len(ids):
        return
    order = np.argsort(ids, kind="stable")      # each id's rows in order
    run = np.empty(len(ids), bool)
    run[0] = True
    np.not_equal(ids[order[1:]], ids[order[:-1]], out=run[1:])
    starts = np.flatnonzero(run)
    rank = np.arange(len(ids)) - np.repeat(starts,
                                           np.diff(starts, append=len(ids)))
    by_round = order[np.argsort(rank, kind="stable")]
    lo = 0
    for size in np.bincount(rank):
        pick = by_round[lo:lo + size]
        out[ids[pick]] += rows[pick]
        lo += size


def _round_budget(num_rows: int, dim: int) -> int:
    """The most occurrence rounds that still beat ``np.add.at`` over
    ``[num_rows, dim]`` rows: none for rows of ``_ROW_COST`` elements or
    fewer."""
    return num_rows * (dim - _ROW_COST) // _ROUND_COST


def _scatter_add_rows(out: np.ndarray, ids: np.ndarray,
                      rows: np.ndarray) -> None:
    """``np.add.at(out, ids, rows)`` for a 1-D non-negative ``ids`` and
    ``[n, dim]`` ``rows``, bitwise, by the cheaper form.  The occurrence
    rounds' cost grows with the most frequent id's count, ``np.add.at``'s
    with ``n * dim``: token and position ids of a language-model batch
    scatter in rounds, while one id repeated through a batch (BERT's default
    all-zero segment ids, a padding id) over narrow rows keeps
    ``np.add.at``."""
    budget = _round_budget(*rows.shape)
    if budget >= 1 and np.bincount(ids).max() <= budget:
        _add_in_rounds(out, ids, rows)
    else:
        np.add.at(out, ids, rows)


def embedding(indices: Union[Tensor, np.ndarray], weight: Tensor) -> Tensor:
    """Look up rows of ``weight`` (``[num_embeddings, dim]``) by ``indices``.

    An id outside ``[0, num_embeddings)`` raises ``IndexError`` (numpy's
    indexing would wrap a negative one), as the fused ``Embedding`` does.
    """
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    idx = idx.astype(np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= weight.shape[0]):
        raise IndexError("embedding index out of range")
    out_data = weight.data[idx]
    out = _make_out(out_data, (weight,), "embedding")
    if out.requires_grad:
        def _bw(grad_out):
            gw = np.zeros_like(weight.data)
            _scatter_add_rows(gw, idx.reshape(-1),
                              grad_out.reshape(-1, weight.shape[-1]))
            _accumulate(weight, gw)
        out._backward = _bw
    return out


# --------------------------------------------------------------------- #
# Dropout
# --------------------------------------------------------------------- #
def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            generator: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero each element with probability ``p``."""
    if not training or p <= 0.0:
        return x
    rng = generator if generator is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def dropout2d(x: Tensor, p: float = 0.5, training: bool = True,
              generator: Optional[np.random.Generator] = None) -> Tensor:
    """Channel-wise dropout for NCHW tensors (zeroes entire feature maps)."""
    if not training or p <= 0.0:
        return x
    rng = generator if generator is not None else np.random.default_rng()
    n, c = x.shape[:2]
    mask = (rng.random((n, c) + (1,) * (x.ndim - 2)) >= p)
    mask = mask.astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


# --------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    return x.relu()


def relu6(x: Tensor) -> Tensor:
    return x.clamp(0.0, 6.0)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    out_data = np.where(x.data > 0, x.data, negative_slope * x.data)
    out = _make_out(out_data, (x,), "leaky_relu")
    if out.requires_grad:
        scale = np.where(x.data > 0, 1.0, negative_slope).astype(x.data.dtype)

        def _bw(g):
            _accumulate(x, g * scale)
        out._backward = _bw
    return out


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as used by BERT)."""
    c = math.sqrt(2.0 / math.pi)
    inner = (x + x ** 3 * 0.044715) * c
    return x * 0.5 * (inner.tanh() + 1.0)


def hardsigmoid(x: Tensor) -> Tensor:
    """Piecewise-linear sigmoid used by MobileNetV3: ``relu6(x + 3) / 6``."""
    return relu6(x + 3.0) * (1.0 / 6.0)


def hardswish(x: Tensor) -> Tensor:
    """``x * relu6(x + 3) / 6`` — MobileNetV3's h-swish activation."""
    return x * hardsigmoid(x)


# --------------------------------------------------------------------- #
# Softmax and losses
# --------------------------------------------------------------------- #
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """One node; backward is ``p * (g - sum(g * p))`` from the saved ``p``."""
    probs = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    probs /= probs.sum(axis=axis, keepdims=True)
    out = _make_out(probs, (x,), "softmax")
    if out.requires_grad:
        axes = (axis % probs.ndim,)

        def _bw(g):
            gx = g - _sum_over(g, axes, probs)
            gx *= probs
            _accumulate(x, gx)
        out._backward = _bw
    return out


def _heads(a: np.ndarray, num_heads: int) -> np.ndarray:
    """``[..., L, E]`` as the ``[..., H, L, E / H]`` view of its heads."""
    *lead, length, embed = a.shape
    return a.reshape(*lead, length, num_heads,
                     embed // num_heads).swapaxes(-2, -3)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
              attn_mask: Optional[np.ndarray] = None, dropout: float = 0.0,
              training: bool = True,
              generator: Optional[np.random.Generator] = None) -> Tensor:
    """Multi-head scaled dot-product attention,
    ``softmax(q_h k_h^T / sqrt(D) + attn_mask) v_h`` per head ``h``.

    ``q`` is ``[..., Lq, E]`` and ``k``, ``v`` are ``[..., Lk, E]`` — the
    projections' outputs, ``...`` being ``[N]`` for one layer and
    ``[B, N]`` for ``B`` fused ones — and the result, the heads side by
    side, is ``[..., Lq, E]``.  ``attn_mask`` is an additive float mask
    that broadcasts to the scores, ``[..., H, Lq, Lk]`` (``-inf`` forbids a
    position); any other dtype raises ``TypeError`` (a boolean mask would
    otherwise add ``1.0``).  With ``training`` and ``dropout > 0``, each
    attention weight is zeroed with probability ``dropout`` by
    :func:`dropout`'s draw from ``generator``.

    One autograd node.  The scores are scaled, masked and softmaxed in
    place in one buffer, and the product with ``v`` is written straight
    into the ``[..., Lq, E]`` output, so the node keeps only its parents,
    the probabilities and the dropout mask.  Every GEMM runs on the operand
    views of the composition it replaces (``matmul``, ``* s``, ``+ mask``,
    :func:`softmax`, :func:`dropout`, ``matmul``, the heads' permutes and
    reshapes), so its results are bitwise the composition's.
    """
    mask = None
    if attn_mask is not None:
        mask = np.asarray(attn_mask)
        if not np.issubdtype(mask.dtype, np.floating):
            raise TypeError(f"attn_mask must be an additive float mask, got "
                            f"{mask.dtype}")
        mask = mask.astype(np.float32, copy=False)
    *lead, lq, embed = q.shape
    lk = k.shape[-2]
    scores_shape = (*lead, num_heads, lq, lk)
    if mask is not None and np.broadcast_shapes(
            mask.shape, scores_shape) != scores_shape:
        raise ValueError(f"attn_mask of shape {mask.shape} does not "
                         f"broadcast to the scores, {scores_shape}")
    q4, k4, v4 = (_heads(t.data, num_heads) for t in (q, k, v))
    scale = np.float32(1.0 / math.sqrt(embed // num_heads))
    probs = np.matmul(q4, k4.swapaxes(-1, -2), out=arena.empty(
        scores_shape, np.result_type(q4, k4)))
    probs *= scale
    if mask is not None:
        probs += mask
    np.subtract(probs, probs.max(axis=-1, keepdims=True), out=probs)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = None
    if training and dropout > 0.0:
        rng = generator if generator is not None else np.random.default_rng()
        keep = (rng.random(probs.shape) >= dropout).astype(probs.dtype)
        keep /= 1.0 - dropout

    def weights():
        """The attention weights ``v`` is multiplied by: the probabilities,
        after dropout."""
        if keep is None:
            return probs
        return np.multiply(probs, keep, out=arena.empty(probs.shape,
                                                        probs.dtype))
    dtype = np.result_type(probs, v4)
    out_data = arena.buffer((*lead, lq, embed), dtype)
    np.matmul(weights(), v4, out=_heads(out_data, num_heads))

    out = _make_out(out_data, (q, k, v), "attention")
    if out.requires_grad:
        def _bw(g):
            g4 = _heads(g, num_heads)
            gs = np.matmul(g4, v4.swapaxes(-1, -2),
                           out=arena.empty(probs.shape, g.dtype))
            if _needs_grad(v):
                gv = arena.buffer(v.shape, g.dtype)
                np.matmul(weights().swapaxes(-1, -2), g4,
                          out=_heads(gv, num_heads))
                _accumulate(v, gv)
            if keep is not None:
                gs *= keep
            np.subtract(gs, _sum_over(gs, (gs.ndim - 1,), probs), out=gs)
            gs *= probs
            gs *= scale
            if _needs_grad(q):
                gq = arena.buffer(q.shape, g.dtype)
                np.matmul(gs, k4, out=_heads(gq, num_heads))
                _accumulate(q, gq)
            if _needs_grad(k):
                # k's gradient transposed, then transposed back
                gkt = np.matmul(q4.swapaxes(-1, -2), gs, out=arena.empty(
                    (*lead, num_heads, embed // num_heads, lk), g.dtype))
                gk = arena.buffer(k.shape, g.dtype)
                np.copyto(_heads(gk, num_heads), gkt.swapaxes(-1, -2))
                _accumulate(k, gk)
        out._backward = _bw
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """One node; backward is ``g - softmax(x) * sum(g)``.

    The forward is max-shift -> exp -> sum -> log -> subtract, row by row
    along ``axis``: a fused cross entropy runs it over the last axis of
    ``[B, N, C]`` and gets each model's rows bit for bit as serial.
    """
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(out_data)
    total = exps.sum(axis=axis, keepdims=True)
    out_data -= np.log(total)
    out = _make_out(out_data, (x,), "log_softmax")
    if out.requires_grad:
        def _bw(g):
            gx = exps * (g.sum(axis=axis, keepdims=True) / total)
            np.subtract(g, gx, out=gx)
            _accumulate(x, gx)
        out._backward = _bw
    return out


def nll_per_group(x: Tensor, target: Union[Tensor, np.ndarray],
                  from_logits: bool = False) -> Tensor:
    """Each group's mean negative log-likelihood over a trailing class axis.

    ``x`` is ``[G, ..., C]`` log-probabilities (logits with
    ``from_logits=True``: cross entropy) and ``target`` the ``[G, ...]``
    class indices; the result is ``[G]``, one mean per group — a fused
    criterion's per-model losses.  One node (:func:`_nll_node`).
    """
    return _nll_node(x, target, from_logits, grouped=True)


def _nll_node(x: Tensor, target: Union[Tensor, np.ndarray],
              from_logits: bool, grouped: bool) -> Tensor:
    """One node for (log-softmax →) pick at the target → negate → mean.

    ``grouped``: ``[G, ..., C] -> [G]``; else ``[N, C] -> []``, the serial
    ``reduction="mean"`` loss as one group.  Every element gets the
    operations of the composition it replaces, in their order:
    :func:`log_softmax` over the last axis, ``-picked``, and
    ``Tensor.mean``'s ``sum * fl32(1 / M)`` over each group's ``M`` rows.
    Backward writes the input's gradient directly: what the composition's
    scatter left, ``0.0 + -(g * fl32(1 / M))`` at each row's target and
    ``0.0`` elsewhere (``+0.0`` even for a zero ``g``), and for logits
    :func:`log_softmax`'s ``g - exp(shifted) * Σg / total`` of it, whose
    row sum ``Σg`` is that one entry.
    """
    data = x.data
    if from_logits:
        lp = data - data.max(axis=-1, keepdims=True)
        exps = np.exp(lp)
        total = exps.sum(axis=-1, keepdims=True)
        lp -= np.log(total)
    else:
        lp = data
    groups = lp.shape[0] if grouped else 1
    rows = lp.reshape(groups, -1, lp.shape[-1])
    shape = rows.shape          # backward keeps no log-probabilities
    count = shape[1]
    tgt = target.data if isinstance(target, Tensor) else np.asarray(target)
    index = (np.arange(groups)[:, None], np.arange(count),
             tgt.astype(np.int64).reshape(groups, count))
    scale = np.float32(1.0 / count)    # Tensor.mean's Tensor(1.0 / M)
    losses = np.negative(rows[index]).sum(axis=-1) * scale
    out = _make_out(losses if grouped else losses.reshape(()), (x,),
                    "cross_entropy" if from_logits else "nll")
    if out.requires_grad:
        def _bw(g):
            d_pick = np.negative(np.reshape(g, (groups,)) * scale)
            d_pick = np.add(0.0, d_pick)[:, None]          # [G, 1]
            if from_logits:
                gx = exps.reshape(shape) * (
                    d_pick[..., None] / total.reshape(groups, count, 1))
                at_target = gx[index]
                np.subtract(0.0, gx, out=gx)
                gx[index] = d_pick - at_target
            else:
                gx = np.zeros(shape, x.dtype)
                gx[index] = d_pick
            _accumulate(x, gx.reshape(x.shape))
        out._backward = _bw
    return out


def nll_loss(log_probs: Tensor, target: Union[Tensor, np.ndarray],
             reduction: str = "mean") -> Tensor:
    """Negative log-likelihood given log-probabilities ``[N, C]`` or ``[N, C, ...]``."""
    if reduction == "mean" and log_probs.ndim == 2:
        return _nll_node(log_probs, target, False, grouped=False)
    tgt = target.data if isinstance(target, Tensor) else np.asarray(target)
    tgt = tgt.astype(np.int64)
    if log_probs.ndim > 2:
        # [N, C, d1, ...] -> flatten the extra dims into the batch.
        n, c = log_probs.shape[:2]
        rest = int(np.prod(log_probs.shape[2:]))
        lp = log_probs.reshape(n, c, rest).permute(0, 2, 1).reshape(n * rest, c)
        tgt = tgt.reshape(n * rest)
        return nll_loss(lp, tgt, reduction)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), tgt]
    loss = -picked
    if reduction == "sum":
        return loss.sum()
    return loss


def cross_entropy(logits: Tensor, target: Union[Tensor, np.ndarray],
                  reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy from raw logits."""
    if reduction == "mean" and logits.ndim == 2:
        return _nll_node(logits, target, True, grouped=False)
    return nll_loss(log_softmax(logits, axis=1 if logits.ndim > 1 else -1),
                    target, reduction)


def mse_loss(pred: Tensor, target: Union[Tensor, np.ndarray],
             reduction: str = "mean") -> Tensor:
    tgt = target if isinstance(target, Tensor) else Tensor(target)
    diff = (pred - tgt) ** 2
    if reduction == "mean":
        return diff.mean()
    if reduction == "sum":
        return diff.sum()
    return diff


def binary_cross_entropy(prob: Tensor, target: Union[Tensor, np.ndarray],
                         reduction: str = "mean", eps: float = 1e-7) -> Tensor:
    tgt = target if isinstance(target, Tensor) else Tensor(target)
    p = prob.clamp(eps, 1.0 - eps)
    loss = -(tgt * p.log() + (1.0 - tgt) * (1.0 - p).log())
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def binary_cross_entropy_with_logits(logits: Tensor,
                                     target: Union[Tensor, np.ndarray],
                                     reduction: str = "mean") -> Tensor:
    return binary_cross_entropy(sigmoid(logits), target, reduction)
