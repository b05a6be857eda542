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

from . import arena, parallel
from .tensor import Tensor, _accumulate, _make_out

__all__ = [
    "conv2d", "conv1d", "conv_transpose2d", "linear",
    "max_pool2d", "adaptive_avg_pool2d", "avg_pool2d",
    "batch_norm", "layer_norm", "embedding", "dropout",
    "relu", "relu6", "leaky_relu", "tanh", "sigmoid", "gelu", "hardswish",
    "hardsigmoid", "softmax", "log_softmax",
    "cross_entropy", "nll_loss", "mse_loss", "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
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
    matrix, so it gathers nothing forward and scatters nothing backward.  A
    large call runs its matmuls as two halves over ``N`` and the weight
    gradient's sum over ``N`` as two column ranges (:mod:`.parallel`).
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
    bias_g = None if bias is None else bias.data.reshape(groups, -1, 1)
    nbytes = parallel.gemm_bytes(out_g.nbytes, k)   # for backward too

    def forward(lo, hi):
        out_n = np.matmul(w_g, cols_g[lo:hi], out=out_g[lo:hi])
        if bias_g is not None:
            out_n += bias_g
    parallel.split(n, nbytes, forward)
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

            def products(lo, hi):
                if per_sample is not None:
                    np.matmul(g[lo:hi], cols_g[lo:hi].swapaxes(-1, -2),
                              out=per_sample[lo:hi])
                if gx is not None:
                    np.matmul(w_g.swapaxes(-1, -2), g[lo:hi], out=gx[lo:hi])
            parallel.split(n, nbytes, products)
            if per_sample is not None:
                # the sum over N, each column still summed in sample order
                gw = arena.buffer(per_sample.shape[1:], g.dtype)
                rows, gw_flat = per_sample.reshape(n, -1), gw.reshape(-1)

                def column_sums(lo, hi):
                    rows[:, lo:hi].sum(axis=0, out=gw_flat[lo:hi])
                parallel.split(gw.size, nbytes, column_sums)
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
    a fused call runs exactly the GEMM its model runs alone.  A large fused
    call runs its GEMMs as two halves of the ``B`` models (:mod:`.parallel`).
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
    # the size test first: a small or serial call is the plain GEMM
    nbytes = parallel.gemm_bytes(x2.nbytes // in_features * out_features,
                                 in_features)     # for backward too
    if lead and nbytes >= parallel.MIN_BYTES:
        out_data = arena.buffer(x2.shape[:-1] + (out_features,),
                                np.promote_types(x2.dtype, w.dtype))

        def forward(lo, hi):
            out_b = np.matmul(x2[lo:hi], w[lo:hi].swapaxes(-1, -2),
                              out=out_data[lo:hi])
            if shift is not None:
                out_b += shift[lo:hi]
        parallel.split(lead[0], nbytes, forward)
    else:
        out_data = np.matmul(x2, w.swapaxes(-1, -2))
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
            if lead and nbytes >= parallel.MIN_BYTES:
                if _needs_grad(x):
                    gx = arena.buffer(x2.shape, g.dtype)
                if _needs_grad(weight):
                    gw = arena.buffer(weight.shape, g.dtype)

                def backward(lo, hi):
                    if gx is not None:
                        np.matmul(g[lo:hi], w[lo:hi], out=gx[lo:hi])
                    if gw is not None:
                        np.matmul(g[lo:hi].swapaxes(-1, -2), x2[lo:hi],
                                  out=gw[lo:hi])
                parallel.split(lead[0], nbytes, backward)
            else:
                if _needs_grad(x):
                    gx = np.matmul(g, w)
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
    Every full-size pass is per channel, so a large call runs as two
    channel halves (:mod:`.parallel`).
    """
    data = x.data
    channel_axis %= data.ndim
    axes = tuple(i for i in range(data.ndim) if i != channel_axis)
    channels = data.shape[channel_axis]
    shape = [1] * data.ndim
    shape[channel_axis] = channels
    lead = (slice(None),) * channel_axis     # lead + (slice(lo, hi),): a half
    batch_stats = training or running_mean is None
    if batch_stats:
        count = data.size // channels
        mean, var = np.empty(shape, data.dtype), np.empty(shape, data.dtype)
        xc = arena.buffer(data.shape, data.dtype)

        def stats(lo, hi):
            c = lead + (slice(lo, hi),)
            np.multiply(_sum_over(data[c], axes), 1.0 / count, out=mean[c])
            xc_c = np.subtract(data[c], mean[c], out=xc[c])
            np.multiply(_sum_over(xc_c, axes, xc_c), 1.0 / count, out=var[c])
        parallel.split(channels, data.nbytes, stats)
        if running_mean is not None:
            unbiased = var * count / max(count - 1, 1)
            running_mean *= (1 - momentum)
            running_mean += momentum * mean.reshape(-1)
            running_var *= (1 - momentum)
            running_var += momentum * unbiased.reshape(-1)
    else:
        xc = data - running_mean.reshape(shape)
        var = running_var.reshape(shape)
    rstd = 1.0 / np.sqrt(var + eps)
    scale = rstd if weight is None else rstd * weight.data.reshape(shape)
    shift = None if bias is None else bias.data.reshape(shape)
    out_data = arena.buffer(xc.shape, np.promote_types(xc.dtype, scale.dtype))

    def affine(lo, hi):
        c = lead + (slice(lo, hi),)
        out_c = np.multiply(xc[c], scale[c], out=out_data[c])
        if shift is not None:
            out_c += shift[c]
    parallel.split(channels, data.nbytes, affine)

    parents = tuple(p for p in (x, weight, bias) if p is not None)
    out = _make_out(out_data, parents, "batch_norm")
    if out.requires_grad:
        def _bw(g):
            # g has the output's dtype, which xc's promotes to
            sum_g, sum_gxc = np.empty(shape, g.dtype), np.empty(shape, g.dtype)
            gx = None
            if batch_stats and _needs_grad(x):
                gx = arena.buffer(xc.shape, g.dtype)

            def sums_and_dx(lo, hi):
                c = lead + (slice(lo, hi),)
                g_c, xc_c = g[c], xc[c]
                sum_g[c] = _sum_over(g_c, axes)
                sum_gxc[c] = _sum_over(g_c, axes, xc_c)
                if gx is not None:
                    gx_c = np.multiply(
                        xc_c, rstd[c] * rstd[c] * sum_gxc[c] * (1.0 / count),
                        out=gx[c])
                    gx_c += sum_g[c] * (1.0 / count)
                    np.subtract(g_c, gx_c, out=gx_c)
                    gx_c *= scale[c]
            parallel.split(channels, g.nbytes, sums_and_dx)
            if _needs_grad(weight):
                _accumulate(weight, (sum_gxc * rstd).reshape(weight.shape))
            if _needs_grad(bias):
                _accumulate(bias, sum_g.reshape(bias.shape))
            if _needs_grad(x):
                _accumulate(x, g * scale if gx is None else gx)
        out._backward = _bw
    return out


def layer_norm(x: Tensor, normalized_shape: Tuple[int, ...],
               weight: Optional[Tensor] = None, bias: Optional[Tensor] = None,
               eps: float = 1e-5) -> Tensor:
    """Layer normalization over the trailing ``normalized_shape`` dims.

    ``weight``/``bias`` broadcast against ``x``: ``normalized_shape`` for one
    layer, ``[B, 1, ..., 1, *normalized_shape]`` for ``B`` fused layers (paper
    Table 6).  One autograd node: backward keeps ``x_hat`` and ``rstd`` and
    applies ``dx = rstd * (gw - mean(gw) - x_hat * mean(gw * x_hat))``, ``gw``
    the incoming gradient times ``weight``; a parameter's gradient is summed
    in one pass over the axes where the parameter has size 1.
    """
    data = x.data
    axes = tuple(range(data.ndim - len(normalized_shape), data.ndim))
    inv_count = 1.0 / int(np.prod(normalized_shape))
    x_hat = data - _sum_over(data, axes) * inv_count
    rstd = 1.0 / np.sqrt(_sum_over(x_hat, axes, x_hat) * inv_count + eps)
    x_hat *= rstd
    out_data = x_hat if weight is None else x_hat * weight.data
    if bias is not None:
        out_data = out_data + bias.data

    parents = tuple(p for p in (x, weight, bias) if p is not None)
    out = _make_out(out_data, parents, "layer_norm")
    if out.requires_grad:
        def _param_grad(p, g, b=None):
            shape = (1,) * (data.ndim - p.ndim) + p.shape
            broadcast = tuple(i for i, d in enumerate(shape) if d == 1)
            return _sum_over(g, broadcast, b).reshape(p.shape)

        def _bw(g):
            if _needs_grad(weight):
                _accumulate(weight, _param_grad(weight, g, x_hat))
            if _needs_grad(bias):
                _accumulate(bias, _param_grad(bias, g))
            if _needs_grad(x):
                gw = g if weight is None else g * weight.data
                gx = x_hat * (_sum_over(gw, axes, x_hat) * inv_count)
                gx += _sum_over(gw, axes) * inv_count
                np.subtract(gw, gx, out=gx)
                gx *= rstd
                _accumulate(x, gx)
        out._backward = _bw
    return out


# --------------------------------------------------------------------- #
# Embedding
# --------------------------------------------------------------------- #
def embedding(indices: Union[Tensor, np.ndarray], weight: Tensor) -> Tensor:
    """Look up rows of ``weight`` (``[num_embeddings, dim]``) by ``indices``."""
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    idx = idx.astype(np.int64)
    out_data = weight.data[idx]
    out = _make_out(out_data, (weight,), "embedding")
    if out.requires_grad:
        def _bw(grad_out):
            gw = np.zeros_like(weight.data)
            np.add.at(gw, idx.reshape(-1),
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


def nll_loss(log_probs: Tensor, target: Union[Tensor, np.ndarray],
             reduction: str = "mean") -> Tensor:
    """Negative log-likelihood given log-probabilities ``[N, C]`` or ``[N, C, ...]``."""
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
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    return loss


def cross_entropy(logits: Tensor, target: Union[Tensor, np.ndarray],
                  reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy from raw logits."""
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
