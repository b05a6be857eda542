"""PointNet (Qi et al., 2017) — classification and part-segmentation variants.

PointNet is one of the paper's two *major* benchmarks (memory-bound): a
point-cloud network built almost entirely from ``Conv1d`` (pointwise MLPs),
``BatchNorm1d``, a symmetric max-pool over points, and fully connected heads.
Both the classification and segmentation variants, including the input (3x3)
and feature (64x64) transform sub-networks (T-Nets), are implemented here.

Every model can be built *unfused* (``num_models=None``) or *horizontally
fused* (``num_models=B``): the same definition code requests its operators
from :class:`repro.hfta.ops.factory.OpsLibrary`, mirroring the paper's
"change a few lines to enable HFTA" workflow (Figure 2).

Input layouts
-------------
* unfused: point clouds ``[N, 3, P]`` (batch, xyz, points)
* fused:   channel-folded ``[N, B*3, P]`` — use
  :meth:`PointNetCls.fuse_inputs` to build it from per-model batches.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..hfta.ops.factory import OpsLibrary
from ..nn.tensor import Tensor

__all__ = ["TNet", "PointNetFeatures", "PointNetCls", "PointNetSeg"]


class TNet(nn.Module):
    """Spatial/feature transform network predicting a ``k x k`` alignment matrix.

    The predicted matrix is applied to the input points/features; the
    ``feature_transform`` hyper-parameter of the paper's HFHT PointNet
    workload (Table 12) toggles the 64x64 instance of this module.
    """

    def __init__(self, k: int, lib: OpsLibrary, width: int = 1.0,
                 generator=None):
        super().__init__()
        self.k = k
        self.lib = lib
        c1, c2, c3 = int(64 * width), int(128 * width), int(1024 * width)
        f1, f2 = int(512 * width), int(256 * width)
        self.conv1 = lib.Conv1d(k, c1, 1, generator=generator)
        self.conv2 = lib.Conv1d(c1, c2, 1, generator=generator)
        self.conv3 = lib.Conv1d(c2, c3, 1, generator=generator)
        self.bn1 = lib.BatchNorm1d(c1)
        self.bn2 = lib.BatchNorm1d(c2)
        self.bn3 = lib.BatchNorm1d(c3)
        self.fc1 = lib.Linear(c3, f1, generator=generator)
        self.fc2 = lib.Linear(f1, f2, generator=generator)
        self.fc3 = lib.Linear(f2, k * k, generator=generator)
        self.bn4 = lib.BatchNorm1d(f1)
        self.bn5 = lib.BatchNorm1d(f2)
        self.relu = lib.ReLU()
        self._c3 = c3

    def forward(self, x: Tensor) -> Tensor:
        """Return the alignment matrices.

        unfused: input ``[N, k, P]`` -> output ``[N, k, k]``
        fused:   input ``[N, B*k, P]`` -> output ``[B, N, k, k]``
        """
        lib = self.lib
        h = lib.conv_bn(self.conv1, self.bn1, x)
        h = lib.conv_bn(self.conv2, self.bn2, h)
        # symmetric function: max over points, the block's last stage
        h = lib.conv_bn(self.conv3, self.bn3, h, global_max=True)
        dense = lib.conv_to_dense(h.unsqueeze(2))  # [N, C] or [B, N, C]
        # fused BatchNorm1d accepts the dense [B, N, C] layout
        h = self.relu(self.bn4(self.fc1(dense)))
        h = self.relu(self.bn5(self.fc2(h)))
        mat = self.fc3(h)
        identity = np.eye(self.k, dtype=np.float32).reshape(-1)
        mat = mat + Tensor(identity)
        if lib.fused:
            b, n = mat.shape[0], mat.shape[1]
            return mat.reshape(b, n, self.k, self.k)
        return mat.reshape(mat.shape[0], self.k, self.k)


def _apply_transform(lib: OpsLibrary, x: Tensor, trans: Tensor) -> Tensor:
    """Apply per-cloud alignment matrices to points/features.

    unfused: ``x [N, C, P]``, ``trans [N, C, C]`` -> ``[N, C, P]``
    fused:   ``x [N, B*C, P]``, ``trans [B, N, C, C]`` -> ``[N, B*C, P]``
    """
    if not lib.fused:
        return trans.matmul(x)
    b = lib.num_models
    n, bc, p = x.shape
    c = bc // b
    per_model = x.reshape(n, b, c, p).permute(1, 0, 2, 3)  # [B, N, C, P]
    aligned = trans.matmul(per_model)                      # [B, N, C, P]
    return aligned.permute(1, 0, 2, 3).reshape(n, bc, p)


class PointNetFeatures(nn.Module):
    """Shared PointNet trunk: per-point MLPs + symmetric max pooling.

    Returns the global feature (and the per-point features when
    ``return_point_features`` — needed by the segmentation head).
    """

    def __init__(self, lib: OpsLibrary, width: float = 1.0,
                 input_transform: bool = True, feature_transform: bool = False,
                 generator=None):
        super().__init__()
        self.lib = lib
        self.input_transform = input_transform
        self.feature_transform = feature_transform
        c1, c2, c3 = int(64 * width), int(128 * width), int(1024 * width)
        self.global_dim = c3
        self.point_dim = c1
        if input_transform:
            self.stn = TNet(3, lib, width, generator)
        if feature_transform:
            self.fstn = TNet(c1, lib, width, generator)
        self.conv1 = lib.Conv1d(3, c1, 1, generator=generator)
        self.conv2 = lib.Conv1d(c1, c2, 1, generator=generator)
        self.conv3 = lib.Conv1d(c2, c3, 1, generator=generator)
        self.bn1 = lib.BatchNorm1d(c1)
        self.bn2 = lib.BatchNorm1d(c2)
        self.bn3 = lib.BatchNorm1d(c3)
        # unused (the conv blocks apply their ReLU), kept in the module
        # tree: the structural signature fusion groups jobs by
        self.relu = lib.ReLU()

    def forward(self, x: Tensor, return_point_features: bool = False):
        lib = self.lib
        if self.input_transform:
            trans = self.stn(x)
            x = _apply_transform(lib, x, trans)
        h = lib.conv_bn(self.conv1, self.bn1, x)
        if self.feature_transform:
            ftrans = self.fstn(h)
            h = _apply_transform(lib, h, ftrans)
        point_features = h
        h = lib.conv_bn(self.conv2, self.bn2, h)
        global_feature = lib.conv_bn(self.conv3, self.bn3, h, relu=False,
                                     global_max=True)  # [N, (B*)C3]
        if return_point_features:
            return global_feature, point_features
        return global_feature


class PointNetCls(nn.Module):
    """PointNet object-classification network (ShapeNet part categories).

    Output: per-class log-probabilities — ``[N, num_classes]`` unfused,
    ``[B, N, num_classes]`` fused.
    """

    def __init__(self, num_classes: int = 16, num_models: Optional[int] = None,
                 width: float = 1.0, input_transform: bool = True,
                 feature_transform: bool = False, dropout: float = 0.3,
                 generator=None):
        super().__init__()
        self.lib = OpsLibrary(num_models)
        lib = self.lib
        self.num_classes = num_classes
        self.feat = PointNetFeatures(lib, width, input_transform,
                                     feature_transform, generator)
        c3 = self.feat.global_dim
        f1, f2 = int(512 * width), int(256 * width)
        self.fc1 = lib.Linear(c3, f1, generator=generator)
        self.fc2 = lib.Linear(f1, f2, generator=generator)
        self.fc3 = lib.Linear(f2, num_classes, generator=generator)
        self.bn1 = lib.BatchNorm1d(f1)
        self.bn2 = lib.BatchNorm1d(f2)
        self.dropout = lib.Dropout(dropout) if dropout > 0 else None
        self.relu = lib.ReLU()
        self.log_softmax = lib.LogSoftmax(dim=-1)

    def fuse_inputs(self, clouds: Sequence[Tensor]) -> Tensor:
        """Build the fused (channel-folded) input from per-model batches."""
        return self.lib.fuse_conv_inputs(clouds)

    def forward(self, x: Tensor) -> Tensor:
        lib = self.lib
        global_feature = self.feat(x)                     # [N, (B*)C3]
        dense = lib.conv_to_dense(global_feature.unsqueeze(2))
        h = self.relu(self.bn1(self.fc1(dense)))
        h = self.relu(self.bn2(self.fc2(h)))
        if self.dropout is not None:
            h = self.dropout(h)
        logits = self.fc3(h)
        return self.log_softmax(logits)


class PointNetSeg(nn.Module):
    """PointNet part-segmentation network.

    Predicts a part label for every point by concatenating each point's
    local feature with the cloud's global feature (the paper's second major
    benchmark task).  Output: ``[N, num_parts, P]`` unfused,
    ``[B, N, num_parts, P]`` fused (log-probabilities over parts).
    """

    def __init__(self, num_parts: int = 50, num_models: Optional[int] = None,
                 width: float = 1.0, input_transform: bool = True,
                 feature_transform: bool = False, generator=None):
        super().__init__()
        self.lib = OpsLibrary(num_models)
        lib = self.lib
        self.num_parts = num_parts
        self.feat = PointNetFeatures(lib, width, input_transform,
                                     feature_transform, generator)
        c1, c3 = self.feat.point_dim, self.feat.global_dim
        d1, d2, d3 = int(512 * width), int(256 * width), int(128 * width)
        self.conv1 = lib.Conv1d(c1 + c3, d1, 1, generator=generator)
        self.conv2 = lib.Conv1d(d1, d2, 1, generator=generator)
        self.conv3 = lib.Conv1d(d2, d3, 1, generator=generator)
        self.conv4 = lib.Conv1d(d3, num_parts, 1, generator=generator)
        self.bn1 = lib.BatchNorm1d(d1)
        self.bn2 = lib.BatchNorm1d(d2)
        self.bn3 = lib.BatchNorm1d(d3)
        # unused (the conv blocks apply their ReLU), kept in the module
        # tree: the structural signature fusion groups jobs by
        self.relu = lib.ReLU()

    def fuse_inputs(self, clouds: Sequence[Tensor]) -> Tensor:
        return self.lib.fuse_conv_inputs(clouds)

    def forward(self, x: Tensor) -> Tensor:
        lib = self.lib
        num_points = x.shape[2]
        global_feature, point_features = self.feat(
            x, return_point_features=True)
        # Broadcast the global feature to every point and concatenate with
        # the per-point features (channel-wise, per model).
        expanded = global_feature.unsqueeze(2).expand(
            global_feature.shape[0], global_feature.shape[1], num_points)
        if lib.fused:
            b = lib.num_models
            n = x.shape[0]
            c1 = point_features.shape[1] // b
            c3 = global_feature.shape[1] // b
            pf = point_features.reshape(n, b, c1, num_points)
            gf = expanded.reshape(n, b, c3, num_points)
            combined = nn.cat([pf, gf], axis=2).reshape(
                n, b * (c1 + c3), num_points)
        else:
            combined = nn.cat([point_features, expanded], axis=1)
        h = lib.conv_bn(self.conv1, self.bn1, combined)
        h = lib.conv_bn(self.conv2, self.bn2, h)
        h = lib.conv_bn(self.conv3, self.bn3, h)
        logits = self.conv4(h)  # [N, (B*)num_parts, P]
        if lib.fused:
            b = lib.num_models
            n = logits.shape[0]
            logits = logits.reshape(n, b, self.num_parts, num_points)
            logits = logits.permute(1, 0, 2, 3)  # [B, N, parts, P]
            return nn.functional.log_softmax(logits, axis=2)
        return nn.functional.log_softmax(logits, axis=1)
