"""Model builders the workloads submit: the sweep MLP and servable
wrappers for the paper's own shapes (PointNet, Transformer LM).

A ``TrainingJob.build_model(num_models, generator)`` returns the unfused
model for ``num_models=None`` and the fused array otherwise.
"""

from __future__ import annotations

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.models import PointNetCls, TransformerLM


class MLP(nn.Module):
    """features -> hidden -> classes, written once via ``OpsLibrary``."""

    def __init__(self, features, hidden, classes, num_models=None,
                 generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(features, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, classes, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


class ServableLM(TransformerLM):
    """``TransformerLM`` as the engine can serve it.

    The engine hands ``fuse_inputs`` a list of ``Tensor``s and the fused
    criteria want ``[B, N, C]`` logits against ``[B, N]`` targets;
    ``TransformerLM.fuse_inputs`` calls ``np.asarray`` on the tensors and
    its logits are ``[B, N, L, V]``, so a plain ``TransformerLM`` job ends
    FAILED.  This wrapper unwraps ``.data`` and flattens positions into
    the sample axis: logits ``[B, N*L, V]``, targets ``[N*L]`` per job.
    """

    def fuse_inputs(self, token_batches):
        return super().fuse_inputs(
            [getattr(tokens, "data", tokens) for tokens in token_batches])

    def forward(self, token_ids):
        logits = super().forward(token_ids)
        *lead, samples, length, vocab = logits.shape
        return logits.reshape(*lead, samples * length, vocab)


def mlp_builder(features, hidden, classes):
    def build(num_models=None, generator=None):
        return MLP(features, hidden, classes, num_models, generator)
    return build


def pointnet_builder(classes):
    # dropout off: a fused array and a serial job would draw different masks
    def build(num_models=None, generator=None):
        return PointNetCls(num_classes=classes, num_models=num_models,
                           width=0.25, dropout=0.0, generator=generator)
    return build


def lm_builder(vocab, d_model, heads, layers, length):
    def build(num_models=None, generator=None):
        return ServableLM(vocab_size=vocab, d_model=d_model, nhead=heads,
                          num_layers=layers, dim_feedforward=4 * d_model,
                          max_len=length, dropout=0.0,
                          num_models=num_models, generator=generator)
    return build
