"""Autograd-graph size of one fused training step: a count, not a clock.

Each of the paper's operators (grouped conv, Linear, BatchNorm, LayerNorm,
softmax, log-softmax) is one autograd node with a hand-written backward, and
so are a PointNet conv block (pointwise conv, BatchNorm, ReLU, and for the
global feature the max over the points), the cross-entropy/NLL criterion
(log-softmax, pick, negation, per-model mean), a multi-head attention core
(``F.attention``) and a post-norm residual (``F.layer_norm(x, ...,
residual=sub)``).
Composing them from primitive ``Tensor`` ops again would multiply the passes
over the activations without failing any numerical test, so the node count
of a fused PointNet step, of a fused LM step and of a fused sweep-MLP step
is pinned here.
"""

import numpy as np
import pytest

from repro import hfta, nn
from repro.models import PointNetCls, TransformerLM
from .test_equivalence_matrix import SweepMLP

#: op nodes reachable from the loss: (before, pinned now).  Before: while
#: the criterion was a log-softmax, a pick, a negation, a reshape (PointNet)
#: and a mean's sum and product, not one node — and, for the MLP, while
#: the engine summed the per-model losses in a node before backward; for
#: PointNet, while each global-feature block's max over the points (the
#: STN's and the trunk's) was a node after the block's; for the LM, while
#: each attention core was 12 nodes (heads' reshapes and permutes, two
#: matmuls, scale, softmax, the permute and reshape back) and each
#: post-norm residual an add before its layer norm
POINTNET_NODES = (62, 60)
LM_NODES = (67, 39)
MLP_NODES = (9, 4)


def op_nodes(loss) -> int:
    """Tensors produced by an op (non-leaves) reachable from ``loss``."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += bool(node._prev)
        stack.extend(node._prev)
    return count


def pointnet_loss():
    gens = [np.random.default_rng(b) for b in range(4)]
    model = PointNetCls(num_classes=8, num_models=4, width=0.25,
                        dropout=0.0, generator=gens)
    rng = np.random.default_rng(0)
    clouds = [nn.tensor(rng.standard_normal((8, 3, 32)).astype(np.float32))
              for _ in range(4)]
    targets = rng.integers(0, 8, size=(4, 8))
    return hfta.FusedNLLLoss(4)(model(model.fuse_inputs(clouds)), targets)


def lm_loss():
    gens = [np.random.default_rng(b) for b in range(4)]
    model = TransformerLM(vocab_size=64, d_model=32, nhead=2, num_layers=2,
                          dim_feedforward=64, max_len=16, dropout=0.0,
                          num_models=4, generator=gens)
    ids = np.random.default_rng(0).integers(0, 64, size=(4, 4, 17))
    return model.lib.CrossEntropyLoss()(model(ids[..., :-1]), ids[..., 1:])


def mlp_loss():
    """The sweep MLP at width 8, as the engine steps it: backward starts
    at the per-model losses."""
    model = SweepMLP(8, [np.random.default_rng(b) for b in range(8)])
    rng = np.random.default_rng(0)
    features = [nn.tensor(rng.standard_normal((16, 32)).astype(np.float32))
                for _ in range(8)]
    targets = rng.integers(0, 10, size=(8, 16))
    logits = model(model.fuse_inputs(features))
    return hfta.FusedCrossEntropyLoss(8).per_model(logits, targets)


@pytest.mark.parametrize("build,nodes", [(pointnet_loss, POINTNET_NODES),
                                         (lm_loss, LM_NODES),
                                         (mlp_loss, MLP_NODES)],
                         ids=["pointnet", "lm", "mlp"])
def test_fused_step_graph_does_not_grow(build, nodes):
    parent, pinned = nodes
    loss = build()
    count = op_nodes(loss)
    print(f"{build.__name__}: {count} op nodes (pinned {pinned}, "
          f"{parent} before)")
    assert count <= pinned
    loss.backward(np.ones_like(loss.data))  # the graph is a trainable one
