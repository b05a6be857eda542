"""Autograd-graph size of one fused training step: a count, not a clock.

Each of the paper's operators (grouped conv, BatchNorm, LayerNorm, softmax,
log-softmax) is one autograd node with a hand-written backward.  Composing
them from primitive ``Tensor`` ops again would multiply the passes over the
activations without failing any numerical test, so the node count of a
fused PointNet step and of a fused LM step is pinned here.
"""

import numpy as np
import pytest

from repro import hfta, nn
from repro.models import PointNetCls, TransformerLM

#: op nodes reachable from the loss: (at the parent of the change that made
#: each operator one node, pinned now)
POINTNET_NODES = (302, 130)
LM_NODES = (212, 147)


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
    return model.lm_loss(ids[..., :-1], ids[..., 1:])


@pytest.mark.parametrize("build,nodes", [(pointnet_loss, POINTNET_NODES),
                                         (lm_loss, LM_NODES)],
                         ids=["pointnet", "lm"])
def test_fused_step_graph_does_not_grow(build, nodes):
    parent, pinned = nodes
    loss = build()
    count = op_nodes(loss)
    print(f"{build.__name__}: {count} op nodes (pinned {pinned}, "
          f"{parent} before the single-node kernels)")
    assert count <= pinned
    loss.backward()     # the counted graph is a trainable one
