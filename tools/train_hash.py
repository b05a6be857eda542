"""One digest per model, width and split mode of a short seeded training run.

    python tools/train_hash.py                     # all 16 digests

For PointNetCls (feature transform on), PointNetSeg, the Transformer LM
(the ``sweep_paper`` configuration: dropout off) and BERT (tiny, dropout
0.1), each built serial (the unfused model) and fused at width 4, and each
run twice — ``inline``: kernels inline, as the library runs them on one CPU
(``parallel.MIN_BYTES`` infinite); ``split``: ``parallel.MIN_BYTES = 0`` and
``arena.MIN_BYTES = 0``, so every kernel that can split does and every
output that can come from the arena does — it trains ``STEPS`` (3) Adam
steps inside an activation arena, as ``FusedPhysics.step`` does, and prints
a SHA-256 digest of:

* the loss curve (every step's per-model loss values),
* the gradients of the last step,
* the final ``state_dict`` (running statistics included),
* the eval-mode output on a held-out batch.

Every dropout layer draws from its own seeded generator, so the runs are
deterministic.  A change that must keep training bitwise (a kernel
rewrite, an autograd change) prints the same lines before and after:
run it at both commits and ``diff`` the outputs.  Serial and fused lines
are not comparable with each other (different data and dropout draws).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = ("pointnet_cls", "pointnet_seg", "lm", "bert")
WIDTHS = {"serial": None, "w4": 4}
#: mode -> (parallel.MIN_BYTES, arena.MIN_BYTES); None keeps the default
SPLITS = {"inline": (math.inf, None), "split": (0, 0)}
STEPS = 3


def build(name, width):
    """(model, batch maker, criterion) of ``name`` at ``width`` (``None``:
    the unfused model)."""
    import numpy as np

    from repro import hfta, nn
    from repro.models import (BertConfig, BertMaskedLM, PointNetCls,
                              PointNetSeg, TransformerLM)
    from repro.nn import functional as F

    gens = (np.random.default_rng(0) if width is None else
            [np.random.default_rng(b) for b in range(width)])
    count = 1 if width is None else width
    if name == "pointnet_cls":
        model = PointNetCls(num_classes=8, num_models=width, width=0.25,
                            feature_transform=True, dropout=0.3,
                            generator=gens)
    elif name == "pointnet_seg":
        model = PointNetSeg(num_parts=6, num_models=width, width=0.25,
                            generator=gens)
    elif name == "lm":
        model = TransformerLM(vocab_size=256, d_model=64, nhead=2,
                              num_layers=2, dim_feedforward=256, max_len=32,
                              dropout=0.0, num_models=width, generator=gens)
    else:
        model = BertMaskedLM(BertConfig.tiny(vocab_size=64, max_len=16),
                             num_models=width, generator=gens)
    for index, module in enumerate(model.modules()):
        if type(module).__name__ in ("Dropout", "Dropout2d"):
            module.generator = np.random.default_rng([17, index])

    def batch(rng):
        """(fused or serial input, targets) of one step."""
        if name.startswith("pointnet"):
            clouds = [nn.tensor(rng.standard_normal((8, 3, 32))
                                .astype(np.float32)) for _ in range(count)]
            shape = (8,) if name == "pointnet_cls" else (8, 32)
            labels = rng.integers(0, 8 if name == "pointnet_cls" else 6,
                                  size=(count,) + shape)
            return model.fuse_inputs(clouds), labels
        vocab, length = (256, 33) if name == "lm" else (64, 13)
        ids = rng.integers(0, vocab, size=(count, 8, length))
        return model.fuse_inputs(list(ids[..., :-1])), ids[..., 1:]

    def criterion(out, labels):
        """Per-model losses: ``[B]`` fused, ``[]`` serial."""
        if name == "pointnet_seg":        # parts on axis -2: move it last
            out = out.permute(*range(out.ndim - 2), out.ndim - 1,
                              out.ndim - 2)
        if width is not None:
            fused = (hfta.FusedCrossEntropyLoss if name in ("lm", "bert")
                     else hfta.FusedNLLLoss)
            return fused(width).per_model(out, labels)
        serial = F.cross_entropy if name in ("lm", "bert") else F.nll_loss
        return serial(out.reshape(-1, out.shape[-1]), labels.reshape(-1))
    return model, batch, criterion


def digest(name, width):
    """The hex digest of one run (module docstring)."""
    import numpy as np

    from repro import hfta, nn, optim

    model, batch, criterion = build(name, width)
    params = list(model.parameters())
    optimizer = (optim.Adam(params, lr=1e-3) if width is None else
                 hfta.optim.Adam(params, num_models=width,
                                 lr=[1e-3 * (1 + b) for b in range(width)]))
    rng = np.random.default_rng(1)
    sha = hashlib.sha256()

    def feed(array):
        array = np.ascontiguousarray(array)
        sha.update(f"{array.dtype}{array.shape}".encode())
        sha.update(array.tobytes())

    with nn.Arena().active():
        for step in range(STEPS):
            x, labels = batch(rng)
            optimizer.zero_grad()
            losses = criterion(model(x), labels)
            feed(losses.data)
            losses.backward(np.ones_like(losses.data))
            if step == STEPS - 1:
                for _, param in model.named_parameters():
                    feed(param.grad)
            optimizer.step()
            del losses
    for key, value in model.state_dict().items():
        sha.update(key.encode())
        feed(value)
    model.eval()
    x, _ = batch(rng)
    with nn.no_grad():
        feed(model(x).data)
    return sha.hexdigest()


@contextlib.contextmanager
def thresholds(split_bytes, arena_bytes):
    """``parallel.MIN_BYTES`` and (unless ``None``) ``arena.MIN_BYTES``
    set inside the block."""
    from repro.nn import arena, parallel

    saved = parallel.MIN_BYTES, arena.MIN_BYTES
    parallel.MIN_BYTES = split_bytes
    if arena_bytes is not None:
        arena.MIN_BYTES = arena_bytes
    try:
        yield
    finally:
        parallel.MIN_BYTES, arena.MIN_BYTES = saved


def main() -> int:
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")     # before numpy is imported
    sys.path[:0] = [str(ROOT / "src")]
    for name in MODELS:
        for label, width in WIDTHS.items():
            for mode, sizes in SPLITS.items():
                with thresholds(*sizes):
                    print(f"{name:<13} {label:<6} {mode:<6} "
                          f"{digest(name, width)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
