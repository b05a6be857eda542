"""One digest per model, width and mode of a short seeded training run.

    python tools/train_hash.py                     # all 14 digests

For PointNetCls (feature transform on), PointNetSeg, the Transformer LM
(the ``sweep_paper`` configuration: dropout off) and BERT (tiny, dropout
0.1), each built serial (the unfused model) and fused at width 4, it
trains ``STEPS`` (3) Adam steps inside an activation arena, as the engine
does, and prints a SHA-256 digest of:

* the loss curve (every step's per-model loss values),
* the gradients of the last step,
* the final ``state_dict`` (running statistics included),
* the eval-mode output on a held-out batch.

Mode ``inline`` trains the model in this process.  Mode ``sharded``
(width 4 only) cuts the fused array as the engine cuts an array of large
slots (``repro.runtime.shards.split``) and trains it through the engine's
own physics: a ``FusedPhysics.start`` epoch over ``_Shard`` parts, of
``STEPS`` steps, each slot's batches fetched as the engine fetches a
job's.  On two CPUs models 0-1 train here and 2-3 in a shard worker, each
shard at its own width, both at once, and the digest is taken over the
slots' loss curves and the shards' values joined on the array dimension.
Its dropout layers draw their shard's rows of the mask the whole array
would draw, so the sharded digest must equal the inline one.  The engine
itself never cuts an array whose model drops (``FusedPhysics``): the
sharded PointNetCls and BERT digests (dropout 0.3 and 0.1) check a manual
cut of the shard machinery that the engine no longer makes for them.

The two ``mlp 2xw4`` rows train one engine cycle of two arrays of the
``sweep_mlp`` MLP (``bench_e2e.models``), Adam and SGD at width 4, one
step per epoch, and digest each job's loss curve and final checkpoint:
``1-proc`` runs the arrays one after another in this process, ``spread``
as the engine runs them on this host — on two CPUs side by side, the SGD
array whole in a shard worker.  The two must be equal.

Every dropout layer draws from its own seeded generator, so the runs are
deterministic.  A change that must keep training bitwise (a kernel
rewrite, an autograd change) prints the same lines before and after:
run it at both commits and ``diff`` the outputs.  Serial and fused lines
are not comparable with each other (different data and dropout draws).
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = ("pointnet_cls", "pointnet_seg", "lm", "bert")
#: (width label, width, mode) of each digest of a model
RUNS = (("serial", None, "inline"), ("w4", 4, "inline"),
        ("w4", 4, "sharded"))
STEPS = 3
DROPOUT_SEED = 17


def build(name, width):
    """(model, batch maker) of ``name`` at ``width`` (``None``: the unfused
    model)."""
    import numpy as np

    from repro import nn
    from repro.models import (BertConfig, BertMaskedLM, PointNetCls,
                              PointNetSeg, TransformerLM)

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
    for index, module in dropouts(model):
        module.generator = np.random.default_rng([DROPOUT_SEED, index])

    def batch(rng):
        """(per-model inputs, targets) of one step."""
        if name.startswith("pointnet"):
            clouds = [nn.tensor(rng.standard_normal((8, 3, 32))
                                .astype(np.float32)) for _ in range(count)]
            shape = (8,) if name == "pointnet_cls" else (8, 32)
            labels = rng.integers(0, 8 if name == "pointnet_cls" else 6,
                                  size=(count,) + shape)
            return clouds, labels
        vocab, length = (256, 33) if name == "lm" else (64, 13)
        ids = rng.integers(0, vocab, size=(count, 8, length))
        return list(ids[..., :-1]), ids[..., 1:]
    return model, batch


def dropouts(model):
    """``(index in model.modules(), module)`` of each dropout layer."""
    return [(index, module) for index, module in enumerate(model.modules())
            if type(module).__name__ in ("Dropout", "Dropout2d")]


def criterion(name, width, out, labels):
    """Per-model losses: ``[B]`` fused, ``[]`` serial."""
    from repro import hfta
    from repro.nn import functional as F

    if name == "pointnet_seg":        # parts on axis -2: move it last
        out = out.permute(*range(out.ndim - 2), out.ndim - 1, out.ndim - 2)
    if width is not None:
        fused = (hfta.FusedCrossEntropyLoss if name in ("lm", "bert")
                 else hfta.FusedNLLLoss)
        return fused(width).per_model(out, labels)
    serial = F.cross_entropy if name in ("lm", "bert") else F.nll_loss
    return serial(out.reshape(-1, out.shape[-1]), labels.reshape(-1))


class Hasher:
    """A SHA-256 over arrays: dtype, shape and bytes of each."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def feed(self, array, key=None):
        import numpy as np

        if key is not None:
            self.sha.update(key.encode())
        array = np.ascontiguousarray(array)
        self.sha.update(f"{array.dtype}{array.shape}".encode())
        self.sha.update(array.tobytes())


def digest(name, width):
    """The hex digest of one inline run (module docstring)."""
    import numpy as np

    from repro import hfta, nn, optim

    model, batch = build(name, width)
    params = list(model.parameters())
    optimizer = (optim.Adam(params, lr=1e-3) if width is None else
                 hfta.optim.Adam(params, num_models=width,
                                 lr=[1e-3 * (1 + b) for b in range(width)]))
    rng = np.random.default_rng(1)
    sha = Hasher()
    with nn.Arena().active():
        for step in range(STEPS):
            xs, labels = batch(rng)
            optimizer.zero_grad()
            losses = criterion(name, width, model(model.fuse_inputs(xs)),
                               labels)
            sha.feed(losses.data)
            losses.backward(np.ones_like(losses.data))
            if step == STEPS - 1:
                for _, param in model.named_parameters():
                    sha.feed(param.grad)
            optimizer.step()
            del losses
    for key, value in model.state_dict().items():
        sha.feed(value, key)
    model.eval()
    xs, _ = batch(rng)
    with nn.no_grad():
        sha.feed(model(model.fuse_inputs(xs)).data)
    return sha.sha.hexdigest()


class ShardDraws:
    """The dropout generator of models ``lo`` to ``hi`` of a width-``width``
    array: it draws the whole array's mask and hands out the shard's rows,
    so the shard drops what the whole array would."""

    def __init__(self, seed, lo, hi, width):
        import numpy as np

        self.rng = np.random.default_rng(seed)
        self.lo, self.hi, self.width = lo, hi, width

    def random(self, shape):
        if shape[0] != self.hi - self.lo:
            raise ValueError(f"a dropout input {shape} without the array "
                             f"dimension first")
        return self.rng.random((self.width,) + tuple(shape[1:]))[
            self.lo:self.hi]


class Criterion:
    """:func:`criterion` as a fused criterion (``per_model``)."""

    def __init__(self, name, width):
        self.name, self.width = name, width

    def per_model(self, out, labels):
        return criterion(self.name, self.width, out, labels)


def make_shard(name, model, lo, hi):
    """Models ``lo`` to ``hi`` of a fused array as the engine's shard
    (``repro.runtime.engine._Shard``), with an Adam at their learning
    rates and this tool's criterion; a shard worker makes its own."""
    import functools

    from repro import hfta
    from repro.runtime.engine import _Shard

    shard = _Shard(model, hfta.optim.Adam(
        list(model.parameters()), num_models=hi - lo,
        lr=[1e-3 * (1 + b) for b in range(lo, hi)]), "nll")
    shard.criterion = Criterion(name, hi - lo)
    # the digest's two reads, as methods a worker can be asked to run
    shard.grads = functools.partial(grads, shard)
    shard.finish = functools.partial(finish, shard)
    return shard


def grads(shard):
    """Every parameter's gradient of the shard's last step."""
    return [param.grad for param in shard.fused.parameters()]


def finish(shard, xs):
    """(the shard's ``state_dict``, its eval-mode output on ``xs``)."""
    from repro import nn

    shard.fused.eval()
    with nn.no_grad():
        return (shard.fused.state_dict(),
                shard.fused(shard.fused.fuse_inputs(xs)).data)


def sharded_digest(name, width):
    """The hex digest of one sharded run (module docstring): equal to
    :func:`digest`'s at ``width``."""
    import functools
    from types import SimpleNamespace

    import numpy as np

    from repro import nn
    from repro.hfta import split_fused
    from repro.runtime import shards
    from repro.runtime.engine import FusedPhysics, _RemoteShard

    model, batch = build(name, width)
    rng = np.random.default_rng(1)
    steps = [batch(rng) for _ in range(STEPS)]
    held_out, _ = batch(rng)
    # an array's physics as ``FusedPhysics.build`` leaves it: only its
    # parts are read by ``step``
    physics = FusedPhysics.__new__(FusedPhysics)
    physics.parts, cuts = [], shards.split(width, shards.MIN_SLOT_BYTES)
    for lo, hi, worker in cuts:
        piece = split_fused(model, list(range(lo, hi)))
        for index, module in dropouts(piece):
            module.generator = ShardDraws([DROPOUT_SEED, index], lo, hi,
                                          width)
        if worker is None:
            physics.parts.append(make_shard(name, piece, lo, hi))
        else:
            physics.parts.append(_RemoteShard.make(
                worker, hi - lo, make_shard, name, piece, lo, hi))
            shards.receive([worker])

    def data(model_index, step):
        xs, labels = steps[step]
        x = xs[model_index]
        return x.data if isinstance(x, nn.Tensor) else x, labels[model_index]
    slots = [SimpleNamespace(job=SimpleNamespace(
        data=functools.partial(data, b)), progress=0, curve=[])
        for b in range(width)]
    epoch = physics.start(slots, STEPS)
    epoch.here()
    epoch.finish()

    def ask(part, method, *args):
        """Shard ``part``'s ``method``, here or in its worker."""
        return (part.call(method, *args) if isinstance(part, _RemoteShard)
                else getattr(part, method)(*args))
    sha = Hasher()
    for step in range(STEPS):
        sha.feed(np.array([slot.curve[step] for slot in slots], np.float32))
    for shard_grads in zip(*[ask(part, "grads") for part in physics.parts]):
        sha.feed(np.concatenate(shard_grads))
    states, outputs = zip(*[ask(part, "finish", held_out[lo:hi])
                            for part, (lo, hi, _) in zip(physics.parts,
                                                         cuts)])
    for key in states[0]:
        sha.feed(np.concatenate([state[key] for state in states]), key)
    sha.feed(np.concatenate(outputs))
    return sha.sha.hexdigest()


def cycle_digest(mode):
    """The hex digest of the ``mlp 2xw4`` cycle in ``mode`` (module
    docstring)."""
    import numpy as np

    from bench_e2e.models import mlp_builder
    from repro.runtime import ArrayPolicy, TrainingArrayEngine, \
        TrainingJob, shards

    build = mlp_builder(32, 64, 10)

    def stream(seed):
        rng = np.random.default_rng([1, seed])
        return [(rng.standard_normal((16, 32)).astype(np.float32),
                 rng.integers(0, 10, size=16))
                for _ in range(STEPS)].__getitem__
    def config(i):
        if i < 4:
            return {"optimizer": "adam", "lr": 1e-3 * (1 + i)}
        return {"optimizer": "sgd", "lr": 1e-2 * (1 + i), "momentum": 0.9}
    jobs = [TrainingJob(name=f"mlp{i}", seed=i, steps=STEPS, epoch_steps=1,
                        config=config(i), build_model=build, data=stream(i))
            for i in range(8)]
    cpus = shards.cpus
    if mode == "1-proc":
        shards.cpus = lambda: 1
    try:
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=4))
        engine.submit_all(jobs)
        results = sorted(engine.run_until_idle().values(),
                         key=lambda r: r.name)
    finally:
        shards.cpus = cpus
    sha = Hasher()
    for result in results:
        sha.feed(np.array(result.loss_curve, np.float32), result.name)
        for key, value in result.checkpoint.state_dict().items():
            sha.feed(value, key)
    return sha.sha.hexdigest()


def main() -> int:
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")     # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for name in MODELS:
        for label, width, mode in RUNS:
            run = digest if mode == "inline" else sharded_digest
            print(f"{name:<13} {label:<6} {mode:<7} {run(name, width)}",
                  flush=True)
    for mode in ("1-proc", "spread"):
        print(f"{'mlp':<13} {'2xw4':<6} {mode:<7} {cycle_digest(mode)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
