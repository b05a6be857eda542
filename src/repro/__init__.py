"""repro — a reproduction of *Horizontally Fused Training Array* (MLSys 2021).

Top-level subpackages
---------------------
``repro.nn``
    Numpy-backed tensor/autograd substrate and the standard layer zoo.
``repro.optim``
    Unfused optimizers (serial baselines).
``repro.hfta``
    The paper's contribution: horizontally fused operators, optimizers,
    fused losses and model-array fusion helpers.
``repro.models``
    The paper's benchmark models (PointNet, DCGAN, ResNet-18,
    MobileNetV3-Large, Transformer-LM, BERT-Medium) in serial and fused form.
``repro.data``
    Synthetic stand-ins for ShapeNet-part, LSUN, CIFAR-10 and WikiText-2.
``repro.hwsim``
    Analytical accelerator performance/memory simulator used to regenerate
    the paper's throughput, memory-footprint, and utilization-counter
    figures for serial / concurrent / MPS / MIG / HFTA sharing.
``repro.cluster``
    GPU-cluster usage trace generation and the paper's repetitive-job
    classifier (Table 1 / Figures 9-10).
``repro.runtime``
    Dynamic training-array runtime: accepts a live stream of heterogeneous
    training jobs, batches fusible ones into width-capped arrays (falling
    back to partial fusion), trains them, and hands back serial-equivalent
    checkpoints with throughput/occupancy accounting.
``repro.hfht``
    Horizontally Fused Hyper-parameter Tuning: random search and Hyperband
    over serial/concurrent/MPS/MIG baselines priced by ``repro.hwsim`` and
    an HFTA scheduler that runs each batch of trials on the runtime's
    virtual-time backend (Figure 8).

See ``docs/architecture.md`` for the layer-by-layer walkthrough and the
data-flow diagram connecting these subpackages.
"""

__version__ = "1.0.0"

from . import nn  # noqa: F401
from . import optim  # noqa: F401

__all__ = ["nn", "optim", "__version__"]
