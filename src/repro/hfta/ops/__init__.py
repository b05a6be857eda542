"""Horizontally fused operators (the heart of HFTA).

Each class here is the fused counterpart of an operator with parameters from
the layer zoo in :mod:`repro.nn.modules`: it carries an extra *array*
dimension ``B`` (the number of horizontally fused models) on every
parameter and executes the ``B`` models' operators as a single, larger,
mathematically equivalent operator (Table 6 of the paper).

Table 6's parameter-free rows (activations, pooling, dropout) have no class
here: the serial layer applied to the fused layout already is the fused
operator, so :class:`~repro.hfta.ops.factory.OpsLibrary` hands out the
:mod:`repro.nn` class for them.
"""

from .conv import Conv1d, Conv2d, ConvTranspose1d, ConvTranspose2d
from .linear import Linear
from .norm import BatchNorm1d, BatchNorm2d, LayerNorm
from .embedding import Embedding
from .attention import MultiheadAttention, TransformerEncoderLayer
from .utils import (fuse_channel, unfuse_channel, fuse_batch, unfuse_batch,
                    channel_to_batch, batch_to_channel)

__all__ = [
    "Conv1d", "Conv2d", "ConvTranspose1d", "ConvTranspose2d", "Linear",
    "BatchNorm1d", "BatchNorm2d", "LayerNorm", "Embedding",
    "MultiheadAttention", "TransformerEncoderLayer",
    "fuse_channel", "unfuse_channel", "fuse_batch", "unfuse_batch",
    "channel_to_batch", "batch_to_channel",
]
