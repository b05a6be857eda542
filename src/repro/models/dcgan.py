"""DCGAN (Radford et al., 2016) — the paper's compute-bound major benchmark.

The generator is a stack of ``ConvTranspose2d`` + ``BatchNorm2d`` + ``ReLU``
blocks mapping a latent vector to a ``64x64`` RGB image; the discriminator is
the mirrored ``Conv2d`` + ``BatchNorm2d`` + ``LeakyReLU`` stack ending in a
sigmoid.  Both halves can be built unfused or as an HFTA array, and a
:class:`DCGAN` convenience wrapper bundles the pair with the standard
alternating training step (so the examples and the convergence tests share
one code path).

Shapes follow the PyTorch official DCGAN example the paper uses: latent size
``nz=100``, base generator width ``ngf=64``, base discriminator width
``ndf=64``, image size ``64``.  ``image_size=16/32`` (with proportionally
fewer up/down-sampling stages) is supported so unit tests stay fast.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..hfta.ops.factory import OpsLibrary
from ..nn.tensor import Tensor

__all__ = ["DCGANGenerator", "DCGANDiscriminator", "DCGAN"]


def _num_stages(image_size: int) -> int:
    """Number of stride-2 stages between 4x4 and the full image size."""
    if image_size < 8 or image_size & (image_size - 1) != 0:
        raise ValueError("image_size must be a power of two >= 8")
    return int(math.log2(image_size // 4))


class DCGANGenerator(nn.Module):
    """DCGAN generator: ``[N, (B*)nz, 1, 1] -> [N, (B*)nc, H, W]`` (tanh)."""

    def __init__(self, nz: int = 100, ngf: int = 64, nc: int = 3,
                 image_size: int = 64, num_models: Optional[int] = None,
                 generator=None):
        super().__init__()
        self.lib = OpsLibrary(num_models)
        lib = self.lib
        self.nz, self.ngf, self.nc, self.image_size = nz, ngf, nc, image_size
        stages = _num_stages(image_size)
        widths = [ngf * (2 ** i) for i in reversed(range(stages))]

        blocks: List[nn.Module] = []
        # 1x1 -> 4x4
        blocks.append(lib.ConvTranspose2d(nz, widths[0], 4, 1, 0, bias=False,
                                          generator=generator))
        blocks.append(lib.BatchNorm2d(widths[0]))
        blocks.append(lib.ReLU())
        # 4x4 -> image_size/2
        for i in range(stages - 1):
            blocks.append(lib.ConvTranspose2d(widths[i], widths[i + 1], 4, 2, 1,
                                              bias=False, generator=generator))
            blocks.append(lib.BatchNorm2d(widths[i + 1]))
            blocks.append(lib.ReLU())
        # final: -> image_size, nc channels, tanh
        blocks.append(lib.ConvTranspose2d(widths[-1], nc, 4, 2, 1, bias=False,
                                          generator=generator))
        blocks.append(lib.Tanh())
        self.main = nn.Sequential(*blocks)

    def fuse_inputs(self, latents: Sequence[Tensor]) -> Tensor:
        return self.lib.fuse_conv_inputs(latents)

    def forward(self, z: Tensor) -> Tensor:
        return self.main(z)


class DCGANDiscriminator(nn.Module):
    """DCGAN discriminator: ``[N, (B*)nc, H, W] -> [(B,) N]`` real-probabilities."""

    def __init__(self, ndf: int = 64, nc: int = 3, image_size: int = 64,
                 num_models: Optional[int] = None, generator=None):
        super().__init__()
        self.lib = OpsLibrary(num_models)
        lib = self.lib
        self.ndf, self.nc, self.image_size = ndf, nc, image_size
        stages = _num_stages(image_size)
        widths = [ndf * (2 ** i) for i in range(stages)]

        blocks: List[nn.Module] = []
        blocks.append(lib.Conv2d(nc, widths[0], 4, 2, 1, bias=False,
                                 generator=generator))
        blocks.append(lib.LeakyReLU(0.2))
        for i in range(stages - 1):
            blocks.append(lib.Conv2d(widths[i], widths[i + 1], 4, 2, 1,
                                     bias=False, generator=generator))
            blocks.append(lib.BatchNorm2d(widths[i + 1]))
            blocks.append(lib.LeakyReLU(0.2))
        # 4x4 -> 1x1 score
        blocks.append(lib.Conv2d(widths[-1], 1, 4, 1, 0, bias=False,
                                 generator=generator))
        blocks.append(lib.Sigmoid())
        self.main = nn.Sequential(*blocks)

    def fuse_inputs(self, images: Sequence[Tensor]) -> Tensor:
        return self.lib.fuse_conv_inputs(images)

    def forward(self, x: Tensor) -> Tensor:
        out = self.main(x)  # [N, (B*)1, 1, 1]
        if self.lib.fused:
            n = out.shape[0]
            return out.reshape(n, self.lib.num_models).permute(1, 0)  # [B, N]
        return out.reshape(out.shape[0])


class DCGAN(nn.Module):
    """Generator/discriminator pair with the standard alternating GAN step.

    The training step uses the non-saturating BCE formulation of the PyTorch
    DCGAN example.  The criterion comes from the library: fused, it sums the
    ``B`` per-model losses (Appendix C), so each GAN gets exactly the
    gradients it would get when trained alone.
    """

    def __init__(self, nz: int = 100, ngf: int = 64, ndf: int = 64, nc: int = 3,
                 image_size: int = 64, num_models: Optional[int] = None,
                 generator=None):
        super().__init__()
        self.lib = OpsLibrary(num_models)
        self.nz = nz
        self.generator = DCGANGenerator(nz, ngf, nc, image_size, num_models,
                                        generator)
        self.discriminator = DCGANDiscriminator(ndf, nc, image_size,
                                                num_models, generator)

    def sample_latent(self, batch_size: int,
                      rng: Optional[np.random.Generator] = None) -> Tensor:
        """Sample latent noise in the correct (fused or unfused) layout."""
        rng = rng if rng is not None else np.random.default_rng()
        b = self.lib.B
        z = rng.standard_normal((batch_size, b * self.nz, 1, 1)).astype(np.float32)
        if not self.lib.fused:
            z = z.reshape(batch_size, self.nz, 1, 1)
        return nn.tensor(z)

    def forward(self, z: Tensor) -> Tensor:
        return self.generator(z)

    def discriminator_loss(self, real: Tensor, fake: Tensor) -> Tensor:
        """BCE loss for the discriminator on a batch of real and fake images."""
        criterion = self.lib.BCELoss()
        d_real = self.discriminator(real)
        d_fake = self.discriminator(fake)
        ones = np.ones(d_real.shape, dtype=np.float32)
        zeros = np.zeros(d_fake.shape, dtype=np.float32)
        return criterion(d_real, ones) + criterion(d_fake, zeros)

    def generator_loss(self, fake: Tensor) -> Tensor:
        """Non-saturating generator loss (label fake images as real)."""
        d_fake = self.discriminator(fake)
        ones = np.ones(d_fake.shape, dtype=np.float32)
        return self.lib.BCELoss()(d_fake, ones)
