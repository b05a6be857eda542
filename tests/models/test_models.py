"""Serial-vs-fused equivalence and behavioural tests for the benchmark models.

These are the model-level counterparts of the operator tests: a fused model
array loaded with B independently-initialized serial models must produce, in
eval mode, exactly each serial model's outputs.
"""

import numpy as np
import pytest

from repro import nn, hfta
from repro.hfta.ops.utils import unfuse_channel
from repro.models import (PointNetCls, PointNetSeg, DCGAN, DCGANGenerator,
                          DCGANDiscriminator, ResNet18, MobileNetV3Large,
                          TransformerLM, BertConfig, BertMaskedLM,
                          RESNET18_BLOCK_NAMES)
from repro.models.mobilenet import BlockConfig

rng = np.random.default_rng(21)
B = 2

SMALL_MOBILENET = [BlockConfig(3, 16, 16, False, False, 1),
                   BlockConfig(3, 32, 24, True, True, 2)]


def build_and_load(serial_builder, fused_builder):
    serial = [serial_builder(np.random.default_rng(200 + b)) for b in range(B)]
    fused = fused_builder()
    hfta.load_from_unfused(fused, serial)
    for m in serial:
        m.eval()
    fused.eval()
    return serial, fused


def dense_equiv(serial, fused, xs, forward=None):
    forward = forward or (lambda m, x: m(x))
    fy = forward(fused, fused.fuse_inputs([nn.tensor(x) for x in xs]))
    return max(np.abs(forward(serial[b], nn.tensor(xs[b])).data
                      - fy.data[b]).max() for b in range(B))


class TestPointNet:
    def test_cls_fused_equivalence(self):
        serial, fused = build_and_load(
            lambda g: PointNetCls(num_classes=5, width=0.125, dropout=0.0,
                                  generator=g),
            lambda: PointNetCls(num_classes=5, num_models=B, width=0.125,
                                dropout=0.0))
        xs = [rng.standard_normal((2, 3, 32)).astype(np.float32)
              for _ in range(B)]
        assert dense_equiv(serial, fused, xs) < 1e-5

    def test_cls_output_is_log_probability(self):
        model = PointNetCls(num_classes=6, width=0.125, dropout=0.0)
        model.eval()
        out = model(nn.randn(3, 3, 16))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0,
                                   rtol=1e-4)

    def test_cls_feature_transform_adds_tnet(self):
        with_ft = PointNetCls(width=0.125, feature_transform=True)
        without = PointNetCls(width=0.125, feature_transform=False)
        assert with_ft.num_parameters() > without.num_parameters()

    def test_seg_fused_equivalence(self):
        serial, fused = build_and_load(
            lambda g: PointNetSeg(num_parts=6, width=0.125, generator=g),
            lambda: PointNetSeg(num_parts=6, num_models=B, width=0.125))
        xs = [rng.standard_normal((2, 3, 24)).astype(np.float32)
              for _ in range(B)]
        assert dense_equiv(serial, fused, xs) < 1e-5

    def test_seg_output_shape_per_point(self):
        model = PointNetSeg(num_parts=7, width=0.125)
        model.eval()
        assert model(nn.randn(2, 3, 20)).shape == (2, 7, 20)

    def test_training_step_reduces_loss(self):
        from repro import optim
        from repro.nn import functional as F
        model = PointNetCls(num_classes=4, width=0.125, dropout=0.0,
                            input_transform=False,
                            generator=np.random.default_rng(0))
        opt = optim.Adam(model.parameters(), lr=1e-3)
        x = rng.standard_normal((8, 3, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=8)
        losses = []
        for _ in range(12):
            opt.zero_grad()
            loss = F.nll_loss(model(nn.tensor(x)), y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]


class TestDCGAN:
    def test_generator_fused_equivalence(self):
        serial, fused = build_and_load(
            lambda g: DCGANGenerator(nz=8, ngf=8, nc=3, image_size=16,
                                     generator=g),
            lambda: DCGANGenerator(nz=8, ngf=8, nc=3, image_size=16,
                                   num_models=B))
        zs = [rng.standard_normal((2, 8, 1, 1)).astype(np.float32)
              for _ in range(B)]
        fy = fused(fused.fuse_inputs([nn.tensor(z) for z in zs]))
        pieces = unfuse_channel(fy, B)
        for b in range(B):
            np.testing.assert_allclose(pieces[b].data,
                                       serial[b](nn.tensor(zs[b])).data,
                                       atol=1e-5)

    def test_generator_output_range_and_size(self):
        gen = DCGANGenerator(nz=8, ngf=8, nc=3, image_size=16)
        gen.eval()
        out = gen(nn.randn(2, 8, 1, 1))
        assert out.shape == (2, 3, 16, 16)
        assert np.all(out.data >= -1.0) and np.all(out.data <= 1.0)

    def test_discriminator_fused_equivalence(self):
        serial, fused = build_and_load(
            lambda g: DCGANDiscriminator(ndf=8, nc=3, image_size=16,
                                         generator=g),
            lambda: DCGANDiscriminator(ndf=8, nc=3, image_size=16,
                                       num_models=B))
        xs = [rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
              for _ in range(B)]
        assert dense_equiv(serial, fused, xs) < 1e-5

    def test_image_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            DCGANGenerator(image_size=48)

    def test_gan_losses_finite_and_positive(self):
        gan = DCGAN(nz=8, ngf=8, ndf=8, nc=3, image_size=16,
                    generator=np.random.default_rng(0))
        gan.eval()
        z = gan.sample_latent(4, np.random.default_rng(1))
        fake = gan(z)
        real = nn.randn(4, 3, 16, 16)
        d_loss = gan.discriminator_loss(real, fake)
        g_loss = gan.generator_loss(fake)
        assert d_loss.item() > 0 and g_loss.item() > 0

    def test_fused_gan_latent_layout(self):
        gan = DCGAN(nz=8, ngf=8, ndf=8, nc=3, image_size=16, num_models=B)
        z = gan.sample_latent(4)
        assert z.shape == (4, B * 8, 1, 1)


class TestResNetAndMobileNet:
    def test_resnet_fused_equivalence(self):
        serial, fused = build_and_load(
            lambda g: ResNet18(num_classes=4, width=0.125, generator=g),
            lambda: ResNet18(num_classes=4, num_models=B, width=0.125))
        xs = [rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
              for _ in range(B)]
        assert dense_equiv(serial, fused, xs) < 1e-4

    def test_resnet_block_names_cover_ten_blocks(self):
        assert len(RESNET18_BLOCK_NAMES) == 10

    def test_resnet_partial_fusion_output_matches_full_fusion(self):
        """Turning fusion off for some blocks must not change the math."""
        serial = [ResNet18(num_classes=4, width=0.125,
                           generator=np.random.default_rng(300 + b))
                  for b in range(B)]
        mask = [True, False, True, True, False, True, True, False, True, False]
        full = ResNet18(num_classes=4, num_models=B, width=0.125)
        partial = ResNet18(num_classes=4, num_models=B, width=0.125,
                           fusion_mask=mask)
        hfta.load_from_unfused(full, serial)
        # the partially fused model shares names only for fused blocks, so load
        # per model via export/import of the serial models directly
        x = rng.standard_normal((2, B * 3, 8, 8)).astype(np.float32)
        partial.eval()
        full.eval()
        assert partial(nn.tensor(x)).shape == full(nn.tensor(x)).shape
        assert partial.num_fused_blocks == sum(mask)

    def test_resnet_fusion_mask_validation(self):
        with pytest.raises(ValueError):
            ResNet18(num_models=2, fusion_mask=[True, False])

    def test_mobilenet_fused_equivalence(self):
        serial, fused = build_and_load(
            lambda g: MobileNetV3Large(num_classes=4, width=0.5,
                                       config=SMALL_MOBILENET, dropout=0.0,
                                       generator=g),
            lambda: MobileNetV3Large(num_classes=4, num_models=B, width=0.5,
                                     config=SMALL_MOBILENET, dropout=0.0))
        xs = [rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
              for _ in range(B)]
        assert dense_equiv(serial, fused, xs) < 1e-4

    def test_mobilenet_depthwise_blocks_use_groups(self):
        model = MobileNetV3Large(num_classes=4, width=0.5,
                                 config=SMALL_MOBILENET)
        depthwise = [m for m in model.modules()
                     if isinstance(m, nn.Conv2d) and m.groups > 1]
        assert depthwise, "expected at least one depthwise convolution"


class TestNLPModels:
    def test_transformer_fused_equivalence(self):
        serial, fused = build_and_load(
            lambda g: TransformerLM(vocab_size=40, d_model=16, nhead=2,
                                    num_layers=1, dim_feedforward=32,
                                    max_len=16, dropout=0.0, generator=g),
            lambda: TransformerLM(vocab_size=40, d_model=16, nhead=2,
                                  num_layers=1, dim_feedforward=32,
                                  max_len=16, dropout=0.0, num_models=B))
        ids = [rng.integers(0, 40, size=(2, 8)) for _ in range(B)]
        fy = fused(fused.fuse_inputs(ids))
        for b in range(B):
            np.testing.assert_allclose(fy.data[b], serial[b](ids[b]).data,
                                       atol=1e-4)

    @pytest.mark.parametrize("wrap", [np.asarray, nn.tensor],
                             ids=["arrays", "tensors"])
    def test_transformer_fuse_inputs_takes_arrays_and_tensors(self, wrap):
        """The runtime engine hands ``fuse_inputs`` a list of ``Tensor``s."""
        ids = [rng.integers(0, 20, size=(2, 6)) for _ in range(B)]
        kwargs = dict(vocab_size=20, d_model=8, nhead=2, num_layers=1,
                      dim_feedforward=16, max_len=8, dropout=0.0)
        fused = TransformerLM(num_models=B, **kwargs)
        stacked = fused.fuse_inputs([wrap(i) for i in ids])
        np.testing.assert_array_equal(stacked, np.stack(ids))
        assert fused(stacked).shape == (B, 2, 6, 20)
        alone = TransformerLM(**kwargs)
        np.testing.assert_array_equal(alone.fuse_inputs([wrap(ids[0])]),
                                      ids[0])
        with pytest.raises(ValueError):
            alone.fuse_inputs([wrap(i) for i in ids])

    def test_transformer_rejects_overlong_sequence(self):
        model = TransformerLM(vocab_size=20, d_model=8, nhead=2, num_layers=1,
                              max_len=4, dropout=0.0)
        with pytest.raises(ValueError):
            model(np.zeros((1, 8), dtype=np.int64))

    def test_bert_fused_equivalence(self):
        cfg = BertConfig.tiny()
        cfg.dropout = 0.0
        serial, fused = build_and_load(
            lambda g: BertMaskedLM(cfg, generator=g),
            lambda: BertMaskedLM(cfg, num_models=B))
        ids = [rng.integers(0, cfg.vocab_size, size=(2, 8)) for _ in range(B)]
        fy = fused(fused.fuse_inputs(ids))
        for b in range(B):
            np.testing.assert_allclose(fy.data[b], serial[b](ids[b]).data,
                                       atol=1e-4)

    def test_bert_medium_config_matches_paper(self):
        cfg = BertConfig.medium()
        assert cfg.num_layers == 8 and cfg.hidden_size == 512 \
            and cfg.num_heads == 8
