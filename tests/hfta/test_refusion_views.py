"""Aliasing regressions for zero-copy re-fusion.

``split_fused``/``split_optimizer`` return *views* along the array
dimension for contiguous keep sets and gathers otherwise; these tests pin
the properties the elastic runtime's correctness rests on:

* a split holds exactly the parent's arrays fancy-indexed by the keep set
  (``value[keep]``; buffers read as ``[B, c, ...]``) across the whole
  re-fusion op-family matrix of ``test_refusion.py``;
* aliasing is confined to the documented contract — a detached child and
  its narrowed parent occupy *disjoint* slices, so mutating one never
  corrupts the other, and a merge always materializes fresh memory;
* every buffer is per-model: a split or merge names one that is not, and
  an export names a fused buffer that is not block-folded.

The per-model loss values ride along here: they must equal ``B`` serial
criterion calls bitwise.
"""

import copy

import numpy as np
import pytest

from repro import hfta, nn
from repro.hfta.fusion import contiguous_run
from repro.hfta.losses import (FusedBCELoss, FusedCrossEntropyLoss,
                               FusedMSELoss, FusedNLLLoss)
from repro.hfta.optim import split_optimizer
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .test_refusion import (B, FAMILIES, assert_arrays_equal, build_family,
                            fake_step, make_optimizer, randomize)

CONTIGUOUS_KEEPS = ([0, 1], [1, 2, 3], [2], [0, 1, 2, 3])
FANCY_KEEPS = ([0, 2], [3, 1], [0, 3])


def slots(buf, width=B):
    """A block-folded ``[B * c, ...]`` buffer read as ``[B, c, ...]``."""
    return buf.reshape((width, -1) + buf.shape[1:])


# --------------------------------------------------------------------- #
class TestViewEqualsGather:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("keep", CONTIGUOUS_KEEPS + FANCY_KEEPS,
                             ids=str)
    def test_split_matches_fancy_indexing(self, family, keep):
        fused = randomize(build_family(family))
        sub = hfta.split_fused(fused, keep)
        context = f"{family} keep={keep}"
        for (name, p_sub), (_, p_full) in zip(sub.named_parameters(),
                                              fused.named_parameters()):
            np.testing.assert_array_equal(p_sub.data, p_full.data[keep],
                                          err_msg=f"{context} {name}")
        for (name, b_sub), (_, b_full) in zip(sub.named_buffers(),
                                              fused.named_buffers()):
            np.testing.assert_array_equal(
                slots(b_sub, len(keep)), slots(b_full)[keep],
                err_msg=f"{context} {name}")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_contiguous_split_returns_views(self, family):
        fused = randomize(build_family(family))
        sub = hfta.split_fused(fused, [1, 2])
        for (name, p_sub), (_, p_full) in zip(sub.named_parameters(),
                                              fused.named_parameters()):
            assert np.shares_memory(p_sub.data, p_full.data), name

    @pytest.mark.parametrize("family", FAMILIES)
    def test_noncontiguous_split_owns_memory(self, family):
        fused = randomize(build_family(family))
        sub = hfta.split_fused(fused, [0, 2])
        for (name, p_sub), (_, p_full) in zip(sub.named_parameters(),
                                              fused.named_parameters()):
            assert not np.shares_memory(p_sub.data, p_full.data), name

    @pytest.mark.parametrize("family", FAMILIES)
    def test_merge_of_views_materializes_fresh_memory(self, family):
        fused = randomize(build_family(family))
        left, right = hfta.split_fused(fused, [0, 1]), \
            hfta.split_fused(fused, [2, 3])
        merged = hfta.merge_fused(left, right)
        assert_arrays_equal(fused, merged, family)
        for (name, p_m), (_, p_f) in zip(merged.named_parameters(),
                                         fused.named_parameters()):
            assert not np.shares_memory(p_m.data, p_f.data), name

    @pytest.mark.parametrize("kind", ("adam", "adamw", "sgd", "adadelta"))
    @pytest.mark.parametrize("keep", ([1, 2], [3, 0]), ids=str)
    def test_optimizer_split_matches_fancy_indexing(self, kind, keep):
        fused = randomize(build_family("linear"))
        opt = make_optimizer(kind, fused, B, [1e-3 * (b + 1)
                                              for b in range(B)])
        fake_step(fused, opt)
        sub = hfta.split_fused(fused, keep)
        part = split_optimizer(opt, sub.parameters(), keep)
        for p_old, p_new in zip(fused.parameters(), sub.parameters()):
            st_old = opt.state.get(id(p_old)) or {}
            st_new = part.state.get(id(p_new)) or {}
            assert set(st_new) == set(st_old)
            for key, value in st_old.items():
                np.testing.assert_array_equal(st_new[key], value[keep],
                                              err_msg=f"{kind} {key}")
        np.testing.assert_array_equal(part.param_groups[0]["lr"],
                                      opt.param_groups[0]["lr"][keep])

    def test_contiguous_run_detection(self):
        assert contiguous_run([1, 2, 3]) == (1, 4)
        assert contiguous_run([0]) == (0, 1)
        assert contiguous_run([0, 2]) is None
        assert contiguous_run([2, 1]) is None
        assert contiguous_run([]) is None


# --------------------------------------------------------------------- #
class TestAliasingContract:
    """Mutation through one side of a partition never reaches the other."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mutating_detached_view_never_corrupts_survivors(self, family):
        fused = randomize(build_family(family))
        baseline = copy.deepcopy(hfta.split_fused(fused, [2, 3]))
        detached = hfta.split_fused(fused, [0, 1])   # views
        survivors = hfta.split_fused(fused, [2, 3])  # disjoint views

        for p in detached.parameters():
            p.data[...] = -123.0                     # clobber the child
        for _, buf in detached.named_buffers():
            if buf is not None and np.issubdtype(buf.dtype, np.floating):
                buf[...] = -321.0

        assert_arrays_equal(survivors, baseline,
                            f"{family} survivors after child mutation")

    def test_optimizer_partition_steps_disjointly(self):
        """In-place optimizer steps on both halves of a partition land in
        disjoint slices: each half's state stays serial-equivalent."""
        def parent():
            fused = randomize(build_family("linear"))
            opt = make_optimizer("adam", fused, B, [1e-3] * B)
            fake_step(fused, opt)
            return fused, opt

        def half(fused, opt, keep):
            part = hfta.split_fused(fused, keep)
            return part, split_optimizer(opt, part.parameters(), keep)

        fused, opt = parent()
        left, right = half(fused, opt, [0, 1]), half(fused, opt, [2, 3])
        # the control: each half split from its own identical parent, so
        # nothing but that half ever writes its memory
        ctl_left, ctl_right = half(*parent(), [0, 1]), \
            half(*parent(), [2, 3])

        rng = np.random.default_rng(21)
        grads = [rng.standard_normal(p.shape).astype(np.float32)
                 for p in fused.parameters()]
        for (model, optimizer), part in ((left, slice(0, 2)),
                                         (right, slice(2, 4)),
                                         (ctl_left, slice(0, 2)),
                                         (ctl_right, slice(2, 4))):
            for p, g in zip(model.parameters(), grads):
                p.grad = g[part].copy()
            optimizer.step()
            optimizer.step()

        assert_arrays_equal(left[0], ctl_left[0], "left half after steps")
        assert_arrays_equal(right[0], ctl_right[0], "right half after steps")

    def test_state_dict_owns_its_memory(self):
        fused = randomize(build_family("linear"))
        snap = fused.state_dict()
        for p in fused.parameters():
            p.data[...] = 7.0
        for name, value in snap.items():
            assert not np.all(value == 7.0), name


# --------------------------------------------------------------------- #
class TestEveryBufferIsPerModel:
    """Split, merge and export name a buffer outside the layout rule."""

    def test_split_names_a_buffer_that_is_not_per_model(self):
        fused = build_family("linear")
        fused.register_buffer("stats", np.zeros(B + 1, np.float32))
        with pytest.raises(ValueError, match="stats"):
            hfta.split_fused(fused, [0, 1])

    def test_split_names_a_scalar_buffer(self):
        fused = build_family("linear")
        fused.register_buffer("count", np.zeros((), np.float32))
        with pytest.raises(ValueError, match="count"):
            hfta.split_fused(fused, [0, 1])

    def test_merge_names_a_buffer_that_is_not_per_model(self):
        fused = build_family("linear")
        fused.register_buffer("stats", np.zeros(B + 1, np.float32))
        with pytest.raises(ValueError, match="stats"):
            hfta.merge_fused(fused, build_family("linear"))
        with pytest.raises(ValueError, match="stats"):
            hfta.merge_fused(build_family("linear"), fused)

    def test_export_names_a_leading_dim_buffer(self):
        fused = build_family("linear")
        fused.register_buffer("scale", np.zeros((B, 3), np.float32))
        template = nn.Sequential(nn.Linear(6, 5), nn.ReLU(), nn.Linear(5, 2))
        template.register_buffer("scale", np.zeros(3, np.float32))
        with pytest.raises(ValueError, match="scale"):
            hfta.export_to_unfused(fused, 0, template)


# --------------------------------------------------------------------- #
#: per-model values recorded on these inputs (float32, hex) from the
#: separate numpy logging pass the criteria used to run: matching them
#: keeps every loss curve logged since bit-identical
RECORDED = {
    "cross_entropy": ("0x1.ce51a8p+0", "0x1.08e384p+1", "0x1.bc5322p+0",
                      "0x1.3c6baap+1"),
    "cross_entropy_extra_dims": ("0x1.0d6394p+1", "0x1.fc6864p+0",
                                 "0x1.340d84p+1", "0x1.f2c11cp+0"),
    "nll": ("0x1.a22be6p-1", "0x1.d82c88p-1", "0x1.cb2796p-1",
            "0x1.0c59bep-1"),
    "mse": ("0x1.1d6b90p+1", "0x1.9fe09ap+0", "0x1.85ab00p+1",
            "0x1.457670p+0"),
    "bce": ("0x1.774028p+0", "0x1.684d92p+0", "0x1.2775dap+0",
            "0x1.3f1d52p+0"),
    "tensor_target": ("0x1.5dc460p+0", "0x1.9606fap+0", "0x1.9dfd2ap+0",
                      "0x1.0e49dep+1"),
}


def serial_cross_entropy(logits, target):
    return F.cross_entropy(logits.reshape(-1, logits.shape[-1]),
                           target.reshape(-1))


def serial_nll(log_probs, target):
    return F.nll_loss(log_probs.reshape(-1, log_probs.shape[-1]),
                      target.reshape(-1))


class TestVectorizedPerModelLosses:
    """``per_model(...).data`` equals ``B`` serial ``F.*`` calls and the
    recorded values, bitwise."""

    @staticmethod
    def check(case, crit, prediction, target, serial):
        values = crit.per_model(prediction, target).data
        tgt = target.data if isinstance(target, Tensor) else target
        np.testing.assert_array_equal(
            values, [serial(prediction[b], tgt[b]).data for b in range(B)])
        np.testing.assert_array_equal(
            values, [float.fromhex(v) for v in RECORDED[case]])

    def test_cross_entropy(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((B, 9, 5)).astype(np.float32))
        tgt = rng.integers(0, 5, size=(B, 9))
        self.check("cross_entropy", FusedCrossEntropyLoss(B), logits, tgt,
                   serial_cross_entropy)

    def test_cross_entropy_extra_dims(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((B, 3, 4, 6)).astype(np.float32))
        tgt = rng.integers(0, 6, size=(B, 3, 4))
        self.check("cross_entropy_extra_dims", FusedCrossEntropyLoss(B),
                   logits, tgt, serial_cross_entropy)

    def test_nll(self):
        rng = np.random.default_rng(2)
        lp = Tensor(np.log(rng.random((B, 9, 5)).astype(np.float32) + 1e-3))
        tgt = rng.integers(0, 5, size=(B, 9))
        self.check("nll", FusedNLLLoss(B), lp, tgt, serial_nll)

    def test_mse(self):
        rng = np.random.default_rng(3)
        pred = Tensor(rng.standard_normal((B, 9, 3)).astype(np.float32))
        tgt = rng.standard_normal((B, 9, 3)).astype(np.float32)
        self.check("mse", FusedMSELoss(B), pred, tgt, F.mse_loss)

    def test_bce(self):
        rng = np.random.default_rng(4)
        prob = Tensor(rng.random((B, 9)).astype(np.float32))
        tgt = rng.integers(0, 2, size=(B, 9)).astype(np.float32)
        self.check("bce", FusedBCELoss(B), prob, tgt,
                   F.binary_cross_entropy)

    def test_tensor_target_accepted(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.standard_normal((B, 9, 5)).astype(np.float32))
        tgt = Tensor(rng.integers(0, 5, size=(B, 9)).astype(np.float32))
        self.check("tensor_target", FusedCrossEntropyLoss(B), logits, tgt,
                   serial_cross_entropy)
