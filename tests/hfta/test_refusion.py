"""Re-fusion round trip: split_fused / merge_fused are lossless.

The elastic array lifecycle rests on one property: slicing a fused array
apart and concatenating the pieces back reconstructs it *exactly* — in
parameters, buffers, and per-slot optimizer state — for every fusible
operator family.  These tests check

    merge_fused(split_fused(x, A), split_fused(x, B)) == x

for complementary contiguous partitions ``A``/``B`` (and slot-level
equality for arbitrary index subsets), across conv / linear / embedding /
attention / norm / dropout arrays, plus the matching optimizer-state
primitives for Adam / AdamW / SGD / Adadelta.
"""

import numpy as np
import pytest

from repro import hfta, nn
from repro.hfta import ops as hops
from repro.hfta.optim import (Adadelta, Adam, AdamW, SGD, merge_optimizers,
                              split_optimizer)

B = 4


def build_family(family, num_models=B):
    """A small fused model exercising one operator family."""
    if family == "conv":
        return nn.Sequential(
            hops.Conv2d(num_models, 3, 4, 3, padding=1),
            hops.BatchNorm2d(num_models, 4),
            nn.ReLU())
    if family == "linear":
        return nn.Sequential(
            hops.Linear(num_models, 6, 5),
            nn.ReLU(),
            hops.Linear(num_models, 5, 2))
    if family == "embedding":
        return nn.Sequential(hops.Embedding(num_models, 11, 6))
    if family == "attention":
        return nn.Sequential(
            hops.MultiheadAttention(num_models, 8, 2))
    if family == "norm":
        return nn.Sequential(hops.LayerNorm(num_models, 6))
    if family == "dropout":
        return nn.Sequential(
            hops.Linear(num_models, 6, 6),
            nn.Dropout(p=0.5))
    raise ValueError(family)


FAMILIES = ("conv", "linear", "embedding", "attention", "norm", "dropout")


def randomize(fused, seed=0):
    """Distinct values everywhere — fresh models hide indexing bugs."""
    rng = np.random.default_rng(seed)
    for _, p in fused.named_parameters():
        p.data[...] = rng.standard_normal(p.shape).astype(p.data.dtype)
    for name, buf in fused.named_buffers():
        if buf is not None and np.issubdtype(buf.dtype, np.floating):
            values = rng.standard_normal(buf.shape).astype(buf.dtype)
            # variances must stay positive (batch norm takes their sqrt)
            buf[...] = np.abs(values) + 0.5 if "var" in name else values
    return fused


def assert_arrays_equal(a, b, context=""):
    for (name, p_a), (_, p_b) in zip(a.named_parameters(),
                                     b.named_parameters()):
        np.testing.assert_array_equal(p_a.data, p_b.data,
                                      err_msg=f"{context} parameter {name}")
    for (name, b_a), (_, b_b) in zip(a.named_buffers(), b.named_buffers()):
        np.testing.assert_array_equal(b_a, b_b,
                                      err_msg=f"{context} buffer {name}")


# --------------------------------------------------------------------- #
class TestSplitMergeRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_contiguous_split_merge_is_identity(self, family):
        fused = randomize(build_family(family))
        left = hfta.split_fused(fused, [0, 1])
        right = hfta.split_fused(fused, [2, 3])
        merged = hfta.merge_fused(left, right)
        assert hfta.fused_array_width(merged) == B
        assert_arrays_equal(fused, merged, family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_uneven_split_merge_is_identity(self, family):
        fused = randomize(build_family(family), seed=1)
        merged = hfta.merge_fused(hfta.split_fused(fused, [0]),
                                  hfta.split_fused(fused, [1, 2, 3]))
        assert_arrays_equal(fused, merged, family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_arbitrary_subset_selects_the_right_slots(self, family):
        """split_fused([1, 3]) slot k must equal the original slot [1, 3][k]
        — verified through export_to_unfused against the original."""
        fused = randomize(build_family(family), seed=2)
        sub = hfta.split_fused(fused, [1, 3])
        assert hfta.fused_array_width(sub) == 2
        for new_slot, old_slot in enumerate([1, 3]):
            for (name, p_sub), (_, p_full) in zip(sub.named_parameters(),
                                                  fused.named_parameters()):
                np.testing.assert_array_equal(
                    p_sub.data[new_slot], p_full.data[old_slot],
                    err_msg=f"{family} {name} slot {old_slot}")

    def test_split_preserves_the_input_array(self):
        fused = randomize(build_family("conv"))
        before = fused.state_dict()
        hfta.split_fused(fused, [0, 2])
        for name, value in fused.state_dict().items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)

    def test_split_forward_matches_original_slots(self):
        """The narrowed array computes exactly what the kept slots computed
        inside the full array (channel-folded conv + batchnorm layout)."""
        fused = randomize(build_family("conv"))
        fused.eval()
        keep = [1, 2]
        sub = hfta.split_fused(fused, keep)
        sub.eval()
        rng = np.random.default_rng(3)
        per_model = [rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
                     for _ in range(B)]
        full_out = fused(nn.tensor(np.concatenate(per_model, axis=1)))
        sub_out = sub(nn.tensor(np.concatenate(
            [per_model[i] for i in keep], axis=1)))
        # channel-folded output: model b owns channels [b*4, (b+1)*4)
        full = full_out.data.reshape(2, B, 4, 6, 6)
        narrow = sub_out.data.reshape(2, len(keep), 4, 6, 6)
        for new_slot, old_slot in enumerate(keep):
            np.testing.assert_allclose(narrow[:, new_slot],
                                       full[:, old_slot], rtol=1e-6)

    def test_invalid_indices_rejected(self):
        fused = build_family("linear")
        with pytest.raises(ValueError, match="at least one"):
            hfta.split_fused(fused, [])
        with pytest.raises(ValueError, match="out of range"):
            hfta.split_fused(fused, [B])
        with pytest.raises(ValueError, match="duplicates"):
            hfta.split_fused(fused, [1, 1])

    def test_merge_rejects_structural_mismatch(self):
        with pytest.raises(ValueError, match="cannot merge"):
            hfta.merge_fused(build_family("linear"), build_family("conv"))
        narrow = nn.Sequential(hops.Linear(2, 6, 5), nn.ReLU(),
                               hops.Linear(2, 5, 3))   # different out dim
        with pytest.raises(ValueError, match="per-slot shape"):
            hfta.merge_fused(build_family("linear"), narrow)


# --------------------------------------------------------------------- #
def make_optimizer(kind, fused, num_models, lr):
    if kind == "adam":
        return Adam(fused.parameters(), num_models=num_models, lr=lr)
    if kind == "adamw":
        return AdamW(fused.parameters(), num_models=num_models, lr=lr)
    if kind == "sgd":
        return SGD(fused.parameters(), num_models=num_models, lr=lr,
                   momentum=0.9)
    if kind == "adadelta":
        return Adadelta(fused.parameters(), num_models=num_models, lr=lr)
    raise ValueError(kind)


def fake_step(fused, optimizer, seed=7):
    rng = np.random.default_rng(seed)
    for p in fused.parameters():
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
    optimizer.step()


class TestOptimizerRoundTrip:
    @pytest.mark.parametrize("kind", ("adam", "adamw", "sgd", "adadelta"))
    @pytest.mark.parametrize("family", ("conv", "linear"))
    def test_split_merge_preserves_state_and_vectors(self, kind, family):
        fused = randomize(build_family(family))
        lr = [1e-3 * (b + 1) for b in range(B)]
        opt = make_optimizer(kind, fused, B, lr)
        fake_step(fused, opt)

        left, right = hfta.split_fused(fused, [0, 1]), \
            hfta.split_fused(fused, [2, 3])
        opt_left = split_optimizer(opt, left.parameters(), [0, 1])
        opt_right = split_optimizer(opt, right.parameters(), [2, 3])
        merged = hfta.merge_fused(left, right)
        opt_merged = merge_optimizers(opt_left, opt_right,
                                      merged.parameters())

        assert opt_merged.num_models == B
        np.testing.assert_array_equal(opt_merged.param_groups[0]["lr"],
                                      opt.param_groups[0]["lr"])
        for p_old, p_new in zip(fused.parameters(), merged.parameters()):
            st_old = opt.state.get(id(p_old)) or {}
            st_new = opt_merged.state.get(id(p_new)) or {}
            assert set(st_old) == set(st_new)
            for key, value in st_old.items():
                np.testing.assert_array_equal(
                    value, st_new[key], err_msg=f"{kind} state {key}")

    def test_further_training_is_bit_identical_after_round_trip(self):
        """The acid test: stepping the round-tripped array produces exactly
        the parameters stepping the original would."""
        fused = randomize(build_family("linear"))
        opt = make_optimizer("adam", fused, B, [1e-3] * B)
        fake_step(fused, opt)

        merged = hfta.merge_fused(hfta.split_fused(fused, [0, 1]),
                                  hfta.split_fused(fused, [2, 3]))
        opt_merged = merge_optimizers(
            split_optimizer(opt, hfta.split_fused(fused, [0, 1]).parameters(),
                            [0, 1]),
            split_optimizer(opt, hfta.split_fused(fused, [2, 3]).parameters(),
                            [2, 3]),
            merged.parameters())
        # same grads -> same update on both sides
        rng = np.random.default_rng(11)
        grads = [rng.standard_normal(p.shape).astype(np.float32)
                 for p in fused.parameters()]
        for p, g in zip(fused.parameters(), grads):
            p.grad = g
        for p, g in zip(merged.parameters(), grads):
            p.grad = g
        opt.step()
        opt_merged.step()
        assert_arrays_equal(fused, merged, "post-round-trip step")

    def test_merge_with_fresh_optimizer_matches_lazy_initialization(self):
        """Admitting a never-stepped sub-array: its zero-filled state slots
        must behave exactly like lazy initialization (step counter 0)."""
        fused = randomize(build_family("linear"))
        opt = make_optimizer("adam", fused, B, [1e-3] * B)
        fake_step(fused, opt)
        fake_step(fused, opt, seed=8)

        stepped = hfta.split_fused(fused, [0, 1])
        opt_stepped = split_optimizer(opt, stepped.parameters(), [0, 1])
        fresh = randomize(build_family("linear", num_models=2), seed=9)
        opt_fresh = make_optimizer("adam", fresh, 2, [5e-3, 6e-3])

        merged = hfta.merge_fused(stepped, fresh)
        opt_merged = merge_optimizers(opt_stepped, opt_fresh,
                                      merged.parameters())
        first = next(iter(merged.parameters()))
        assert opt_merged.state[id(first)]["step"].tolist() == [2, 2, 0, 0]

        # one merged step == one step of each half trained separately
        rng = np.random.default_rng(12)
        grads = [rng.standard_normal(p.shape).astype(np.float32)
                 for p in merged.parameters()]
        for p, g in zip(merged.parameters(), grads):
            p.grad = g
        for p, g in zip(stepped.parameters(), grads):
            p.grad = g[:2]
        for p, g in zip(fresh.parameters(), grads):
            p.grad = g[2:]
        opt_merged.step()
        opt_stepped.step()
        opt_fresh.step()
        for p_m, p_s, p_f in zip(merged.parameters(), stepped.parameters(),
                                 fresh.parameters()):
            np.testing.assert_array_equal(p_m.data[:2], p_s.data)
            np.testing.assert_array_equal(p_m.data[2:], p_f.data)

    def test_merge_rejects_different_optimizer_classes(self):
        fused = build_family("linear")
        a = Adam(hfta.split_fused(fused, [0, 1]).parameters(), num_models=2)
        b = SGD(hfta.split_fused(fused, [2, 3]).parameters(), num_models=2)
        with pytest.raises(ValueError, match="different classes"):
            merge_optimizers(a, b, fused.parameters())


# --------------------------------------------------------------------- #
class TestStateDictRestore:
    def test_state_dict_rolls_back_parameters_and_buffers(self):
        """A fused array's ``state_dict`` is the model half of a resume
        (the batcher loads a checkpoint's model state into a fresh
        template with ``load_state_dict``): it must own its memory and
        restore parameters and batch-norm buffers exactly."""
        fused = randomize(build_family("conv"))
        saved = fused.state_dict()
        randomize(fused, seed=99)     # clobber everything
        fused.load_state_dict(saved)
        for name, value in fused.state_dict().items():
            np.testing.assert_array_equal(value, saved[name], err_msg=name)


# --------------------------------------------------------------------- #
class TestHyperParametersAcrossRefusion:
    """``defaults`` and group hyper-parameters through split and merge.

    A fused optimizer coerces its ``defaults`` to owned length-``B`` vectors
    at construction, like its groups, so re-fusion slices and joins both
    with the same code; these tests pin what that code promises."""

    LR = [1e-3, 2e-3, 3e-3, 4e-3]
    MOMENTUM = [0.9, 0.8, 0.0, 0.6]

    def sgd(self, fused, slots, **overrides):
        kwargs = dict(lr=[self.LR[b] for b in slots],
                      momentum=[self.MOMENTUM[b] for b in slots],
                      nesterov=True)
        kwargs.update(overrides)
        return SGD(fused.parameters(), num_models=len(slots), **kwargs)

    def test_optimizer_owns_its_vectors(self):
        """Neither the caller's array, nor ``defaults``, nor another group
        shares memory with a group's vector: retuning one retunes one."""
        fused = build_family("linear")
        params = fused.parameters()
        mine = np.array(self.LR)
        opt = SGD([dict(params=params[:1]), dict(params=params[1:])],
                  num_models=B, lr=mine, momentum=0.5)
        first, second = opt.param_groups
        first["lr"] *= 10                     # what an LR scheduler does
        np.testing.assert_array_equal(mine, self.LR)
        np.testing.assert_array_equal(second["lr"], self.LR)
        np.testing.assert_array_equal(opt.defaults["lr"], self.LR)
        mine[:] = 0.0
        np.testing.assert_array_equal(second["lr"], self.LR)
        # a scalar default is a length-B vector too
        np.testing.assert_array_equal(opt.defaults["momentum"], [0.5] * B)

    def test_split_slices_defaults_and_groups_alike(self):
        fused = build_family("linear")
        opt = self.sgd(fused, range(B))
        keep = [3, 1]
        part = split_optimizer(
            opt, hfta.split_fused(fused, keep).parameters(), keep)
        for values in (part.defaults, part.param_groups[0]):
            np.testing.assert_array_equal(values["lr"],
                                          [self.LR[b] for b in keep])
            np.testing.assert_array_equal(values["momentum"],
                                          [self.MOMENTUM[b] for b in keep])
            assert values["nesterov"] is True
        part.defaults["lr"][:] = 7.0          # copies, not views of the source
        part.param_groups[0]["momentum"][:] = 7.0
        np.testing.assert_array_equal(opt.defaults["lr"], self.LR)
        np.testing.assert_array_equal(opt.param_groups[0]["momentum"],
                                      self.MOMENTUM)

    def test_merge_joins_defaults_so_a_later_group_is_full_width(self):
        fused = build_family("linear")
        left = hfta.split_fused(fused, [0, 1])
        right = hfta.split_fused(fused, [2, 3])
        merged_model = hfta.merge_fused(left, right)
        params = merged_model.parameters()
        merged = merge_optimizers(self.sgd(left, [0, 1]),
                                  self.sgd(right, [2, 3]), params)
        for values in (merged.defaults, merged.param_groups[0]):
            np.testing.assert_array_equal(values["lr"], self.LR)
            np.testing.assert_array_equal(values["momentum"], self.MOMENTUM)
            assert values["nesterov"] is True
        assert merged.defaults["lr"] is not merged.param_groups[0]["lr"]
        merged.add_param_group(dict(params=params[:1], lr=0.5))
        late = merged.param_groups[-1]
        np.testing.assert_array_equal(late["lr"], [0.5] * B)
        np.testing.assert_array_equal(late["momentum"], self.MOMENTUM)

    def test_merge_requires_shared_values_to_agree(self):
        fused = build_family("linear")
        left = hfta.split_fused(fused, [0, 1])
        right = hfta.split_fused(fused, [2, 3])
        params = hfta.merge_fused(left, right).parameters()
        with pytest.raises(ValueError, match="'nesterov'.*differs"):
            merge_optimizers(self.sgd(left, [0, 1]),
                             self.sgd(right, [2, 3], nesterov=False), params)
        lopsided = self.sgd(right, [2, 3])
        del lopsided.param_groups[0]["momentum"]
        with pytest.raises(ValueError, match="'momentum' missing from second"):
            merge_optimizers(self.sgd(left, [0, 1]), lopsided, params)

    def test_parameter_count_must_match_the_optimizer(self):
        fused = build_family("linear")
        opt = self.sgd(fused, range(B))
        left = hfta.split_fused(fused, [0, 1])
        with pytest.raises(ValueError, match="parameter count mismatch"):
            split_optimizer(opt, left.parameters()[:-1], [0, 1])
        right = hfta.split_fused(fused, [2, 3])
        with pytest.raises(ValueError, match="parameter count mismatch"):
            merge_optimizers(self.sgd(left, [0, 1]), self.sgd(right, [2, 3]),
                             fused.parameters()[:-1])
