"""The per-slot optimizer state primitives the durable checkpoint layer
is built on: ``export_slot_state`` / ``load_slot_state``, whose
bit-exactness is what makes crash recovery
(:mod:`repro.runtime.checkpoint`) preserve the serial-equivalence
guarantee.
"""

import numpy as np
import pytest

from repro import hfta, nn
from repro.hfta import ops as hops
from repro.hfta.optim import (Adadelta, Adam, AdamW, SGD, export_slot_state,
                              load_slot_state, split_optimizer)

B = 4


def build_fused(num_models=B):
    return nn.Sequential(
        hops.Linear(num_models, 6, 5),
        nn.ReLU(),
        hops.Linear(num_models, 5, 2))


class SizeOneParams:
    """Bare fused parameters with one element per slot — the shapes a
    ``(1,)`` step counter out of the checkpoint codec could be taken for."""

    def __init__(self, num_models=B):
        rng = np.random.default_rng(5)
        self.tensors = [
            nn.Tensor(rng.standard_normal((num_models,) + shape)
                      .astype(np.float32), requires_grad=True)
            for shape in ((1,), (1, 1), (3, 1))]

    def parameters(self):
        return list(self.tensors)


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


def optimizer_state_by_position(optimizer):
    """Position-keyed deep copy of the state (ids change across restores)."""
    params = [p for g in optimizer.param_groups for p in g["params"]]
    return {i: {k: np.copy(v) for k, v in
                (optimizer.state.get(id(p)) or {}).items()}
            for i, p in enumerate(params)}


KINDS = ("adam", "adamw", "sgd", "adadelta")


# --------------------------------------------------------------------- #
class TestSlotStatePrimitives:
    @pytest.mark.parametrize("kind", KINDS)
    def test_export_matches_split_optimizer_slot(self, kind):
        """export_slot_state(opt, i) must equal what split_optimizer would
        hand slot i — the two per-slot paths cannot disagree."""
        fused = build_fused()
        opt = make_optimizer(kind, fused, B, [1e-3] * B)
        fake_step(fused, opt)
        for index in (0, 2, B - 1):
            exported = export_slot_state(opt, index)
            narrowed = hfta.split_fused(fused, [index])
            opt_slot = split_optimizer(opt, narrowed.parameters(), [index])
            reference = optimizer_state_by_position(opt_slot)
            assert set(exported) == {pos for pos, st in reference.items()
                                     if st}
            for pos, state in exported.items():
                for key, value in state.items():
                    np.testing.assert_array_equal(
                        value, reference[pos][key][0],
                        err_msg=f"{kind} slot {index} [{pos}] {key}")

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_into_fresh_optimizer_steps_bit_identically(self, kind):
        """The crash-recovery invariant at primitive level: export a
        slot, inject it into a *fresh* optimizer (lazy zero state), and
        further steps of that slot are bit-identical to never leaving."""
        fused = build_fused()
        opt = make_optimizer(kind, fused, B, [1e-3] * B)
        fake_step(fused, opt, seed=1)
        index = 2
        exported = export_slot_state(opt, index)

        resumed = build_fused()
        for p_new, p_old in zip(resumed.parameters(), fused.parameters()):
            p_new.data[...] = p_old.data
        opt_new = make_optimizer(kind, resumed, B, [1e-3] * B)
        load_slot_state(opt_new, index, exported)

        fake_step(fused, opt, seed=2)
        fake_step(resumed, opt_new, seed=2)
        for (name, p_old), (_, p_new) in zip(fused.named_parameters(),
                                             resumed.named_parameters()):
            np.testing.assert_array_equal(
                p_new.data[index], p_old.data[index],
                err_msg=f"{kind} {name} slot {index}")

    @pytest.mark.parametrize("kind", KINDS)
    def test_export_owns_its_memory(self, kind):
        """An export is a copy: further stepping of the live optimizer
        must not reach into a capture a checkpoint is about to encode."""
        fused = build_fused()
        opt = make_optimizer(kind, fused, B, [1e-3] * B)
        fake_step(fused, opt, seed=1)
        exported = export_slot_state(opt, 1)
        frozen = {pos: {k: np.copy(v) for k, v in st.items()}
                  for pos, st in exported.items()}
        fake_step(fused, opt, seed=2)
        assert set(exported) == set(frozen)
        for pos, state in exported.items():
            for key, value in state.items():
                np.testing.assert_array_equal(
                    value, frozen[pos][key], err_msg=f"{kind} [{pos}] {key}")

    def test_export_after_eviction_matches_the_kept_slot(self):
        """Eviction narrows the optimizer; a kept slot exports the same
        state at its new position as it did at its old one, and keeps
        its per-model learning rate."""
        fused = build_fused()
        opt = make_optimizer("adam", fused, B,
                             [1e-3 * (b + 1) for b in range(B)])
        fake_step(fused, opt, seed=1)
        narrowed = hfta.split_fused(fused, [1, 3])
        opt_narrow = split_optimizer(opt, narrowed.parameters(), [1, 3])
        for new_slot, old_slot in enumerate([1, 3]):
            before = export_slot_state(opt, old_slot)
            after = export_slot_state(opt_narrow, new_slot)
            assert set(after) == set(before)
            for pos, state in before.items():
                assert set(after[pos]) == set(state)
                for key, value in state.items():
                    np.testing.assert_array_equal(
                        after[pos][key], value,
                        err_msg=f"slot {old_slot} [{pos}] {key}")
        np.testing.assert_allclose(opt_narrow.param_groups[0]["lr"],
                                   [2e-3, 4e-3])

    def test_load_leaves_other_slots_at_lazy_init(self):
        """Injected zeros must equal lazy initialization: slots that never
        stepped behave exactly like a brand-new optimizer's."""
        fused = build_fused()
        opt = make_optimizer("adam", fused, B, [1e-3] * B)
        fake_step(fused, opt, seed=1)
        exported = export_slot_state(opt, 1)

        resumed = build_fused()
        reference = build_fused()
        for p_r, p_ref, p_old in zip(resumed.parameters(),
                                     reference.parameters(),
                                     fused.parameters()):
            p_r.data[...] = p_old.data
            p_ref.data[...] = p_old.data
        opt_resumed = make_optimizer("adam", resumed, B, [1e-3] * B)
        opt_reference = make_optimizer("adam", reference, B, [1e-3] * B)
        load_slot_state(opt_resumed, 1, exported)

        fake_step(resumed, opt_resumed, seed=3)
        fake_step(reference, opt_reference, seed=3)
        for (name, p_r), (_, p_ref) in zip(resumed.named_parameters(),
                                           reference.named_parameters()):
            for slot in (0, 2, 3):      # every slot except the injected one
                np.testing.assert_array_equal(
                    p_r.data[slot], p_ref.data[slot],
                    err_msg=f"{name} slot {slot}")

    @pytest.mark.parametrize("build", (build_fused, SizeOneParams),
                             ids=("mlp", "size-one"))
    @pytest.mark.parametrize("kind", KINDS)
    def test_float64_export_resumes_as_its_float32_cast(self, kind, build):
        """A checkpoint written while fused moments were float64 (and whose
        0-d step counter the codec stored as ``(1,)``) still resumes: the
        slot continues bit-identically to the same export cast to float32,
        and no float64 moment re-enters the optimizer — also where the
        parameter itself has one element per slot, like the counter."""
        fused = build()
        opt = make_optimizer(kind, fused, B, [1e-3] * B)
        fake_step(fused, opt, seed=1)
        index = 2
        old_export = {
            pos: {key: (value.reshape(1) if key == "step"
                        else value * (1 + 1e-10)).astype(np.float64)
                  for key, value in state.items()}
            for pos, state in export_slot_state(opt, index).items()}
        cast_export = {
            pos: {key: (value.reshape(()) if key == "step"
                        else value.astype(np.float32))
                  for key, value in state.items()}
            for pos, state in old_export.items()}

        runs = []
        for export in (old_export, cast_export):
            resumed = build()
            for p_new, p_old in zip(resumed.parameters(), fused.parameters()):
                p_new.data[...] = p_old.data
            opt_new = make_optimizer(kind, resumed, B, [1e-3] * B)
            load_slot_state(opt_new, index, export)
            for p in resumed.parameters():
                for key, value in opt_new.state.get(id(p), {}).items():
                    assert value.dtype == (np.float64 if key == "step"
                                           else p.data.dtype), key
                    assert value.shape == ((B,) if key == "step"
                                           else p.shape), key
            for seed in (2, 3):
                fake_step(resumed, opt_new, seed=seed)
            runs.append([p.data[index].copy()
                         for p in resumed.parameters()])
        for from_old, from_cast in zip(*runs):
            np.testing.assert_array_equal(from_old, from_cast)

    def test_out_of_range_inputs_rejected(self):
        fused = build_fused()
        opt = make_optimizer("adam", fused, B, [1e-3] * B)
        fake_step(fused, opt)
        with pytest.raises(ValueError, match="out of range"):
            export_slot_state(opt, B)
        with pytest.raises(ValueError, match="out of range"):
            load_slot_state(opt, -1, {})
        with pytest.raises(ValueError, match="out of range"):
            load_slot_state(opt, 0, {99: {"step": np.zeros(())}})

    def test_shape_mismatch_rejected(self):
        fused = build_fused()
        opt = make_optimizer("adam", fused, B, [1e-3] * B)
        fake_step(fused, opt)
        with pytest.raises(ValueError, match="shape"):
            load_slot_state(opt, 0, {0: {"exp_avg": np.zeros((9, 9))}})
