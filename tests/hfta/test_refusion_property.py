"""Re-fusion checked by search: split, merge and a step after a split keep
every slot's bytes.

Hypothesis draws an array width ``B`` in 1..6 and a keep set (contiguous or
not, in any order) for two arrays — an MLP and a conv + batch-norm model
whose running stats are block-folded ``[B * c]`` buffers — each with an
Adam optimizer that has stepped once.  Three properties, byte for byte:

* each slot of ``split_fused`` + ``split_optimizer`` exports
  (``export_to_unfused``, ``export_slot_state``) what the same slot of the
  parent exports;
* ``merge_fused(split(keep), split(rest))`` with its merged optimizer holds
  every slot's parameters, buffers and state in the order ``keep + rest``;
* one more fused step of the split array equals the same step of the
  parent on its kept slots.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro import hfta, nn
from repro.hfta import ops as hops
from repro.hfta.optim import (Adam, export_slot_state, merge_optimizers,
                              split_optimizer)

from ..conftest import same_bytes

N = 2          # samples per slot


def mlp(num_models):
    if num_models is None:
        return nn.Sequential(nn.Linear(5, 4), nn.ReLU(), nn.Linear(4, 3))
    return nn.Sequential(hops.Linear(num_models, 5, 4), nn.ReLU(),
                         hops.Linear(num_models, 4, 3))


def conv_bn(num_models):
    if num_models is None:
        return nn.Sequential(nn.Conv2d(2, 3, 3, padding=1),
                             nn.BatchNorm2d(3), nn.ReLU())
    return nn.Sequential(hops.Conv2d(num_models, 2, 3, 3, padding=1),
                         hops.BatchNorm2d(num_models, 3),
                         nn.ReLU())


def slot_inputs(kind, slot):
    """Slot ``slot``'s step input, the same whatever array holds the slot."""
    rng = np.random.default_rng(100 + slot)
    shape = (N, 5) if kind is mlp else (N, 2, 4, 4)
    return rng.standard_normal(shape).astype(np.float32)


def fused_input(kind, slots):
    xs = [slot_inputs(kind, s) for s in slots]
    return nn.tensor(np.stack(xs) if kind is mlp else np.concatenate(xs, 1))


def build(kind, width, seed):
    """A fused array with distinct values in every slot and an Adam that
    has stepped once, with per-slot learning rates."""
    rng = np.random.default_rng(seed)
    fused = kind(width)
    for p in fused.parameters():
        p.data[...] = rng.standard_normal(p.shape).astype(np.float32)
    for name, buf in fused.named_buffers():
        values = rng.standard_normal(buf.shape).astype(buf.dtype)
        buf[...] = np.abs(values) + 0.5 if "var" in name else values
    optimizer = Adam(fused.parameters(), num_models=width,
                     lr=[1e-2 * (b + 1) for b in range(width)])
    step(kind, fused, optimizer, range(width))
    return fused, optimizer


def step(kind, fused, optimizer, slots):
    """One fused training step; slot ``k`` of the array trains on
    ``slots[k]``'s input."""
    optimizer.zero_grad()
    out = fused(fused_input(kind, slots))
    (out * out).sum().backward()
    optimizer.step()


def exports(kind, fused, optimizer, index):
    """Slot ``index``'s weights, buffers and optimizer state as bytes."""
    template = hfta.export_to_unfused(fused, index, kind(None))
    arrays = dict(template.state_dict())
    for pos, state in export_slot_state(optimizer, index).items():
        arrays.update({f"state.{pos}.{k}": v for k, v in state.items()})
    return arrays


def assert_same_slot(kind, got, got_index, want, want_index, context):
    got = exports(kind, *got, got_index)
    want = exports(kind, *want, want_index)
    assert got.keys() == want.keys(), context
    for name, value in want.items():
        assert same_bytes(np.asarray(got[name]), np.asarray(value)), \
            f"{context}: {name}"


def split(fused, optimizer, keep):
    part = hfta.split_fused(fused, keep)
    return part, split_optimizer(optimizer, part.parameters(), keep)


@st.composite
def widths_and_keeps(draw):
    """An array width, a keep set (a contiguous run, or any subset in any
    order) and a model."""
    width = draw(st.integers(1, 6))
    size = draw(st.integers(1, width))
    if draw(st.booleans()):
        start = draw(st.integers(0, width - size))
        keep = list(range(start, start + size))
    else:
        keep = list(draw(st.permutations(range(width))))[:size]
    return width, keep, draw(st.sampled_from((mlp, conv_bn)))


SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


@SETTINGS
@given(widths_and_keeps())
def test_split_exports_the_parents_slots(case):
    width, keep, kind = case
    parent = build(kind, width, seed=width)
    part = split(*parent, keep)
    for new, old in enumerate(keep):
        assert_same_slot(kind, part, new, parent, old,
                         f"B={width} keep={keep} slot {old}")


@SETTINGS
@given(widths_and_keeps())
def test_merge_of_a_partition_holds_every_slot_in_order(case):
    width, keep, kind = case
    rest = [i for i in range(width) if i not in keep]
    assume(rest)
    parent = build(kind, width, seed=width)
    left, right = split(*parent, keep), split(*parent, rest)
    merged = hfta.merge_fused(left[0], right[0])
    merged = merged, merge_optimizers(left[1], right[1], merged.parameters())
    assert hfta.fused_array_width(merged[0]) == width
    for new, old in enumerate(keep + rest):
        assert_same_slot(kind, merged, new, parent, old,
                         f"B={width} order={keep + rest} slot {old}")


@SETTINGS
@given(widths_and_keeps())
def test_a_step_after_a_split_is_the_parents_step_on_its_kept_slots(case):
    width, keep, kind = case
    # two identical parents: a contiguous split aliases its parent's memory
    parent = build(kind, width, seed=width)
    part = split(*build(kind, width, seed=width), keep)
    step(kind, *parent, range(width))
    step(kind, *part, keep)
    for new, old in enumerate(keep):
        assert_same_slot(kind, part, new, parent, old,
                         f"B={width} keep={keep} slot {old}")
