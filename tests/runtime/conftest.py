"""Shared fixtures for the runtime suite.

The fleet runs every device's work on the caller's thread, in a
deterministic order, so nothing here needs synchronizing.  A deflake
audit (PR 6) still holds this suite to two rules:

* **no wall-clock waits** — ``time.sleep`` and ``time.monotonic``
  assertions are banned; anything timing-related runs against an
  injectable clock (:class:`repro.runtime.VirtualClock` in the sim
  suites, manual closures elsewhere);
* **no unseeded randomness** — the autouse fixture below pins the global
  RNGs per test so any code path reaching them is reproducible across
  runs and interpreters (the job streams themselves already use
  ``np.random.default_rng(seed)`` generators), and the property-based
  sim tests derive all their choices from per-test ``random.Random``
  instances.

The sim helpers (a minimal fusible architecture plus job/data factories)
are shared here because the three simulation suites — invariants, chaos,
real-vs-sim equivalence — all drive the same tiny model through the
virtual-time backend.
"""

import random

import numpy as np
import pytest

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.runtime import TrainingJob, VirtualClock

SIM_FEATURES, SIM_CLASSES = 4, 2


class SimNet(nn.Module):
    """Minimal fusible architecture for the simulation suites."""

    def __init__(self, hidden=2, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(SIM_FEATURES, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, SIM_CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def build_sim_model(num_models=None, generator=None):
    return SimNet(2, num_models, generator)


def sim_data(step):
    """Sim executors never read the data stream; losses are synthetic."""
    return (None, None)


def make_sim_job(index, steps=4, epoch_steps=2, **kwargs):
    """A budget-only job for the simulation backend."""
    return TrainingJob(
        name=kwargs.pop("name", f"sim{index}"), build_model=build_sim_model,
        data=sim_data, steps=steps, epoch_steps=epoch_steps, seed=index,
        **kwargs)


def assert_ledger_matches_records(metrics):
    """The tenant ledger bills every slot-step an epoch ran, and the array
    records count each of them once, however the array ended: the two
    sums agree."""
    billed = sum(ledger["slot_steps"]
                 for ledger in metrics.tenant_summary().values())
    assert billed == metrics.slot_steps_total


@pytest.fixture
def virtual_clock():
    return VirtualClock()


@pytest.fixture(autouse=True)
def _seed_global_rngs():
    np.random.seed(0)
    random.seed(0)
