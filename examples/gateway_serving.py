"""Serve four tenants' bursty job streams through the multi-tenant gateway.

End-to-end demo of :mod:`repro.runtime.gateway` in front of the fleet:
32 training jobs from four tenants with different serving contracts —

* ``prod``      priority 2, weight 4, a 60 s SLO deadline on every job;
* ``research``  priority 1, weight 2, best effort;
* ``batch``     priority 0, weight 1, best effort;
* ``free``      priority 0, weight 1, rate-limited to 1 request/s with a
  burst of 3 — the free tier's burst of six submissions loses three to
  the token bucket.

The streams arrive as bursts against a bounded intake queue
(``max_pending``), so the gateway's whole admission funnel fires: the
free tier is rate-limited, the prod burst displaces the newest
lowest-priority queued jobs (backpressure sheds cheap work first, with a
retry-after hint), the fair dequeue orders what survives by priority and
weighted-fair virtual time, and placement sorts by SLO slack.

Verified at the end, per the runtime's standing invariant that scheduling
changes *when and with whom* a job trains, never what it learns:

1. every surviving tenant received at least ``min(its surviving demand,
   its weighted fair share)`` of fused-slot-steps;
2. the prod tenant finished with **zero SLO misses**;
3. every surviving checkpoint matches serial training of the same job;
4. fusion is structural: the tenants' jobs share one builder and differ
   only in fusible values, so the 24 survivors train in at most four
   arrays of ``WIDTH_CAP`` = 6 whatever their names.

Run:  PYTHONPATH=src python examples/gateway_serving.py
"""

import numpy as np

from repro import nn, optim as serial_optim
from repro.hfta.ops.factory import OpsLibrary
from repro.hwsim import A100, RTX6000, TPU_V3, V100
from repro.nn import functional as F
from repro.runtime import JobState, ServingGateway, TenantSpec, TrainingJob

FLEET = (V100, RTX6000, A100, TPU_V3)
WIDTH_CAP = 6
MAX_PENDING = 24
STEPS = 6
BATCH = 8
FEATURES = 16
NUM_CLASSES = 4


class SweepMLP(nn.Module):
    """Shared sweep architecture — all four tenants' jobs are fusible, so
    the batcher packs across tenants and fairness is really about width."""

    def __init__(self, hidden=20, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(FEATURES, hidden, generator=generator)
        self.fc2 = lib.Linear(hidden, NUM_CLASSES, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def feature_stream(seed):
    rng = np.random.default_rng(seed)
    batches = [(rng.standard_normal((BATCH, FEATURES)).astype(np.float32),
                rng.integers(0, NUM_CLASSES, size=BATCH))
               for _ in range(STEPS)]
    return lambda step: batches[step]


TENANT_SEEDS = {"prod": 100, "research": 200, "batch": 300, "free": 400}


def make_job(tenant, index):
    lr = 1e-3 * (index + 1)
    base = TENANT_SEEDS[tenant]
    return TrainingJob(
        name=f"{tenant}_sweep_lr{lr:.0e}", seed=base + index,
        steps=STEPS, config={"lr": lr, "optimizer": "adam"},
        build_model=lambda B=None, g=None: SweepMLP(20, B, g),
        data=feature_stream(1000 + base + index),
        tenant=tenant)


def train_serial_reference(job):
    model = job.build_model(None, np.random.default_rng(job.seed))
    opt = serial_optim.Adam(model.parameters(), lr=job.config["lr"])
    for step in range(job.steps):
        x, y = job.data(step)
        opt.zero_grad()
        F.cross_entropy(model(nn.tensor(x)), y).backward()
        opt.step()
    return model


def max_param_deviation(checkpoint, reference):
    worst = 0.0
    for (_, p_out), (_, p_ref) in zip(checkpoint.named_parameters(),
                                      reference.named_parameters()):
        scale = max(np.abs(p_ref.data).max(), 1e-8)
        worst = max(worst,
                    float(np.abs(p_out.data - p_ref.data).max() / scale))
    return worst


def main():
    gateway = ServingGateway(
        tenants=[
            TenantSpec("prod", weight=4.0, priority=2, deadline_s=60.0),
            TenantSpec("research", weight=2.0, priority=1),
            TenantSpec("batch", weight=1.0, priority=0),
            TenantSpec("free", weight=1.0, priority=0, rate=1.0, burst=3),
        ],
        devices=FLEET, max_width=WIDTH_CAP, max_pending=MAX_PENDING)

    # ----------------------------------------------------------------- #
    # the bursts: free tier first, then the nightly batch backlog, then
    # research, then the prod burst that arrives into a full queue
    # ----------------------------------------------------------------- #
    bursts = [("free", 6), ("batch", 10), ("research", 8), ("prod", 8)]
    tickets = {}
    jobs = {}
    for tenant, count in bursts:
        for i in range(count):
            job = make_job(tenant, i)
            ticket = gateway.submit(job)
            if ticket.admitted:
                tickets[ticket.job_id] = ticket
                jobs[ticket.job_id] = job
            else:
                print(f"  shed {job.name:24s} ({ticket.reason}, "
                      f"retry after {ticket.retry_after:.2f}s)")
    print(f"\nSubmitted {sum(c for _, c in bursts)} jobs in 4 bursts; "
          f"{len(tickets)} admitted, "
          f"{gateway.metrics.jobs_shed} shed so far "
          f"(rate limit + backpressure displacement)\n")

    results = gateway.run_until_idle()

    # ----------------------------------------------------------------- #
    # the gateway ledger
    # ----------------------------------------------------------------- #
    rows, header = gateway.report()
    print("Per-tenant gateway ledger:")
    print("  " + " | ".join(f"{h:>12s}" for h in header))
    for row in rows:
        print("  " + " | ".join(
            f"{v:>12.4f}" if isinstance(v, float) else f"{str(v):>12s}"
            for v in row))

    summary = gateway.metrics.tenant_summary()
    survivors = {job_id: job for job_id, job in jobs.items()
                 if gateway.queue.state(job_id) == JobState.COMPLETED}
    displaced = len(jobs) - len(survivors)
    print(f"\n{len(results)} jobs served, {displaced} displaced from the "
          f"queue by the prod burst, "
          f"{gateway.metrics.jobs_preempted} slots preempted.")

    # 1. weighted fairness: every tenant got at least min(surviving
    #    demand, weighted fair share) of fused-slot-steps
    total_steps = sum(s["slot_steps"] for s in summary.values())
    for tenant, _ in bursts:
        served = summary[tenant]["slot_steps"]
        demand = sum(job.steps for job_id, job in survivors.items()
                     if job.tenant == tenant)
        share = gateway.fair_share(tenant)
        entitled = min(demand, share)
        print(f"  {tenant:9s} served {served:5.0f} slot-steps "
              f"(surviving demand {demand}, fair share {share:.1f})")
        assert served >= entitled, \
            f"{tenant} got {served} < entitled {entitled}"
    assert total_steps == sum(job.steps for job in survivors.values())

    # 2. the SLO tenant: every prod job admitted, completed, zero misses
    assert summary["prod"]["admitted"] == 8
    assert summary["prod"]["slo_misses"] == 0, "prod missed its SLO"
    assert summary["prod"]["slo_hits"] == 8

    # 3. every surviving checkpoint matches serial training
    print("\nChecking surviving checkpoints against serial training:")
    worst = 0.0
    for job_id, job in survivors.items():
        deviation = max_param_deviation(results[job_id].checkpoint,
                                        train_serial_reference(job))
        worst = max(worst, deviation)
        assert deviation == 0, f"{job.name} diverged from serial training"
    print(f"  all {len(survivors)} match "
          f"(worst relative deviation {worst:.2e}).")

    m = gateway.metrics.as_dict()
    print(f"\nGateway counters: {m['jobs_shed']:.0f} shed, "
          f"{m['jobs_preempted']:.0f} preempted, "
          f"{m['arrays_launched']:.0f} arrays for "
          f"{m['jobs_completed']:.0f} jobs, "
          f"fused-width efficiency {m['fused_width_efficiency']:.2f}.")

    # 4. cohorts are structural: names never split the tenants' jobs
    assert m["arrays_launched"] <= 4, \
        f"{m['arrays_launched']:.0f} arrays: cohorts split by job name?"


if __name__ == "__main__":
    main()
