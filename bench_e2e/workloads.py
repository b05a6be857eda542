"""The four workloads: inputs from a seed, one lap of fixed work at a time.

Every workload generates its inputs once (``__init__``), then runs laps:
a lap builds a fresh engine or gateway, submits the same fixed job list,
drains it and returns a :class:`Lap`.  Real-execution workloads also run
short *serial* laps (width cap 1, one engine, no store) so the fused
speed-up is a ratio of laps taken seconds apart.  Nothing here reads a
clock to decide anything: the real workloads' stop rules count epochs.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.cluster import ServingTraceConfig, TenantLoad, \
    generate_serving_trace
from repro.hwsim import V100
from repro.runtime import ArrayPolicy, CheckpointStore, JobState, \
    RecoveryManager, ServingGateway, TenantSpec, TraceReplayer, \
    TrainingArrayEngine, TrainingJob, synthetic_fleet

from .models import lm_builder, mlp_builder, pointnet_builder


@dataclass
class Lap:
    """What one lap did, measured from outside the system."""

    wall_s: float
    attempted: int                     # jobs submitted
    jobs: Dict[int, TrainingJob]       # by job id: those owed a result
    results: list                      # every JobResult delivered
    latencies: List[float]             # per delivered job, workload clock
    counts: Dict[str, float]           # the system's own counters
    refused: int = 0                   # sheds the workload expects
    failures: List[str] = field(default_factory=list)
    #: sim_fleet: cost-model serial seconds / simulated array seconds
    oracle_speedup: float = 0.0

    @property
    def slot_steps(self) -> int:
        return sum(r.steps_trained for r in self.results)


class StopAfter:
    """Job-local stop rule: retire at the first boundary >= ``epochs``."""

    def __init__(self, epochs: int):
        self.epochs = epochs

    def __call__(self, epochs_done, curve):
        return epochs_done >= self.epochs


class Stream:
    """A job's private data stream: a seeded cycle of one epoch."""

    def __init__(self, batches):
        self.batches = batches

    def __call__(self, step):
        return self.batches[step % len(self.batches)]


def dense_stream(rng, cycle, batch, features, classes) -> Stream:
    return Stream([(rng.standard_normal((batch, features))
                    .astype(np.float32),
                    rng.integers(0, classes, size=batch))
                   for _ in range(cycle)])


def pool_stats(engines) -> Dict[str, float]:
    stats = [engine.pool.stats() for engine in engines]
    hits = sum(s["hits"] for s in stats)
    misses = sum(s["misses"] for s in stats)
    return {"pool_takes": hits + misses,
            "pool_hit_rate": hits / (hits + misses) if hits + misses else 0.0}


def gateway_counts(gateway) -> Dict[str, float]:
    """A gateway's counters: runtime metrics, pools, tenant-ledger sums."""
    tenants = gateway.metrics.tenant_summary().values()
    counts = dict(gateway.metrics.as_dict(), **pool_stats(
        worker.engine for worker in gateway.fleet.workers.values()))
    for key in ("admitted", "shed", "preempted", "slo_misses"):
        counts[key] = sum(tenant[key] for tenant in tenants)
    return counts


class Workload:
    """Common lap plumbing; subclasses define the jobs and the system."""

    name = ""
    #: real-execution workloads run interleaved serial laps
    has_serial = True
    #: device worker threads a lap runs beside the main thread
    worker_threads = 0
    #: whether ``restart()`` exists: an off-the-clock crash-and-rebuild
    has_restart = False
    #: whether ``whole_trace()`` exists: one replay the virtual-clock
    #: metrics are read from
    has_whole_trace = False

    def __init__(self, size: dict, seed: int, scratch: Path, tracer=None):
        self.size = size
        self.seed = seed
        self.scratch = scratch
        self.tracer = tracer

    def make_jobs(self) -> List[TrainingJob]:
        raise NotImplementedError

    def close(self):
        """Remove what the laps left on disk."""

    def _stop_clock(self, start) -> float:
        """The lap's wall; what the lap does after this is off the clock,
        so a traced lap's later spans are not stamped with its number."""
        wall = time.monotonic() - start
        if self.tracer is not None:
            self.tracer.lap = self.tracer.OFF_CLOCK
        return wall

    def _traced(self, jobs):
        if self.tracer is not None and self.tracer.installed:
            for job in jobs:
                job.data = self.tracer.wrap("data.fetch", job.data)
        return jobs

    def _drain(self, jobs, width):
        """``jobs`` through one fresh single-device engine: (engine, job
        ids, results, wall seconds, start on ``finished_at``'s clock)."""
        start = time.monotonic()
        engine = TrainingArrayEngine(policy=ArrayPolicy(max_width=width))
        job_ids = engine.submit_all(jobs)
        results = []
        while engine.queue.pending_count:
            results.extend(engine.run_cycle())
        return engine, job_ids, results, self._stop_clock(start), start

    def lap(self) -> Lap:
        """The sweeps' lap: one engine at the workload's width cap."""
        jobs = self._traced(self.make_jobs())
        engine, job_ids, results, wall, start = self._drain(
            jobs, self.size["width"])
        counts = dict(engine.metrics.as_dict(), **pool_stats([engine]))
        return Lap(wall, len(jobs), dict(zip(job_ids, jobs)), results,
                   [r.finished_at - start for r in results], counts)

    def serial_lap(self):
        """(wall seconds, slot-steps) of the width-1 comparison lap."""
        _, _, results, wall, _ = self._drain(self.serial_jobs(), 1)
        return wall, sum(r.steps_trained for r in results)

    def serial_jobs(self) -> List[TrainingJob]:
        return self.make_jobs()[:self.size["serial_jobs"]]


class SweepMLP(Workload):
    """Adam sweep of a tiny MLP: interpreter cost is the whole lap."""

    name = "sweep_mlp"

    def __init__(self, size, seed, scratch, tracer=None):
        super().__init__(size, seed, scratch, tracer)
        s = size
        self.build = mlp_builder(s["features"], s["hidden"], s["classes"])
        self.streams = [
            dense_stream(np.random.default_rng([seed, i]), s["epoch_steps"],
                         s["batch"], s["features"], s["classes"])
            for i in range(s["jobs"])]

    def make_jobs(self):
        s = self.size
        return [TrainingJob(
            name=f"mlp_sweep{i}", seed=self.seed * 1000 + i,
            steps=s["steps"], epoch_steps=s["epoch_steps"],
            config={"lr": 1e-3 * (1 + i % 8), "optimizer": "adam"},
            build_model=self.build, data=self.streams[i])
            for i in range(s["jobs"])]


class SweepPaper(Workload):
    """PointNet and Transformer-LM sweeps: time sits in conv/BLAS."""

    name = "sweep_paper"

    def __init__(self, size, seed, scratch, tracer=None):
        super().__init__(size, seed, scratch, tracer)
        s = size
        self.build_pointnet = pointnet_builder(s["pointnet_classes"])
        self.build_lm = lm_builder(s["vocab"], s["d_model"], s["heads"],
                                   s["layers"], s["length"])
        self.clouds, self.tokens = [], []
        for i in range(s["pointnet_jobs"]):
            rng = np.random.default_rng([seed, 1, i])
            self.clouds.append(Stream([
                (rng.standard_normal((s["batch"], 3, s["points"]))
                 .astype(np.float32),
                 rng.integers(0, s["pointnet_classes"], size=s["batch"]))
                for _ in range(s["pointnet_steps"])]))
        for i in range(s["lm_jobs"]):
            rng = np.random.default_rng([seed, 2, i])
            batches = []
            for _ in range(s["lm_steps"]):
                ids = rng.integers(0, s["vocab"],
                                   size=(s["batch"], s["length"] + 1))
                batches.append((ids[:, :-1].astype(np.float32),
                                ids[:, 1:].reshape(-1)))
            self.tokens.append(Stream(batches))

    def _family(self, prefix, count, steps, loss, build, streams, base):
        return [TrainingJob(
            name=f"{prefix}_sweep{i}", seed=self.seed * 1000 + base + i,
            steps=steps, epoch_steps=max(1, steps // 2), loss=loss,
            config={"lr": 1e-3 * (1 + i % 4), "optimizer": "adam"},
            build_model=build, data=streams[i]) for i in range(count)]

    def make_jobs(self):
        s = self.size
        return self._family(
            "pointnet", s["pointnet_jobs"], s["pointnet_steps"], "nll",
            self.build_pointnet, self.clouds, 0) + self._family(
            "lm", s["lm_jobs"], s["lm_steps"], "cross_entropy",
            self.build_lm, self.tokens, 500)

    def serial_jobs(self):
        # the same mix as a fused lap: serial_jobs of each family
        s = self.size
        jobs = self.make_jobs()
        n = s["serial_jobs"]
        return jobs[:n] + jobs[s["pointnet_jobs"]:s["pointnet_jobs"] + n]


class WorkerMurder(BaseException):
    """Not an ``Exception``: kills the worker thread like a real crash."""


class ServeElastic(Workload):
    """Closed-loop bursts through gateway, one-device fleet and store."""

    name = "serve_elastic"
    #: one device, so one worker thread: two of them hand the GIL back and
    #: forth, and whether the kernel runs them on one vCPU (0.7 s a lap) or
    #: on both (1.0 s, 17 000 context switches) is the scheduler's whim
    worker_threads = 1
    has_restart = True

    def __init__(self, size, seed, scratch, tracer=None):
        super().__init__(size, seed, scratch, tracer)
        s = size
        self.builds = [mlp_builder(s["features"], hidden, s["classes"])
                       for hidden in s["hidden"]]
        self.streams = [
            dense_stream(np.random.default_rng([seed, i]), s["epoch_steps"],
                         s["batch"], s["features"], s["classes"])
            for i in range(s["jobs"])]
        # Jobs arrive in index order whatever the seed, which decides data,
        # initial weights and nothing else: with a dozen jobs to a burst,
        # which of them share a cycle decides how many arrays launch, and a
        # seeded order moved the undisturbed lap from 0.41 to 0.54 s
        # every lap's store gets a directory of its own in here, removed by
        # close() and not after the lap: on ext4 the unlinks of one lap
        # slow the file creations of the next three-fold
        self.stores = tempfile.mkdtemp(prefix="stores-", dir=scratch)

    def close(self):
        shutil.rmtree(self.stores, ignore_errors=True)

    def _job(self, i, data=None):
        s = self.size
        family = (i // 2) % len(self.builds)
        stops = i % s["stop_every"] == (i // s["stop_every"]) % s["stop_every"]
        return TrainingJob(
            name=f"{'slim' if family == 0 else 'wide'}_sweep{i}",
            seed=self.seed * 1000 + i, steps=s["steps"],
            epoch_steps=s["epoch_steps"],
            config={"lr": 1e-3 * (1 + i % 8), "optimizer": "adam"},
            build_model=self.builds[family],
            data=data if data is not None else self.streams[i],
            tenant=s["tenants"][i % len(s["tenants"])],
            stop=StopAfter(s["stop_epochs"]) if stops else None)

    def make_jobs(self):
        return [self._job(i) for i in range(self.size["jobs"])]

    def _gateway(self, root, max_pending, checkpoint_every):
        s = self.size
        store = CheckpointStore(root)
        recovery = RecoveryManager(store)
        gateway = ServingGateway(
            tenants=[TenantSpec(t, deadline_s=s["deadline_s"])
                     for t in s["tenants"]],
            devices=(V100,), max_width=s["width"],
            max_pending=max_pending, store=store, recovery=recovery,
            checkpoint_every=checkpoint_every)
        return gateway, recovery

    def lap(self):
        jobs = self._traced(self.make_jobs())
        bursts = self.size["bursts"]
        per_burst = len(jobs) // bursts
        cycle_jobs = self.size["cycle_jobs"]
        root = tempfile.mkdtemp(prefix="lap-", dir=self.stores)
        start = time.monotonic()
        gateway, recovery = self._gateway(root, len(jobs) + 1,
                                          self.size["checkpoint_every"])
        sent, owed, results = {}, {}, []
        for k in range(bursts):
            for job in jobs[k * per_burst:(k + 1) * per_burst]:
                now = time.monotonic()
                ticket = gateway.submit(job)
                if ticket.admitted:
                    sent[ticket.job_id] = now
                    owed[ticket.job_id] = job
            # one client, closed loop: the next burst is sent when
            # this cycle returns; the last burst is drained below.  A
            # cycle takes fewer jobs than a burst brings, so the rest
            # board the width early stoppers free (merge, not launch)
            if k < bursts - 1:
                results.extend(gateway.run_cycle(cycle_jobs))
        while gateway.queue.pending_count:
            results.extend(gateway.run_cycle(cycle_jobs))
        wall = self._stop_clock(start)
        lap = Lap(wall, len(jobs), owed, results,
                  [r.finished_at - sent[r.job_id] for r in results],
                  dict(gateway_counts(gateway),
                       wal_entries=len(recovery.entries()),
                       unsettled=len(recovery.unsettled())))
        if len(owed) < len(jobs) or lap.counts["shed"]:
            lap.failures.append(
                f"{len(jobs) - len(owed)} jobs shed at admission, "
                f"{lap.counts['shed']} displaced")
        if lap.counts["slo_misses"] or lap.counts["unsettled"]:
            lap.failures.append(
                f"{lap.counts['slo_misses']} SLO misses, "
                f"{lap.counts['unsettled']} unsettled after drain")
        return lap

    def serial_jobs(self):
        return [self._job(i) for i in range(self.size["serial_jobs"])]

    def restart(self) -> dict:
        """Off the clock: kill a worker mid-array, abandon the gateway,
        rebuild from WAL + store, drain.  Returns what the checker needs."""
        s = self.size
        indices = range(s["restart_jobs"])
        armed = [True]
        victim = self.streams[indices[0]]

        def murderous(step):
            if armed and step == s["crash_step"]:
                armed.pop()          # one shot: the resumed run survives
                raise WorkerMurder(f"worker killed at step {step}")
            return victim(step)

        jobs = [self._job(i, murderous if n == 0 else None)
                for n, i in enumerate(indices)]
        root = tempfile.mkdtemp(prefix="restart-", dir=self.stores)
        hook, threading.excepthook = threading.excepthook, lambda args: None
        try:
            # every epoch, so that the murdered array has one to resume from
            gateway, recovery = self._gateway(root, len(jobs) + 1, 1)
            for job in self._traced(jobs):
                gateway.submit(job)
            before = gateway.run_cycle()
            crashed = gateway.metrics.workers_crashed
            unsettled = sorted(r["name"]
                               for r in recovery.unsettled().values())
            del gateway, recovery          # process death

            start = time.perf_counter()
            gateway, recovery = self._gateway(root, len(jobs) + 1, 1)
            fresh = {job.name: job
                     for job in self._traced([self._job(i) for i in indices])}
            tickets = gateway.replay_unsettled(fresh)
            recover_s = time.perf_counter() - start
            readmitted = sorted(gateway.queue.get(t.job_id).job.name
                                for t in tickets)
            resumed = sum(gateway.queue.get(t.job_id).resume is not None
                          for t in tickets)
            after = []
            while gateway.queue.pending_count:
                after.extend(gateway.run_cycle())
            return dict(jobs=fresh, results=before + after,
                        recovered=[r.name for r in after],
                        crashed=crashed, unsettled=unsettled,
                        readmitted=readmitted, resumed=resumed,
                        recover_s=recover_s,
                        left_unsettled=len(recovery.unsettled()))
        finally:
            threading.excepthook = hook


class SimFleet(Workload):
    """Open-loop trace replay on the virtual clock: control plane only.

    A timed lap replays the first ``lap_jobs`` arrivals of the trace, short
    enough that a run takes many; the metrics on the virtual clock come
    from one replay of the whole trace, long enough that they barely vary
    with the seed (bursts share a tenant and a step count, so over
    ``lap_jobs`` arrivals alone the speed-up spreads 14 % across seeds).
    """

    name = "sim_fleet"
    has_serial = False
    has_whole_trace = True

    def __init__(self, size, seed, scratch, tracer=None):
        super().__init__(size, seed, scratch, tracer)
        s = size
        self.trace = generate_serving_trace(ServingTraceConfig(
            num_jobs=s["jobs"], duration_s=s["duration_s"], seed=seed,
            tenants=(TenantLoad("batch", share=5.0),
                     TenantLoad("interactive", share=3.0, priority=1),
                     TenantLoad("prio", share=1.0, priority=2,
                                deadline_s=s["prio_deadline_s"],
                                deadline_rate=1.0),
                     TenantLoad("free", share=1.0)),
            mean_burst_size=s["mean_burst"], max_burst_size=s["max_burst"],
            workloads=("pointnet_cls", "transformer_lm"),
            steps_choices=(4, 8), epoch_steps_choices=(2,)))
        # the sim never runs tensors: one minimal fusible architecture
        self.build = mlp_builder(4, 2, 2)

    def _gateway(self):
        s = self.size
        return ServingGateway(
            tenants=(TenantSpec("batch", weight=1.0),
                     TenantSpec("interactive", weight=2.0, priority=1),
                     TenantSpec("prio", weight=4.0, priority=2),
                     TenantSpec("free", weight=1.0, rate=s["free_rate"],
                                burst=s["free_burst"])),
            max_pending=s["max_pending"],
            devices=synthetic_fleet(s["devices"]), max_width=s["width"],
            execution="sim")

    def lap(self):
        return self._replay(self.trace[:self.size["lap_jobs"]])

    def whole_trace(self) -> Lap:
        return self._replay(self.trace)

    def _replay(self, events) -> Lap:
        jobs, lateness = [], []       # in submission order, as tickets
        start = time.monotonic()
        gateway = self._gateway()
        clock = gateway.clock

        def factory(event):
            # called by the replayer just before it submits the arrival
            lateness.append(clock.now() - event.time_s)
            job = TrainingJob(
                name=event.name, build_model=self.build, data=_no_data,
                steps=event.steps, epoch_steps=event.epoch_steps,
                seed=event.seed, tenant=event.tenant, user=event.user,
                priority=event.priority, workload=event.workload)
            jobs.append(job)
            return job

        replayer = TraceReplayer(
            gateway, events, factory,
            cycle_quantum_s=self.size["cycle_quantum_s"])
        results = replayer.run()
        wall = self._stop_clock(start)

        lap = Lap(wall, len(jobs), {}, list(results.values()), [], {})
        metrics = gateway.metrics
        delivered = []
        for event, ticket, job in zip(replayer.events, replayer.tickets,
                                      jobs):
            # backpressure and the free tier's rate limit shed by design;
            # the deadline tenant must never lose a job
            expected_shed = event.tenant != "prio"
            if not ticket.admitted:
                state = JobState.SHED
            else:
                state = gateway.queue.state(ticket.job_id)
            if state != JobState.SHED:
                lap.jobs[ticket.job_id] = job
            if state == JobState.COMPLETED and ticket.job_id in results:
                delivered.append(event)
                lap.latencies.append(
                    results[ticket.job_id].finished_at - event.time_s)
            elif state == JobState.SHED and expected_shed:
                lap.refused += 1
            else:
                lap.failures.append(f"{event.name} ({event.tenant}) ended "
                                    f"{state}")
        tenants = metrics.tenant_summary()
        if tenants.get("prio", {}).get("slo_misses"):
            lap.failures.append(
                f"prio missed {tenants['prio']['slo_misses']} SLOs")
        if metrics.jobs_completed != len(results):
            lap.failures.append(
                f"{metrics.jobs_completed} completions for "
                f"{len(results)} results")
        oracle = sum(gateway.placer.projected_seconds(e.workload, 1, e.steps)
                     for e in delivered)
        # over the fleet's summed array seconds, not the busiest device's:
        # that maximum over 256 devices swings 40 % from seed to seed
        lap.oracle_speedup = oracle / sum(r.sim_seconds
                                          for r in metrics.records)
        lap.counts = dict(
            gateway_counts(gateway),
            virtual_makespan_s=gateway.fleet.virtual_makespan(),
            lateness_p50_s=float(np.median(lateness)))
        return lap


def _no_data(step):
    """Sim executors never read the stream; loss comes from the model."""
    return (None, None)


WORKLOADS = {cls.name: cls
             for cls in (SweepMLP, SweepPaper, ServeElastic, SimFleet)}
