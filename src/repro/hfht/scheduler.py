"""Job schedulers: evaluate a batch of trials under a sharing scheme.

The scheduler is the piece HFHT swaps between Figure 8's four configurations:

* ``serial``     — every trial runs alone on the device (the default of
  hyper-parameter tuning frameworks);
* ``concurrent`` — trials run as independent processes sharing the device
  without MPS;
* ``mps`` / ``mig`` — same, via the hardware sharing features;
* ``hfta``       — the trials are submitted to the training-array runtime
  (:mod:`repro.runtime`): a one-device :class:`~repro.runtime.FleetScheduler`
  on the virtual-time backend (``execution="sim"``) whose batcher fuses
  trials sharing their infusible hyper-parameters and step budget, and
  whose placer splits a cohort wider than the device's HFTA memory cap
  into capacity-sized arrays (partial fusion).

The first four are priced directly with :func:`repro.hwsim.simulate`; the
``hfta`` cost is the runtime's own device timeline.  Each scheduler returns
the per-trial quality results (from the surrogate response surface) and
accounts the *GPU hours* spent, which is what Figure 8 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..hwsim import (DeviceSpec, WorkloadSpec, get_workload, max_models,
                     simulate)
from ..nn import Module
from ..runtime import FleetScheduler, TrainingJob
from .algorithms import Trial
from .space import SearchSpace
from .surrogate import surrogate_accuracy

__all__ = ["SchedulerResult", "JobScheduler", "SCHEDULER_MODES"]

SCHEDULER_MODES = ("serial", "concurrent", "mps", "mig", "hfta")


@dataclass
class SchedulerResult:
    """Outcome of evaluating one batch of trials."""

    results: List[float]
    gpu_hours: float
    num_jobs_launched: int


def _placeholder_model(num_models=None, generator=None) -> Module:
    """What every ``hfta`` trial's job builds.  The sim trains no tensors,
    so one empty module shared by all trials fuses them all; fusibility
    comes from the trials' configs alone."""
    return Module()


def _no_data(step):
    """The sim never reads a job's data stream."""
    return (None, None)


class JobScheduler:
    """Evaluates tuning trials on one device under a sharing scheme."""

    def __init__(self, workload: WorkloadSpec, device: DeviceSpec,
                 space: SearchSpace, mode: str = "serial",
                 precision: str = "amp", task: Optional[str] = None):
        if mode not in SCHEDULER_MODES:
            raise ValueError(f"unknown scheduler mode '{mode}'")
        capacity = max_models(workload, device, mode, precision)
        if capacity < 1:
            raise RuntimeError(
                f"{mode} cannot fit a single {workload.name} job on "
                f"{device.name}")
        self.workload = workload
        self.device = device
        self.space = space
        self.mode = mode
        self.precision = precision
        self.task = task or workload.name
        self.capacity = capacity
        self.total_gpu_hours = 0.0
        self.total_jobs = 0
        #: the ``hfta`` mode's runtime: one device, virtual time, arrays at
        #: most as wide as the device's HFTA memory cap
        self.fleet = None
        if mode == "hfta":
            if get_workload(workload.name) != workload:
                # the runtime prices arrays by registered workload name
                raise ValueError(
                    f"hfta prices only registered hwsim workloads; "
                    f"{workload.name!r} differs from get_workload"
                    f"({workload.name!r})")
            self.fleet = FleetScheduler(
                devices=(device,), max_width=capacity, precision=precision,
                default_workload=workload.name, execution="sim")

    # ------------------------------------------------------------------ #
    def _epoch_hours(self, sharing_mode: str, num_jobs: int,
                     epochs: float) -> float:
        """GPU hours consumed by ``num_jobs`` co-scheduled jobs for ``epochs``."""
        result = simulate(self.workload, self.device, sharing_mode, num_jobs,
                          self.precision)
        iterations = epochs * self.workload.iterations_per_epoch
        samples = iterations * self.workload.batch_size * num_jobs
        seconds = samples / result.throughput
        return seconds / 3600.0

    def _evaluate_trials(self, trials: Sequence[Trial]) -> List[float]:
        return [surrogate_accuracy(self.task, t.config, t.epochs)
                for t in trials]

    # ------------------------------------------------------------------ #
    def run_batch(self, trials: Sequence[Trial]) -> SchedulerResult:
        """Evaluate a batch of trials, returning results and GPU-hour cost."""
        trials = list(trials)
        if not trials:
            return SchedulerResult([], 0.0, 0)
        if self.mode == "hfta":
            result = self._run_fused(trials)
        else:
            result = self._run_processes(trials)
        self.total_gpu_hours += result.gpu_hours
        self.total_jobs += result.num_jobs_launched
        return result

    def _run_processes(self, trials: Sequence[Trial]) -> SchedulerResult:
        """serial / concurrent / MPS / MIG: one process per trial."""
        results = self._evaluate_trials(trials)
        gpu_hours = 0.0
        if self.mode == "serial":
            for trial in trials:
                gpu_hours += self._epoch_hours("serial", 1, trial.epochs)
            return SchedulerResult(results, gpu_hours, len(trials))

        # Greedily co-schedule as many processes as fit; different epoch
        # budgets within one wave are conservatively billed at the longest.
        remaining = sorted(trials, key=lambda t: -t.epochs)
        while remaining:
            wave = remaining[:self.capacity]
            remaining = remaining[self.capacity:]
            epochs = max(t.epochs for t in wave)
            gpu_hours += self._epoch_hours(self.mode, len(wave), epochs)
        return SchedulerResult(results, gpu_hours, len(trials))

    def _run_fused(self, trials: Sequence[Trial]) -> SchedulerResult:
        """HFTA: every trial is one job of the runtime's sim fleet.

        The fleet's batcher groups the trials by infusible values and step
        budget, its placer chunks each group to the device's width cap,
        and each array's epochs are charged to the device timeline; the
        batch costs what that timeline advanced by.
        """
        fleet = self.fleet
        device = fleet.workers[self.device.name]
        start_seconds = device.sim_time
        start_arrays = fleet.metrics.arrays_launched
        iterations = self.workload.iterations_per_epoch
        fleet.submit_all([
            TrainingJob(name=f"trial{i}", build_model=_placeholder_model,
                        data=_no_data, config=trial.config, space=self.space,
                        steps=trial.epochs * iterations,
                        epoch_steps=iterations, workload=self.workload.name)
            for i, trial in enumerate(trials)])
        fleet.run_until_idle()
        gpu_hours = (device.sim_time - start_seconds) / 3600.0
        return SchedulerResult(self._evaluate_trials(trials), gpu_hours,
                               fleet.metrics.arrays_launched - start_arrays)
