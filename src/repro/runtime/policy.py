"""Array sizing: how wide may each fused array be?

The policy answers the runtime's second scheduling question: given a
fusible cohort, *how many* of its models may actually train as one array.
Two limits apply:

* an explicit ``max_width`` (operator-configured: fairness, latency SLOs,
  convergence-monitoring granularity), and
* the device-memory capacity of the accelerator, obtained from the
  :mod:`repro.hwsim` analytical model when the policy is bound to a
  workload/device pair — the same ``max_models`` bound HFHT's scheduler
  uses (paper Figure 6: HFTA pays the framework-overhead intercept once,
  so the bound is far higher than for process-based sharing).

Cohorts wider than the cap fall back to **partial fusion**: the cohort is
split into capacity-sized chunks via :func:`repro.hfht.partition.
split_oversized` — the same logic HFHT applies when a tuning algorithm
proposes more fusible trials than fit on the device — and each chunk
becomes its own :class:`ArrayPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..hfht.partition import Partition, split_oversized
from ..hwsim import DeviceSpec, WorkloadSpec, max_models
from .batcher import Cohort
from .queue import SubmittedJob

__all__ = ["ArrayPlan", "ArrayPolicy"]


@dataclass
class ArrayPlan:
    """One launchable fused array: a capacity-sized slice of a cohort."""

    cohort: Cohort
    indices: List[int]          # positions within cohort.jobs
    width_cap: int
    #: name of the device the fleet placer assigned this array to ("" when
    #: the plan runs on the single-device engine); workers retag stolen plans
    device: str = ""
    #: the placer's cost-model projection of this array's training time on
    #: ``device`` (seconds); recorded into the array's ArrayRecord
    projected_seconds: float = 0.0

    @property
    def jobs(self) -> List[SubmittedJob]:
        """The plan's submissions (the selected slice of its cohort)."""
        return [self.cohort.jobs[i] for i in self.indices]

    @property
    def workload(self) -> "str | None":
        """The cohort's hwsim workload hint (placement cost-model input)."""
        return self.cohort.workload

    @property
    def num_models(self) -> int:
        """The array width this plan launches at."""
        return len(self.indices)

    @property
    def occupancy(self) -> float:
        """Fraction of the permitted array width this plan fills."""
        return self.num_models / self.width_cap

    @property
    def steps(self) -> int:
        """The cohort's gang-scheduled step budget."""
        return self.cohort.steps


@dataclass
class ArrayPolicy:
    """Sizing rules for fused arrays.

    ``max_width`` alone gives a pure width cap; binding ``workload`` and
    ``device`` additionally enforces the simulated memory capacity of the
    accelerator under HFTA sharing.
    """

    max_width: int = 8
    workload: Optional[WorkloadSpec] = None
    device: Optional[DeviceSpec] = None
    precision: str = "amp"

    def __post_init__(self):
        if self.max_width < 1:
            raise ValueError("max_width must be >= 1")
        if (self.workload is None) != (self.device is None):
            raise ValueError("workload and device must be given together")

    # ------------------------------------------------------------------ #
    def width_cap(self) -> int:
        """The effective array-width limit under this policy."""
        cap = self.max_width
        if self.workload is not None:
            memory_cap = max_models(self.workload, self.device, "hfta",
                                    self.precision)
            if memory_cap < 1:
                raise RuntimeError(
                    f"device {self.device.name} cannot fit a single "
                    f"{self.workload.name} model under HFTA")
            cap = min(cap, memory_cap)
        return cap

    def plan(self, cohorts: Sequence[Cohort]) -> List[ArrayPlan]:
        """Turn cohorts into launchable arrays honoring the width cap."""
        cap = self.width_cap()
        plans: List[ArrayPlan] = []
        for cohort in cohorts:
            # Reuse HFHT's partial-fusion splitter on an index partition.
            whole = Partition(
                infusible_values=cohort.infusible_values,
                configs=[sub.job.config for sub in cohort.jobs],
                original_indices=list(range(cohort.num_models)))
            for chunk in split_oversized([whole], cap):
                plans.append(ArrayPlan(cohort=cohort,
                                       indices=list(chunk.original_indices),
                                       width_cap=cap))
        return plans
