"""Array sizing: how wide may each fused array be?

The policy answers the runtime's second scheduling question: given a
fusible cohort, *how many* of its models may actually train as one array.
On the single-device engine the answer is an explicit ``max_width``
(operator-configured: fairness, latency SLOs, convergence-monitoring
granularity).  A fleet also bounds each array by its device's memory
capacity under HFTA sharing (:mod:`repro.hwsim`'s ``max_models``); that
cap lives in :class:`repro.runtime.placement.FleetPlacer`.

Cohorts wider than the cap fall back to **partial fusion**: the cohort is
split, in submission order, into capacity-sized chunks, and each chunk
becomes its own :class:`ArrayPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

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
    #: the plan runs on the single-device engine); moving it off a crashed
    #: or quarantined device retags it
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
    """Sizing rule for the single-device engine's fused arrays: a width
    cap.  (A fleet sizes arrays per device with
    :meth:`repro.runtime.placement.FleetPlacer.width_cap`, which adds the
    device's memory cap.)"""

    max_width: int = 8

    def __post_init__(self):
        if self.max_width < 1:
            raise ValueError("max_width must be >= 1")

    def plan(self, cohorts: Sequence[Cohort]) -> List[ArrayPlan]:
        """Turn cohorts into launchable arrays honoring the width cap."""
        cap = self.max_width
        plans: List[ArrayPlan] = []
        for cohort in cohorts:
            indices = list(range(cohort.num_models))
            for start in range(0, len(indices), cap):
                plans.append(ArrayPlan(cohort=cohort,
                                       indices=indices[start:start + cap],
                                       width_cap=cap))
        return plans
