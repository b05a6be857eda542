"""Job records for the GPU-cluster usage study (paper Section 2.1 / Appendix A)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["JobRecord", "JOB_CATEGORIES"]

#: the four usage categories of Table 1
JOB_CATEGORIES = ("repetitive_single_gpu", "isolated_single_gpu",
                  "distributed", "other")


@dataclass(frozen=True)
class JobRecord:
    """One submitted job, as visible in the scheduler's accounting log.

    Only fields the paper's classification procedure uses are included: the
    classifier never sees the ground-truth category (``true_category`` exists
    only so that the synthetic-trace tests can measure classification
    accuracy).
    """

    job_id: int
    user: str
    name: str
    submit_time_s: float          # seconds since the start of the trace
    duration_hours: float
    num_gpus: int
    num_nodes: int
    requests_specific_node: bool  # multi-node placement constraint
    partition: str = "V2"
    true_category: Optional[str] = None

    @property
    def gpu_hours(self) -> float:
        return self.duration_hours * self.num_gpus
