"""HFHT driver: tuning algorithm + job scheduler.

This is the paper's Algorithm 1 loop.  Running the same tuning workload with
the ``serial`` / ``concurrent`` / ``mps`` / ``hfta`` schedulers and comparing
``total_gpu_hours`` regenerates Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algorithms import Trial, TuningAlgorithm
from .scheduler import JobScheduler
from .space import Value

__all__ = ["TuningOutcome", "HFHT"]


@dataclass
class TuningOutcome:
    """Summary of one end-to-end tuning run."""

    algorithm: str
    scheduler_mode: str
    total_gpu_hours: float
    total_trials: int
    total_jobs_launched: int
    best_config: Optional[Dict[str, Value]]
    best_score: float
    rounds: int


class HFHT:
    """Horizontally Fused Hyper-parameter Tuning."""

    def __init__(self, algorithm: TuningAlgorithm, scheduler: JobScheduler,
                 max_rounds: int = 1000):
        self.algorithm = algorithm
        self.scheduler = scheduler
        self.max_rounds = max_rounds
        self.history: List[Tuple[Trial, float]] = []

    def run(self) -> TuningOutcome:
        """Run the propose / schedule / update loop to completion."""
        rounds = 0
        total_trials = 0
        while not self.algorithm.finished() and rounds < self.max_rounds:
            trials = self.algorithm.propose()
            if not trials:
                break
            batch = self.scheduler.run_batch(trials)
            self.algorithm.update(trials, batch.results)
            self.history.extend(zip(trials, batch.results))
            total_trials += len(trials)
            rounds += 1
        best_config, best_score = self.algorithm.best
        return TuningOutcome(
            algorithm=self.algorithm.name,
            scheduler_mode=self.scheduler.mode,
            total_gpu_hours=self.scheduler.total_gpu_hours,
            total_trials=total_trials,
            total_jobs_launched=self.scheduler.total_jobs,
            best_config=best_config,
            best_score=best_score,
            rounds=rounds)
