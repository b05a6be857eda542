"""Fusibility-aware grouping of pending jobs into cohorts.

The batcher answers the runtime's first scheduling question: *which* of the
pending jobs may share one horizontally fused array.  Fusibility is a
property of structure, not of a job's name: the paper fuses models that
"have the same types of operators with the same shapes" (Section 3).  The
batcher checks it at two levels:

1. **Cohort key** (exact, per *builder*) — jobs are grouped by
   :func:`repro.hfta.fusion.structural_signature` of what their
   ``build_model`` callable builds, plus the values of their *infusible*
   hyper-parameters, their step budget and epoch cadence (arrays are
   gang-scheduled), their loss, their hwsim workload and the solo flag of
   quarantined retries.  Repetitive jobs share a builder: its first job
   pays one template build and one walk, every later one a dictionary
   lookup — no model is built to *schedule* a job.
2. **Validation** (safety net) — at every real array launch and freed-width
   admission the executor builds the jobs' templates and passes them
   through :func:`repro.hfta.fusion.validate_fusibility`, so a builder whose
   structure is not the constant level 1 assumes can never produce a
   corrupt array (its jobs are quarantined and retrained solo).

A job whose builder raises fails with ``build_model failed: ...`` — in
:meth:`Batcher.form_cohorts` if it is the job that prices its builder,
else at launch/admission, where its cohort-mates still train fused.
The cohorts the batcher emits are *unbounded* in width; sizing them against
the device is the policy's job (:mod:`repro.runtime.policy`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..hfta.fusion import structural_signature
from ..nn.modules.module import Module
from .queue import SubmittedJob

__all__ = ["Cohort", "Batcher", "DEFAULT_INFUSIBLE_KEYS"]

#: config keys treated as infusible when a job declares no search space —
#: they change tensor shapes or the update rule itself.
DEFAULT_INFUSIBLE_KEYS = ("batch_size", "optimizer", "version",
                          "feature_transform")


@dataclass
class Cohort:
    """One fusible group of jobs (equal builder structure, infusible values,
    step budget, epoch cadence, loss and workload); it holds no models —
    the executor that first touches a job's tensors builds its template."""

    infusible_values: Tuple[Tuple[str, object], ...]
    steps: int
    jobs: List[SubmittedJob] = field(default_factory=list)
    #: hwsim workload hint shared by every job of the cohort (placement
    #: cost model input; see TrainingJob.workload)
    workload: "str | None" = None

    @property
    def num_models(self) -> int:
        """The cohort's width: how many models would fuse into one array."""
        return len(self.jobs)


class Batcher:
    """Groups pending jobs into fusible cohorts.

    Tenants are not part of any fusibility key: the runtime packs across
    tenants exactly as it packs across users, which is where the fusion
    win comes from.
    """

    def __init__(self):
        #: ``build_model`` callable -> structural signature of what it
        #: builds, keyed by identity with a strong reference (a recycled id
        #: can never alias a dead builder; unhashable callables work).  A
        #: per-job-fresh callable never hits and pays a template build per
        #: job.  Bounded by clear-on-overflow.
        self._builder_sigs: Dict[int, Tuple[Callable, Tuple]] = {}

    def structural_signature(self, sub: SubmittedJob) -> Tuple:
        """Structural signature of what the job's builder builds.

        Level 1's structure, memoized per ``build_model`` callable; a miss
        builds the job's template and so raises what the builder raises."""
        builder = sub.job.build_model
        entry = self._builder_sigs.get(id(builder))
        if entry is not None and entry[0] is builder:
            return entry[1]
        sig = structural_signature(self.build_template(sub))
        if len(self._builder_sigs) >= 512:
            self._builder_sigs.clear()
        self._builder_sigs[id(builder)] = (builder, sig)
        return sig

    # ------------------------------------------------------------------ #
    def infusible_values(self, sub: SubmittedJob
                         ) -> Tuple[Tuple[str, object], ...]:
        """The job's infusible hyper-parameter values, as a hashable key.

        A search space *adds* declared infusible names to the runtime's
        default key set — it cannot make a default key fusible.  The
        defaults (``batch_size``, ``optimizer``, ...) change tensor shapes
        or the update rule itself, so fusing across them would silently
        train a job with a cohort-mate's optimizer and break the
        serial-equivalence guarantee.
        """
        job = sub.job
        names = [k for k in DEFAULT_INFUSIBLE_KEYS if k in job.config]
        if job.space is not None:
            names.extend(n for n in job.space.infusible_names()
                         if n not in names)
        return tuple((name, job.config.get(name)) for name in names)

    @staticmethod
    def build_template(sub: SubmittedJob) -> Module:
        """The job's seeded, unfused template model (built once, memoized
        on the submission).

        A job carrying a durable-checkpoint resume payload
        (:attr:`SubmittedJob.resume`) gets its template seeded from the
        checkpointed weights instead of fresh initialization — the fused
        array it next boards then starts the slot exactly where the
        checkpoint left it (the optimizer half is injected by the
        executor, see :meth:`ArrayExecutor.prepare`).
        """
        if sub.template is None:
            generator = np.random.default_rng(sub.job.seed)
            template = sub.job.build_model(None, generator)
            if sub.resume is not None and sub.resume.model_state:
                template.load_state_dict(sub.resume.model_state)
            sub.template = template
        return sub.template

    def admission_profile(self, sub: SubmittedJob) -> Tuple:
        """The cheap (template-free) part of a job's fusibility key.

        The elastic executor admits pending jobs into freed array width
        mid-training; candidates are pre-filtered on this profile and
        confirmed against :meth:`structural_signature`.
        Step budgets are deliberately *absent*: per-slot progress tracking
        lets an admitted job train a different budget than its array-mates.

        The result is memoized on the submission (the admission predicate
        evaluates it for every pending job, at every epoch boundary, under
        the queue lock — a job's profile never changes, so pay for the
        infusible-value extraction once).  A job's name is not part of it.
        """
        if sub.profile_cache is None:
            job = sub.job
            sub.profile_cache = (self.infusible_values(sub),
                                 job.loss,
                                 job.workload,
                                 str(job.config.get("optimizer",
                                                    "adam")).lower(),
                                 job.epoch_steps)
        return sub.profile_cache

    # ------------------------------------------------------------------ #
    def form_cohorts(self, batch: Sequence[SubmittedJob]
                     ) -> Tuple[List[Cohort], List[Tuple[SubmittedJob, str]]]:
        """Partition a batch of scheduled jobs into fusible cohorts.

        Returns the cohorts plus the jobs whose builder raised while its
        structure was being priced (with the build error), so one malformed
        job cannot poison the rest of its batch.
        """
        groups: "OrderedDict[Tuple, Cohort]" = OrderedDict()
        failures: List[Tuple[SubmittedJob, str]] = []
        for sub in batch:
            job = sub.job
            try:
                structure = self.structural_signature(sub)
            except Exception as exc:  # noqa: BLE001 — job-provided builder
                failures.append((sub, f"build_model failed: {exc}"))
                continue
            infusible = self.admission_profile(sub)[0]
            key = (
                infusible,                        # shared infusible values
                job.steps,                        # gang-scheduled budget
                job.epoch_steps,                  # gang-scheduled epoch cadence
                job.loss,
                job.workload,                     # one cost model per array
                structure,                        # exact structure
                # quarantined retries train alone (see SubmittedJob.solo)
                sub.job_id if sub.solo else None,
            )
            cohort = groups.get(key)
            if cohort is None:
                cohort = groups[key] = Cohort(
                    infusible_values=infusible, steps=job.steps,
                    workload=job.workload)
            cohort.jobs.append(sub)
        return list(groups.values()), failures
