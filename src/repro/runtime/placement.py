"""Cost-model placement: which device should each fused array train on?

The fleet scheduler's answer to the MLSys co-design framing (Ratner et
al.): placement is not round-robin but *hardware-aware* — the analytical
device model that reproduces the paper's figures (:mod:`repro.hwsim`) is
queried online for every cohort.  For each candidate device the placer
computes the effective width cap (the operator ``max_width`` and the
device's memory capacity under HFTA sharing, :func:`repro.hwsim.
max_models`) and the projected training time of the array at that width
(:func:`repro.hwsim.estimate_array_cost`, i.e. the HFTA execution model of
:func:`repro.hwsim.sharing.simulate` over the workload's kernel costs).

The device chosen for an array is the one that *finishes the cohort's
remaining models first* given the load already placed this cycle — with an
idle fleet that is exactly the device the cost model projects to train the
cohort fastest, and under load it degrades gracefully into
shortest-completion-time balancing, so one fast device does not absorb the
whole stream.  Ranking always compares the *whole remaining chunk set* per
device (equal work), never one device's narrow chunk against another's
full-width array.

A cohort wider than the chosen device's cap falls back to **partial
fusion**: :func:`repro.hfht.partition.split_oversized` carves a
capacity-sized chunk off the cohort, and the remainder is placed
independently — possibly on a different device.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..hfht.partition import Partition, split_oversized
from ..hwsim import (A100, RTX6000, TPU_V3, V100, ArrayCostEstimate,
                     DeviceSpec, WorkloadSpec, estimate_array_cost,
                     get_workload, max_models)
from .batcher import Cohort
from .policy import ArrayPlan

__all__ = ["DEFAULT_FLEET", "PlacementDecision", "PlacementPolicy",
           "FleetPlacer", "synthetic_fleet"]

#: the paper's evaluation devices (Tables 2-4): three generations of NVIDIA
#: data-center GPUs plus a TPU v3 core — a deliberately heterogeneous fleet
DEFAULT_FLEET: Tuple[DeviceSpec, ...] = (V100, RTX6000, A100, TPU_V3)


def synthetic_fleet(num_devices: int,
                    base: Sequence[DeviceSpec] = DEFAULT_FLEET
                    ) -> Tuple[DeviceSpec, ...]:
    """A ``num_devices``-strong fleet of uniquely named replicas cycling
    through ``base`` — the scale-testing fleet builder (1k+ simulated
    devices).  Replicas share their base spec's cost-model profile, which
    the placer's caches collapse: costing a 4096-device fleet is no more
    work than costing its 4 distinct device types."""
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    base = tuple(base)
    if not base:
        raise ValueError("base fleet must not be empty")
    return tuple(
        replace(base[i % len(base)],
                name=f"{base[i % len(base)].name.lower()}-{i:04d}")
        for i in range(num_devices))


class PlacementPolicy:
    """The fleet scheduler's pluggable placement seam.

    A placement policy turns fusible cohorts into device-assigned
    :class:`PlacementDecision` lists.  Two implementations ship:

    * :class:`FleetPlacer` (this module) — the greedy baseline: per-cohort
      shortest-completion-time with load accumulation;
    * :class:`repro.runtime.placement_lp.LPFleetPlacer` — the same
      decision reformulated as a fleet-wide assignment LP (relaxed
      ``scipy.optimize.linprog`` solve plus deterministic greedy
      rounding).

    Beyond :meth:`place`, the fleet and gateway duck-type the cost-model
    helpers every policy inherits from :class:`FleetPlacer`:
    ``width_cap`` (the capacity check),
    ``estimate`` / ``replan`` / ``projected_seconds`` (projections),
    ``cohort_slack`` (SLO ordering) and the ``devices`` /
    ``precision`` / ``default_workload`` attributes.  A placed array is
    final: the fleet never asks a policy to move a live one.
    """

    #: short tag stamped into solver telemetry and benchmark artifacts
    policy_name: str = "base"

    def place(self, cohorts: Sequence[Cohort],
              load: Optional[Dict[str, float]] = None,
              now: Optional[float] = None) -> List["PlacementDecision"]:
        """Turn cohorts into device-assigned, width-sized array plans."""
        raise NotImplementedError


@dataclass
class PlacementDecision:
    """One placed array: the plan, its device, and the cost projection."""

    plan: ArrayPlan
    device: DeviceSpec
    estimate: ArrayCostEstimate

    @property
    def device_name(self) -> str:
        """The assigned device's name (the worker queue this plan joins)."""
        return self.device.name

    @property
    def projected_seconds(self) -> float:
        """Cost-model training time of the array on its device."""
        return self.estimate.train_seconds

    @property
    def projected_throughput(self) -> float:
        """Cost-model training throughput (samples/s) of the array."""
        return self.estimate.throughput


@dataclass
class FleetPlacer(PlacementPolicy):
    """Places fusible cohorts onto a heterogeneous device fleet.

    Parameters
    ----------
    devices:
        The fleet.  Order only breaks exact cost ties.
    max_width:
        Operator-configured array-width cap, applied on every device on
        top of its memory cap (same role as ``ArrayPolicy.max_width``).
    precision:
        Precision the cost model assumes (``amp`` falls back to ``fp32``
        per device capability, as on real hardware).
    default_workload:
        hwsim workload used to cost cohorts whose jobs carry no
        ``TrainingJob.workload`` hint.
    """

    devices: Sequence[DeviceSpec] = DEFAULT_FLEET
    max_width: int = 8
    precision: str = "amp"
    default_workload: str = "pointnet_cls"

    policy_name = "greedy"

    def __post_init__(self):
        if not self.devices:
            raise ValueError("fleet needs at least one device")
        if self.max_width < 1:
            raise ValueError("max_width must be >= 1")
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names in fleet: {names}")
        # the cost model is a pure function of (workload, device profile,
        # width, steps) and train_seconds is linear in steps, so every
        # projection is served from per-profile caches after first
        # computation.  A synthetic_fleet of thousands of replicated
        # devices collapses to its handful of distinct profiles — the
        # difference between O(fleet) and O(device types) per decision,
        # and what keeps 100k-job simulations inside a test budget.
        self._profile_keys: Dict[str, Tuple] = {
            d.name: astuple(d)[1:] for d in self.devices}
        self._cap_cache: Dict[Tuple, int] = {}
        self._est_cache: Dict[Tuple, ArrayCostEstimate] = {}
        self._replan_cache: Dict[Tuple, Tuple[DeviceSpec,
                                              ArrayCostEstimate]] = {}

    # ------------------------------------------------------------------ #
    # cost-model caching
    # ------------------------------------------------------------------ #
    def _profile_key(self, device: DeviceSpec) -> Tuple:
        """The device's cost-model identity (every field but the name)."""
        key = self._profile_keys.get(device.name)
        return key if key is not None else astuple(device)[1:]

    def _base_estimate(self, workload: WorkloadSpec, device: DeviceSpec,
                       width: int) -> ArrayCostEstimate:
        """The memoized steps=1 projection; scale with :meth:`_scaled`."""
        key = (workload.name, self._profile_key(device), width)
        est = self._est_cache.get(key)
        if est is None:
            est = estimate_array_cost(_CostProbe(width, 1), device,
                                      self.precision, workload=workload)
            self._est_cache[key] = est
        return est

    @staticmethod
    def _scaled(base: ArrayCostEstimate, device: DeviceSpec,
                steps: int) -> ArrayCostEstimate:
        """A cached base estimate re-stamped for ``device`` and ``steps``
        (train_seconds is the only steps-dependent field)."""
        return replace(base, device=device.name, steps=steps,
                       train_seconds=steps * base.iteration_time_s)

    # ------------------------------------------------------------------ #
    def resolve_workload(self, cohort_or_plan) -> WorkloadSpec:
        """The hwsim workload costing a cohort/plan (hint or default)."""
        hint = getattr(cohort_or_plan, "workload", None)
        return get_workload(hint or self.default_workload)

    def width_cap(self, workload: WorkloadSpec, device: DeviceSpec) -> int:
        """Effective array-width limit of ``device`` for ``workload``."""
        key = (workload.name, self._profile_key(device))
        cap = self._cap_cache.get(key)
        if cap is None:
            memory_cap = max_models(workload, device, "hfta", self.precision)
            cap = min(self.max_width, memory_cap)
            self._cap_cache[key] = cap
        return cap

    def estimate(self, plan: ArrayPlan,
                 device: DeviceSpec) -> ArrayCostEstimate:
        """Cost-model projection of ``plan`` on ``device``."""
        base = self._base_estimate(self.resolve_workload(plan), device,
                                   plan.num_models)
        return self._scaled(base, device, max(1, getattr(plan, "steps", 1)))

    def projected_seconds(self, workload_hint: Optional[str],
                          num_models: int, steps: int) -> float:
        """Cost-model training time of a hypothetical array on its best
        device — the serving gateway's SLO-slack input: a job is
        *deadline-at-risk* when ``now + projected_seconds`` overruns its
        deadline even on the device the fleet would ideally give it."""
        _, est = self.replan(workload_hint, num_models, max(1, steps))
        return est.train_seconds

    def cohort_slack(self, cohort: Cohort, now: float) -> float:
        """Seconds of SLO slack the cohort's most urgent job has left.

        ``+inf`` for deadline-free cohorts; negative means at risk — the
        cost model projects the job cannot meet its deadline even if
        placed immediately on the ideal device.  Placement sorts cohorts
        by this value, so deadline-at-risk work is placed first, while the
        fleet is at its emptiest within the cycle.
        """
        deadlines = [sub.job.deadline_s for sub in cohort.jobs
                     if sub.job.deadline_s is not None]
        if not deadlines:
            return float("inf")
        # project the urgent job solo (width 1): the optimistic bound the
        # at-risk check uses, and always placeable — the full cohort may be
        # wider than any single device fits and get chunked anyway
        projected = self.projected_seconds(cohort.workload, 1, cohort.steps)
        return min(deadlines) - now - projected

    def replan(self, workload_hint: Optional[str], num_models: int,
               steps: int) -> Tuple[DeviceSpec, ArrayCostEstimate]:
        """The device projected to finish ``steps`` at width
        ``num_models`` first, on an idle fleet (the best case behind
        :meth:`projected_seconds`)."""
        workload = get_workload(workload_hint or self.default_workload)
        steps = max(1, steps)
        # the winning device is steps-independent (train_seconds is linear
        # in steps), so the whole device scan caches per (workload, width)
        cache_key = (workload.name, num_models)
        hit = self._replan_cache.get(cache_key)
        if hit is None:
            best = None
            for device in self.devices:
                if self.width_cap(workload, device) < num_models:
                    continue
                base = self._base_estimate(workload, device, num_models)
                key = (base.iteration_time_s, -base.throughput)
                if best is None or key < best[0]:
                    best = (key, device, base)
            if best is None:
                raise RuntimeError(
                    f"no device in the fleet fits a width-{num_models} "
                    f"'{workload.name}' array under HFTA")
            hit = (best[1], best[2])
            self._replan_cache[cache_key] = hit
        device, base = hit
        return device, self._scaled(base, device, steps)

    # ------------------------------------------------------------------ #
    def place(self, cohorts: Sequence[Cohort],
              load: Optional[Dict[str, float]] = None,
              now: Optional[float] = None) -> List[PlacementDecision]:
        """Turn cohorts into device-assigned, width-sized array plans.

        ``load`` (device name -> projected busy seconds) carries queue
        depth across calls; within one call it accumulates, so the chunks
        of a split cohort and the arrays of later cohorts spread over the
        fleet instead of piling onto one device.

        ``now`` (the gateway's clock reading) turns on deadline-weighted
        placement: cohorts are placed in ascending :meth:`cohort_slack`
        order, so SLO-carrying work picks its device before best-effort
        work loads the fleet — the placement half of the gateway's
        deadline machinery (the admission half is the fair dequeue, the
        enforcement half is preemption).
        """
        load = load if load is not None else {}
        for device in self.devices:
            load.setdefault(device.name, 0.0)

        if now is not None:
            cohorts = sorted(cohorts,
                             key=lambda c: self.cohort_slack(c, now))
        decisions: List[PlacementDecision] = []
        for cohort in cohorts:
            workload = self.resolve_workload(cohort)
            remaining = Partition(
                infusible_values=cohort.infusible_values,
                configs=[sub.job.config for sub in cohort.jobs],
                original_indices=list(range(cohort.num_models)))
            while remaining.num_models:
                device, cap, estimate = self._best_device(
                    cohort, workload, remaining.num_models, load)
                # partial-fusion fallback: carve one capacity-sized chunk
                # off the front; the rest is re-placed (the load this chunk
                # adds may make another device finish the next chunk first)
                chunk, *rest = split_oversized([remaining], cap)
                remaining = Partition(
                    remaining.infusible_values,
                    [c for part in rest for c in part.configs],
                    [i for part in rest for i in part.original_indices])
                plan = ArrayPlan(cohort=cohort,
                                 indices=list(chunk.original_indices),
                                 width_cap=cap, device=device.name,
                                 projected_seconds=estimate.train_seconds)
                decisions.append(PlacementDecision(
                    plan=plan, device=device, estimate=estimate))
                load[device.name] += estimate.train_seconds
        return decisions

    def _best_device(self, cohort: Cohort, workload: WorkloadSpec,
                     num_models: int, load: Dict[str, float]
                     ) -> Tuple[DeviceSpec, int, ArrayCostEstimate]:
        """The device finishing the ``num_models`` remaining models soonest.

        Devices are ranked by the projected completion time of the *whole*
        remaining chunk set (``ceil(n / cap)`` cap-sized arrays), never by
        a single chunk: per-device caps differ, and comparing a
        low-capacity device's narrow chunk against a high-capacity
        device's full-width array would compare unequal amounts of work —
        systematically preferring the device that de-fuses the cohort.
        Only the first chunk is committed per call; the remainder is
        re-ranked with the updated load.
        """
        best = None
        # the per-device projection depends only on the device *profile*
        # (identical replicas share it); only the load term is per-device
        profiles: Dict[Tuple, Tuple] = {}
        for device in self.devices:
            pk = self._profile_key(device)
            entry = profiles.get(pk)
            if entry is None:
                cap = self.width_cap(workload, device)
                if cap < 1:
                    entry = (0, None, 0.0)
                else:
                    widths = [cap] * (num_models // cap)
                    if num_models % cap:
                        widths.append(num_models % cap)
                    bases = {w: self._base_estimate(workload, device, w)
                             for w in set(widths)}
                    total = cohort.steps * sum(
                        bases[w].iteration_time_s for w in widths)
                    entry = (cap, bases[widths[0]], total)
                profiles[pk] = entry
            cap, first_base, total_seconds = entry
            if cap < 1:
                continue        # device cannot fit even one model
            finish = load[device.name] + total_seconds
            key = (finish, -first_base.throughput)
            if best is None or key < best[0]:
                best = (key, device, cap, first_base)
        if best is None:
            raise RuntimeError(
                f"no device in the fleet can fit a single '{workload.name}' "
                f"model under HFTA "
                f"(devices: {[d.name for d in self.devices]})")
        return (best[1], best[2],
                self._scaled(best[3], best[1], cohort.steps))


@dataclass(frozen=True)
class _CostProbe:
    """Minimal duck-typed plan for costing a hypothetical array width."""

    num_models: int
    steps: int
