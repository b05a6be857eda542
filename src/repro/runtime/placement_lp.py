"""LP-based global fleet placement: assignment as an optimization problem.

:class:`~repro.runtime.placement.FleetPlacer` answers "where does this
cohort train?" greedily — shortest projected completion time, one cohort
at a time, load accumulated as it goes.  That is a fine list-scheduling
heuristic, but it is *myopic*: the device chosen for the first cohort
never accounts for the cohorts behind it, SLO urgency only orders the
loop, and fused-width efficiency (how badly a device chunks the cohort)
never enters the ranking at all.  On a heterogeneous fleet the slack left
on the table is exactly the production-systems gap the MLSys position
paper calls out.

This module reformulates the whole cycle's placement as one **assignment
LP** (the ``SystemLP`` collection-of-elements architecture, solved with
the ``scipy.optimize.linprog`` idiom):

* **Variables** — ``x[i, d]`` in ``[0, 1]``, the fraction of cohort-chunk
  item ``i`` assigned to device ``d`` (the binary assignment relaxed),
  plus one makespan variable ``T``.
* **Objective** — minimize ``w_makespan * T + sum c[i, d] * x[i, d]``
  where ``c`` mixes the cost model's projected completion time
  (:func:`repro.hwsim.estimate_array_cost` through the placer's caches),
  SLO urgency (items with little ``cohort_slack`` weight their completion
  time up, so deadline work claims fast devices), and fused-width
  efficiency (devices that would de-fuse the item into many narrow chunks
  are penalized).
* **Constraints** — each item fully assigned exactly once
  (``sum_d x[i, d] == 1``); per-device memory/width capacity (``x[i, d]``
  pinned to 0 when the device cannot fit even one model of the item's
  workload under HFTA, and every rounded chunk is at most the device's
  width cap); and the makespan rows ``load_d + sum_i t[i, d] x[i, d] <= T``.

The relaxation is solved with :func:`scipy.optimize.linprog` when scipy
is importable, then **always** rounded to an integral chunk assignment by
the deterministic greedy rounder; with scipy absent the same rounder runs
standalone on the raw costs.  :func:`solve_instance` scores every
candidate under the one objective and returns the best, so the emitted
solution is *never worse than the greedy assignment scored under the same
objective* — the fallback is the floor, the LP is upside.

:class:`LPFleetPlacer` plugs the solver into the runtime as a
:class:`~repro.runtime.placement.FleetPlacer` subclass: ``place()``
builds an instance from the cycle's cohorts and emits
:class:`~repro.runtime.placement.PlacementDecision` lists exactly like
the greedy baseline; a placed array is never moved again.  Solver
latency and objective values land in
:class:`~repro.runtime.metrics.RuntimeMetrics`; under ``execution="sim"``
the solve is charged to the virtual clock as a deterministic
``solver_virtual_cost_s`` rather than its wall-clock latency, so
simulations stay bit-reproducible.  See ``docs/placement.md`` for the
full formulation and tuning guide.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hwsim import get_workload
from .batcher import Cohort
from .placement import FleetPlacer, PlacementDecision
from .policy import ArrayPlan

#: :func:`scipy.optimize.linprog` once ``_solver()`` has imported it at the
#: first LP use, ``None`` when scipy is absent.  scipy is an optional
#: accelerant (the deterministic greedy rounder is the always-on floor) and
#: slow to import, so no package import pays for it.
_UNLOADED = object()
_linprog = _UNLOADED

__all__ = ["LPWeights", "LPItem", "PlacementInstance", "PlacementSolution",
           "InfeasiblePlacement", "lp_available", "solve_lp_relaxation",
           "greedy_round", "score_assignment", "solve_instance",
           "LPFleetPlacer"]

#: one rounded chunk: (device index into the instance's device list, width)
Chunk = Tuple[int, int]

#: an integral solution: per item, its chunks in carve order
Assignment = List[List[Chunk]]


def _solver():
    """:func:`scipy.optimize.linprog`, imported on first use, or ``None``
    when scipy is absent."""
    global _linprog
    if _linprog is _UNLOADED:
        try:
            from scipy.optimize import linprog as _linprog
        except Exception:
            _linprog = None
    return _linprog


def lp_available() -> bool:
    """Whether :func:`scipy.optimize.linprog` is importable here (the
    greedy-rounding fallback runs standalone when it is not).  Imports
    scipy on the first call."""
    return _solver() is not None


class InfeasiblePlacement(RuntimeError):
    """No device in the instance can fit an item (memory capacity zero
    fleet-wide for its workload) — both solver paths raise it for the
    same instances, which is the feasibility-agreement contract the
    property suite pins down."""


@dataclass(frozen=True)
class LPWeights:
    """Objective weights of the placement LP (all unitless multipliers
    over cost-model *seconds*, so the terms compose dimensionally).

    ``makespan`` prices the fleet-wide finish time ``T``; ``completion``
    prices each item's own projected training seconds; ``slo_urgency``
    scales a deadline item's completion cost by its tightness (an at-risk
    item weighs ``1 + slo_urgency`` times its best-effort cost);
    ``defrag`` penalizes de-fusing an item into extra chunks, in the same
    reference-time units (the fused-width-efficiency term).
    """

    makespan: float = 1.0
    completion: float = 0.05
    slo_urgency: float = 4.0
    defrag: float = 0.05

    def __post_init__(self):
        for name in ("makespan", "completion", "slo_urgency", "defrag"):
            if getattr(self, name) < 0:
                raise ValueError(f"LPWeights.{name} must be >= 0")


@dataclass(frozen=True)
class LPItem:
    """One assignable unit: a cohort to place.

    ``slack`` is the item's SLO slack in seconds (``None`` = best
    effort).
    """

    index: int
    num_models: int
    steps: int
    workload: str
    slack: Optional[float] = None

    def __post_init__(self):
        if self.num_models < 1:
            raise ValueError("LPItem.num_models must be >= 1")
        if self.steps < 1:
            raise ValueError("LPItem.steps must be >= 1")


@dataclass
class PlacementInstance:
    """A self-contained numeric instance of the placement problem.

    ``caps[i][d]`` is the width capacity of device ``d`` for item ``i``
    (0 = the device cannot fit one model: memory capacity); ``chunk_fn(i,
    d, width)`` prices one ``width``-wide chunk of item ``i`` on device
    ``d`` over the item's full step budget, in seconds.  ``loads`` are
    the devices' already-committed busy seconds.  Everything downstream —
    relaxation, rounding, scoring — reads only this object, which is what
    makes the solver property-testable on synthetic instances with no
    placer (or fleet) in the loop.
    """

    items: List[LPItem]
    devices: List[str]
    caps: List[List[int]]
    chunk_fn: Callable[[int, int, int], float]
    loads: Dict[str, float] = field(default_factory=dict)
    weights: LPWeights = field(default_factory=LPWeights)

    def __post_init__(self):
        if not self.devices:
            raise ValueError("instance needs at least one device")
        for item in self.items:
            if not any(cap >= 1 for cap in self.caps[item.index]):
                raise InfeasiblePlacement(
                    f"no device fits one '{item.workload}' model of item "
                    f"{item.index} (width {item.num_models})")
        self._full: Dict[Tuple[int, int], float] = {}
        self._ref: Dict[int, float] = {}

    @classmethod
    def from_tables(cls, num_models: Sequence[int], steps: Sequence[int],
                    rates: Sequence[Sequence[float]],
                    caps: Sequence[Sequence[int]],
                    slacks: Optional[Sequence[Optional[float]]] = None,
                    loads: Optional[Dict[str, float]] = None,
                    weights: Optional[LPWeights] = None,
                    devices: Optional[Sequence[str]] = None
                    ) -> "PlacementInstance":
        """Build a synthetic instance from plain tables (test harness).

        ``rates[i][d]`` is item ``i``'s per-step iteration time on device
        ``d``; chunk cost is width-independent (``steps * rate``), the
        simplest model that still exercises every constraint.
        """
        n_dev = len(rates[0]) if rates else 0
        names = list(devices) if devices is not None \
            else [f"dev{d}" for d in range(n_dev)]
        items = [LPItem(index=i, num_models=num_models[i], steps=steps[i],
                        workload="synthetic",
                        slack=None if slacks is None else slacks[i])
                 for i in range(len(num_models))]

        def chunk_fn(i: int, d: int, width: int) -> float:
            return steps[i] * rates[i][d]

        return cls(items=items, devices=names,
                   caps=[list(row) for row in caps], chunk_fn=chunk_fn,
                   loads=dict(loads or {}),
                   weights=weights or LPWeights())

    # ------------------------------------------------------------------ #
    # derived costs (memoized: the relaxation, rounder and scorer all
    # read the same tables)
    # ------------------------------------------------------------------ #
    def chunk_widths(self, i: int, d: int) -> List[int]:
        """The chunk widths item ``i`` trains at on device ``d`` (the
        partial-fusion pattern: cap-sized chunks plus a remainder)."""
        cap = self.caps[i][d]
        if cap < 1:
            return []
        n = self.items[i].num_models
        widths = [cap] * (n // cap)
        if n % cap:
            widths.append(n % cap)
        return widths

    def full_seconds(self, i: int, d: int) -> float:
        """Projected seconds to train ALL of item ``i`` on device ``d``
        (its whole chunk set, the same equal-work total the greedy
        baseline ranks by); ``inf`` when the device cannot fit it."""
        key = (i, d)
        value = self._full.get(key)
        if value is None:
            widths = self.chunk_widths(i, d)
            value = sum(self.chunk_fn(i, d, w) for w in widths) \
                if widths else float("inf")
            self._full[key] = value
        return value

    def ref_seconds(self, i: int) -> float:
        """Item ``i``'s reference time: its best full projection anywhere
        (the unit the defrag penalty is denominated in)."""
        value = self._ref.get(i)
        if value is None:
            value = min(self.full_seconds(i, d)
                        for d in range(len(self.devices)))
            self._ref[i] = value
        return value

    def urgency(self, i: int) -> float:
        """The item's completion-cost multiplier: 1 for best-effort work,
        up to ``1 + slo_urgency`` as SLO slack shrinks below the item's
        reference training time (at-risk work prices fast devices in)."""
        slack = self.items[i].slack
        if slack is None:
            return 1.0
        ref = self.ref_seconds(i)
        if not math.isfinite(ref) or ref <= 0:
            return 1.0 + self.weights.slo_urgency
        tightness = ref / max(slack, ref)      # in (0, 1]; 1 = at risk
        return 1.0 + self.weights.slo_urgency * tightness

    def assign_cost(self, i: int, d: int) -> float:
        """``c[i, d]``: the per-assignment objective coefficient."""
        full = self.full_seconds(i, d)
        if not math.isfinite(full):
            return float("inf")
        w = self.weights
        ref = self.ref_seconds(i)
        cost = w.completion * self.urgency(i) * full
        cost += w.defrag * ref * (len(self.chunk_widths(i, d)) - 1)
        return cost

    def load_of(self, d: int) -> float:
        return self.loads.get(self.devices[d], 0.0)


@dataclass
class PlacementSolution:
    """One solved instance: the integral assignment plus telemetry.

    ``assignment[i]`` lists item ``i``'s chunks in carve order;
    ``objective`` is the assignment's score under
    :func:`score_assignment`; ``solver`` names the path that won
    (``"lp+round"`` or ``"greedy"``); ``relaxed_objective`` is the LP
    lower bound when the relaxation solved.
    """

    assignment: Assignment
    objective: float
    makespan: float
    solver: str
    solve_seconds: float
    relaxed_objective: Optional[float] = None
    virtual_cost_s: float = 0.0


def solve_lp_relaxation(instance: PlacementInstance
                        ) -> Optional[Tuple[np.ndarray, float]]:
    """Solve the relaxed assignment LP; ``(x[i, d], objective)`` on
    success, ``None`` when scipy is absent or the solver fails (the
    greedy rounder then runs standalone)."""
    linprog = _solver()
    if linprog is None:
        return None
    items, devices = instance.items, instance.devices
    n_i, n_d = len(items), len(devices)
    if n_i == 0:
        return np.zeros((0, n_d)), 0.0
    n_x = n_i * n_d                       # + 1 makespan variable T

    c = np.zeros(n_x + 1)
    bounds: List[Tuple[float, Optional[float]]] = []
    for i in range(n_i):
        for d in range(n_d):
            cost = instance.assign_cost(i, d)
            feasible = math.isfinite(cost)
            c[i * n_d + d] = cost if feasible else 0.0
            bounds.append((0.0, 1.0 if feasible else 0.0))
    c[n_x] = instance.weights.makespan
    max_load = max((instance.load_of(d) for d in range(n_d)), default=0.0)
    bounds.append((max_load, None))       # T >= the busiest device today

    # each item assigned exactly once
    a_eq = np.zeros((n_i, n_x + 1))
    for i in range(n_i):
        a_eq[i, i * n_d:(i + 1) * n_d] = 1.0
    b_eq = np.ones(n_i)

    # makespan rows: load_d + sum_i t[i,d] x[i,d] <= T
    rows, rhs = [], []
    for d in range(n_d):
        row = np.zeros(n_x + 1)
        for i in range(n_i):
            full = instance.full_seconds(i, d)
            row[i * n_d + d] = full if math.isfinite(full) else 0.0
        row[n_x] = -1.0
        rows.append(row)
        rhs.append(-instance.load_of(d))

    try:
        result = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                         A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                         method="highs")
    except Exception:                     # solver crash != infeasible:
        return None                       # fall back to greedy rounding
    if not result.success:
        return None
    x = np.asarray(result.x[:n_x]).reshape(n_i, n_d)
    return x, float(result.fun)


def _round_order(instance: PlacementInstance) -> List[int]:
    """Deterministic item order for the rounder: tightest SLO slack
    first, then widest, then index — urgent work picks devices while the
    fleet is at its emptiest, exactly like the greedy baseline's
    slack-sorted loop."""
    def key(i: int):
        slack = instance.items[i].slack
        return (slack if slack is not None else float("inf"),
                -instance.items[i].num_models, i)
    return sorted(range(len(instance.items)), key=key)


def greedy_round(instance: PlacementInstance,
                 fractional: Optional[np.ndarray] = None) -> Assignment:
    """Round a fractional solution to chunks — or build one from scratch.

    With ``fractional`` (the LP relaxation), each item follows its
    fractional mass: chunks are carved on the devices holding the largest
    remaining weight, so an item the LP split 70/30 across two devices
    lands as a 70/30 chunk split.  Without it, the rounder is the
    standalone fallback: per item, each chunk goes to the device with the
    smallest marginal objective (projected finish plus the SLO and defrag
    terms), load accumulating as it commits.  Both paths honor capacity
    exactly and keep every tie-break deterministic.
    """
    n_d = len(instance.devices)
    loads = {name: instance.loads.get(name, 0.0)
             for name in instance.devices}
    out: Assignment = [[] for _ in instance.items]

    for i in _round_order(instance):
        item = instance.items[i]
        eligible = [d for d in range(n_d) if instance.caps[i][d] >= 1]
        weight = None
        if fractional is not None:
            weight = [fractional[i][d] * item.num_models
                      for d in range(n_d)]
        remaining = item.num_models
        while remaining > 0:
            d_star = _pick_device(instance, i, eligible, remaining, loads,
                                  weight)
            width = min(instance.caps[i][d_star], remaining)
            if weight is not None and weight[d_star] > 1e-9:
                # honor the fractional split: do not carve more mass off
                # this device than the relaxation put there (rounded up)
                width = min(width, max(1, math.ceil(weight[d_star] - 1e-9)))
            out[i].append((d_star, width))
            loads[instance.devices[d_star]] += \
                instance.chunk_fn(i, d_star, width)
            if weight is not None:
                weight[d_star] = max(0.0, weight[d_star] - width)
            remaining -= width
    return out


def _pick_device(instance: PlacementInstance, i: int, eligible: List[int],
                 remaining: int, loads: Dict[str, float],
                 weight: Optional[List[float]]) -> int:
    """The rounder's device choice for one chunk (deterministic)."""
    if weight is not None:
        heavy = [d for d in eligible if weight[d] > 1e-9]
        if heavy:
            # largest remaining fractional mass; break ties toward the
            # earlier projected finish, then the lower device index
            def frac_key(d: int):
                width = min(instance.caps[i][d], remaining)
                finish = loads[instance.devices[d]] + \
                    instance.chunk_fn(i, d, width)
                return (-weight[d], finish, d)
            return min(heavy, key=frac_key)
    w = instance.weights

    def cost_key(d: int):
        width = min(instance.caps[i][d], remaining)
        chunk = instance.chunk_fn(i, d, width)
        marginal = w.makespan * (loads[instance.devices[d]] + chunk) \
            + w.completion * instance.urgency(i) * chunk
        # prefer devices that swallow the remainder whole (defrag term)
        if width < remaining:
            marginal += w.defrag * instance.ref_seconds(i)
        return (marginal, d)
    return min(eligible, key=cost_key)


def score_assignment(instance: PlacementInstance,
                     assignment: Assignment) -> Tuple[float, float]:
    """``(objective, makespan)`` of an integral assignment under the
    instance's weights — the one yardstick both solver paths are judged
    by (and the quantity the property suite compares)."""
    loads = {name: instance.loads.get(name, 0.0)
             for name in instance.devices}
    cost = 0.0
    w = instance.weights
    for i, chunks in enumerate(assignment):
        item = instance.items[i]
        placed = 0
        for d, width in chunks:
            seconds = instance.chunk_fn(i, d, width)
            loads[instance.devices[d]] += seconds
            cost += w.completion * instance.urgency(i) * seconds
            placed += width
        if placed != item.num_models:
            raise ValueError(f"item {i} placed {placed} of "
                             f"{item.num_models} models")
        cost += w.defrag * instance.ref_seconds(i) * (len(chunks) - 1)
    makespan = max(loads.values(), default=0.0)
    return cost + w.makespan * makespan, makespan


def solve_instance(instance: PlacementInstance,
                   use_lp: bool = True,
                   virtual_cost_s: float = 0.0) -> PlacementSolution:
    """Solve one placement instance end to end.

    Runs the LP relaxation (when scipy is present and ``use_lp``), rounds
    it, always also builds the standalone greedy-rounded assignment, and
    returns whichever scores better under :func:`score_assignment` —
    ties go to greedy, so the LP path only ever *improves* the fallback.
    Raises :class:`InfeasiblePlacement` (from the instance) when an item
    fits nowhere, identically on both paths.  ``solve_seconds`` excludes
    the one-off scipy import, which happens before the clock starts.
    """
    if use_lp:
        _solver()
    start = time.perf_counter()
    relaxed: Optional[float] = None
    candidates: List[Tuple[str, Assignment]] = []
    if use_lp:
        solved = solve_lp_relaxation(instance)
        if solved is not None:
            fractional, relaxed = solved
            candidates.append(("lp+round",
                               greedy_round(instance, fractional)))
    candidates.append(("greedy", greedy_round(instance, None)))

    best: Optional[Tuple[float, float, str, Assignment]] = None
    for solver, assignment in candidates:
        objective, makespan = score_assignment(instance, assignment)
        if best is None or objective < best[0] - 1e-12:
            best = (objective, makespan, solver, assignment)
    objective, makespan, solver, assignment = best
    return PlacementSolution(
        assignment=assignment, objective=objective, makespan=makespan,
        solver=solver, solve_seconds=time.perf_counter() - start,
        relaxed_objective=relaxed, virtual_cost_s=virtual_cost_s)


@dataclass
class LPFleetPlacer(FleetPlacer):
    """The LP placement policy: global solve, greedy floor.

    A drop-in :class:`~repro.runtime.placement.FleetPlacer` (the fleet
    builds one with ``placement="lp"``): every cost-model helper is
    inherited from it, so
    projections, capacity checks and caches behave identically to the
    greedy baseline — only the *assignment decision* changes.

    Parameters beyond the baseline's:

    ``weights``
        The objective mix (:class:`LPWeights`).
    ``use_lp``
        ``False`` pins the policy to the standalone greedy rounder even
        with scipy installed (the CI fallback leg sets this implicitly by
        not installing scipy).
    ``max_lp_variables``
        Instances larger than this many ``x[i, d]`` variables skip the
        relaxation and round directly — the solve stays off the critical
        path on thousand-device fleets.
    ``solver_virtual_cost_s``
        Deterministic virtual seconds one solve costs under
        ``execution="sim"`` (wall latency is *never* charged to the
        virtual clock: simulations must stay bit-reproducible).
    """

    weights: LPWeights = field(default_factory=LPWeights)
    use_lp: bool = True
    max_lp_variables: int = 20_000
    solver_virtual_cost_s: float = 0.0

    policy_name = "lp"

    def __post_init__(self):
        super().__post_init__()
        if self.use_lp:
            _solver()           # pay for scipy when the fleet is built
        #: telemetry of the most recent solve (the fleet drains it into
        #: RuntimeMetrics after every placement)
        self.last_instance: Optional[PlacementInstance] = None
        self.last_solution: Optional[PlacementSolution] = None

    # ------------------------------------------------------------------ #
    # the placement seam
    # ------------------------------------------------------------------ #
    def place(self, cohorts: Sequence[Cohort],
              load: Optional[Dict[str, float]] = None,
              now: Optional[float] = None) -> List[PlacementDecision]:
        """Solve the cycle's cohorts as one assignment LP and emit plans.

        Same contract as the greedy baseline: ``load`` carries projected
        busy seconds across calls, ``now`` turns on SLO-slack awareness
        (here it feeds the objective's urgency term rather than a sort
        order).  The chunk set each cohort ends up carved into follows
        the solved assignment; chunks are materialized through the same
        partial-fusion slicing as the baseline, so downstream code sees
        indistinguishable :class:`PlacementDecision` objects.
        """
        load = load if load is not None else {}
        for device in self.devices:
            load.setdefault(device.name, 0.0)
        cohorts = list(cohorts)
        if not cohorts:
            return []

        items = []
        for idx, cohort in enumerate(cohorts):
            workload = self.resolve_workload(cohort)
            slack: Optional[float] = None
            if now is not None:
                raw = self.cohort_slack(cohort, now)
                slack = None if math.isinf(raw) else raw
            items.append(LPItem(index=idx, num_models=cohort.num_models,
                                steps=max(1, cohort.steps),
                                workload=workload.name, slack=slack))
        instance = self._build_instance(items, load)
        use_lp = self.use_lp and \
            len(items) * len(self.devices) <= self.max_lp_variables
        solution = solve_instance(instance, use_lp=use_lp,
                                  virtual_cost_s=self.solver_virtual_cost_s)
        self.last_instance, self.last_solution = instance, solution

        decisions: List[PlacementDecision] = []
        devices_by_name = {d.name: d for d in self.devices}
        for idx, cohort in enumerate(cohorts):
            workload = get_workload(items[idx].workload)
            remaining = list(range(cohort.num_models))
            for d_idx, width in solution.assignment[idx]:
                device = devices_by_name[self.devices[d_idx].name]
                chunk_indices, remaining = remaining[:width], remaining[width:]
                cap = self.width_cap(workload, device)
                base = self._base_estimate(workload, device, width)
                estimate = self._scaled(base, device, items[idx].steps)
                plan = ArrayPlan(cohort=cohort, indices=chunk_indices,
                                 width_cap=cap, device=device.name,
                                 projected_seconds=estimate.train_seconds)
                decisions.append(PlacementDecision(
                    plan=plan, device=device, estimate=estimate))
                load[device.name] += estimate.train_seconds
        return decisions

    def _build_instance(self, items: List[LPItem],
                        load: Dict[str, float]) -> PlacementInstance:
        """An instance over the live fleet, priced by the placer caches."""
        device_list = list(self.devices)
        workloads = {item.index: get_workload(item.workload)
                     for item in items}
        caps = [[self.width_cap(workloads[item.index], device)
                 for device in device_list] for item in items]
        steps = {item.index: item.steps for item in items}

        def chunk_fn(i: int, d: int, width: int) -> float:
            base = self._base_estimate(workloads[i], device_list[d], width)
            return steps[i] * base.iteration_time_s

        return PlacementInstance(
            items=items, devices=[d.name for d in device_list], caps=caps,
            chunk_fn=chunk_fn, loads=dict(load), weights=self.weights)
