"""Property-based tests for the LP placement solver.

Every test here drives :mod:`repro.runtime.placement_lp` through
randomized-but-seeded instances (plain ``random.Random`` streams — the
suite bans unseeded randomness) and asserts the solver's *contracts*
rather than specific assignments:

* capacity — every rounded chunk fits its device's width cap, and no
  chunk lands on a device whose cap for the item is zero;
* conservation — every item is assigned exactly once (its chunk widths
  sum to its width, its indices partition its cohort);
* the greedy floor — the solved objective is never worse than the
  standalone greedy rounding scored under the same objective;
* feasibility agreement — the LP path and the scipy-free fallback raise
  :class:`~repro.runtime.placement_lp.InfeasiblePlacement` for exactly
  the same instances (the no-scipy CI leg runs this same file, so the
  fallback is held to the identical property set).
"""

import random
from types import SimpleNamespace

import pytest

import repro.runtime.placement_lp as placement_lp
from repro.runtime.batcher import Batcher
from repro.runtime.placement import FleetPlacer, synthetic_fleet
from repro.runtime.placement_lp import (InfeasiblePlacement, LPFleetPlacer,
                                        LPWeights, PlacementInstance,
                                        greedy_round, lp_available,
                                        score_assignment, solve_instance)
from repro.runtime.queue import JobQueue

from .conftest import make_sim_job

SEEDS = range(24)


def random_instance(seed):
    """A feasible random instance: fleets of 1-6 devices, 1-8 items."""
    rng = random.Random(seed)
    n_dev = rng.randint(1, 6)
    n_items = rng.randint(1, 8)
    num_models = [rng.randint(1, 12) for _ in range(n_items)]
    steps = [rng.randint(1, 20) for _ in range(n_items)]
    rates = [[rng.uniform(0.1, 5.0) for _ in range(n_dev)]
             for _ in range(n_items)]
    caps = []
    for _ in range(n_items):
        row = [rng.choice((0, 0, 1, 2, 4, 8)) for _ in range(n_dev)]
        if not any(row):
            row[rng.randrange(n_dev)] = rng.choice((1, 2, 4, 8))
        caps.append(row)
    devices = [f"dev{d}" for d in range(n_dev)]
    slacks = [rng.choice((None, None, rng.uniform(-5.0, 50.0)))
              for _ in range(n_items)]
    loads = {name: rng.uniform(0.0, 10.0) for name in devices
             if rng.random() < 0.7}
    return PlacementInstance.from_tables(
        num_models=num_models, steps=steps, rates=rates, caps=caps,
        slacks=slacks, loads=loads, devices=devices)


def assert_solution_legal(instance, solution):
    """The shared capacity/conservation contract."""
    for i, chunks in enumerate(solution.assignment):
        item = instance.items[i]
        assert chunks, f"item {i} got no chunks"
        total = 0
        for d, width in chunks:
            cap = instance.caps[i][d]
            assert cap >= 1, (
                f"item {i} placed on zero-capacity device {d}")
            assert 1 <= width <= cap, (
                f"item {i} chunk width {width} exceeds cap {cap}")
            total += width
        assert total == item.num_models, (
            f"item {i} assigned {total}/{item.num_models} models")
    # the reported objective is exactly what the scorer recomputes
    objective, makespan = score_assignment(instance, solution.assignment)
    assert objective == pytest.approx(solution.objective)
    assert makespan == pytest.approx(solution.makespan)


@pytest.mark.parametrize("seed", SEEDS)
def test_solution_respects_capacity_and_conservation(seed):
    instance = random_instance(seed)
    assert_solution_legal(instance, solve_instance(instance))


@pytest.mark.parametrize("seed", SEEDS)
def test_fallback_respects_same_contract(seed):
    """The standalone greedy rounder obeys the identical property set."""
    instance = random_instance(seed)
    solution = solve_instance(instance, use_lp=False)
    assert solution.solver == "greedy"
    assert_solution_legal(instance, solution)


@pytest.mark.parametrize("seed", SEEDS)
def test_objective_never_worse_than_greedy(seed):
    """The solved objective is the greedy rounding's or better — the LP
    path is pure upside over the fallback, never a regression."""
    instance = random_instance(seed)
    solved = solve_instance(instance)
    greedy = greedy_round(instance, None)
    greedy_objective, _ = score_assignment(instance, greedy)
    assert solved.objective <= greedy_objective + 1e-9


@pytest.mark.parametrize("seed", SEEDS)
def test_lp_and_fallback_agree_on_feasibility(seed):
    """Both solver paths accept exactly the same instances.

    Feasibility is a property of the *instance* (an item some device can
    hold), not of the solver: construction raises for infeasible tables
    before either path runs, and both paths solve every feasible one.
    """
    instance = random_instance(seed)
    for use_lp in (True, False):
        solution = solve_instance(instance, use_lp=use_lp)
        assert all(solution.assignment)


@pytest.mark.parametrize("n_dev", [1, 3])
def test_infeasible_instance_raises_identically(n_dev):
    """An item no device can hold raises on both paths — the same
    feasibility verdict whether or not scipy is importable."""
    with pytest.raises(InfeasiblePlacement):
        PlacementInstance.from_tables(
            num_models=[2, 4], steps=[1, 1],
            rates=[[1.0] * n_dev, [1.0] * n_dev],
            caps=[[4] * n_dev, [0] * n_dev])


@pytest.mark.parametrize("seed", SEEDS)
def test_fallback_matches_lp_contract_without_scipy(seed, monkeypatch):
    """With scipy forcibly absent the solver degrades to the greedy
    rounder and the full contract still holds (this is the code path the
    no-scipy CI job exercises natively)."""
    monkeypatch.setattr(placement_lp, "_linprog", None)
    assert not lp_available()
    instance = random_instance(seed)
    solution = solve_instance(instance)
    assert solution.solver == "greedy"
    assert solution.relaxed_objective is None
    assert_solution_legal(instance, solution)


def test_solve_seconds_exclude_the_solver_import(monkeypatch):
    """scipy loads at the first LP solve, before its clock starts: a slow
    first import never lands in ``solve_seconds``."""
    clock = [0.0]
    monkeypatch.setattr(placement_lp, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))
    real_solver, calls = placement_lp._solver, []

    def slow_first_import():
        if not calls:
            clock[0] += 100.0
        calls.append(1)
        return real_solver()
    monkeypatch.setattr(placement_lp, "_solver", slow_first_import)
    solution = solve_instance(random_instance(0))
    assert calls and solution.solve_seconds == 0.0


def test_lp_improves_on_greedy_when_it_can():
    """On an instance built to punish myopic placement (one fast
    low-capacity device, one slow wide one) the LP solve must actually
    beat the standalone rounding, not just tie it."""
    if not lp_available():
        pytest.skip("scipy absent: no relaxation to improve with")
    instance = PlacementInstance.from_tables(
        num_models=[8, 8, 8], steps=[10, 10, 10],
        rates=[[1.0, 0.2], [1.0, 0.2], [1.0, 0.2]],
        caps=[[8, 2], [8, 2], [8, 2]],
        weights=LPWeights(makespan=1.0, completion=0.01, defrag=0.0))
    solved = solve_instance(instance)
    greedy_objective, _ = score_assignment(
        instance, greedy_round(instance, None))
    assert solved.objective <= greedy_objective


def test_weights_reject_negative_values():
    with pytest.raises(ValueError):
        LPWeights(makespan=-1.0)


def test_urgency_scales_with_slack():
    """Less slack -> higher completion-cost multiplier, bounded by
    1 + slo_urgency; deadline-free items always weigh 1."""
    instance = PlacementInstance.from_tables(
        num_models=[1, 1, 1], steps=[10, 10, 10],
        rates=[[1.0], [1.0], [1.0]], caps=[[4], [4], [4]],
        slacks=[None, 100.0, 0.5],
        weights=LPWeights(slo_urgency=4.0))
    relaxed = instance.urgency(1)
    tight = instance.urgency(2)
    assert instance.urgency(0) == 1.0
    assert 1.0 < relaxed < tight <= 5.0


# --------------------------------------------------------------------- #
# the LPFleetPlacer seam (real cost model, real cohorts)
# --------------------------------------------------------------------- #
def _cohorts(num_jobs, steps=16, seed0=0):
    queue = JobQueue()
    for i in range(num_jobs):
        queue.submit(make_sim_job(seed0 + i, steps=steps))
    cohorts, failures = Batcher().form_cohorts(queue.pop_fair())
    assert not failures
    return cohorts


@pytest.mark.parametrize("num_jobs", [1, 5, 12, 23])
def test_placer_covers_every_cohort_exactly_once(num_jobs):
    placer = LPFleetPlacer(devices=synthetic_fleet(8), max_width=8)
    cohorts = _cohorts(num_jobs)
    decisions = placer.place(cohorts, now=0.0)
    for cohort in cohorts:
        indices = sorted(i for d in decisions if d.plan.cohort is cohort
                         for i in d.plan.indices)
        assert indices == list(range(cohort.num_models))
    for decision in decisions:
        workload = placer.resolve_workload(decision.plan)
        cap = placer.width_cap(workload, decision.device)
        assert len(decision.plan.indices) <= cap


def test_placer_is_deterministic():
    """Two placers over the same fleet and cohorts emit byte-identical
    decision sequences (no wall clock, no unseeded tie-breaks)."""
    runs = []
    for _ in range(2):
        placer = LPFleetPlacer(devices=synthetic_fleet(8), max_width=8)
        decisions = placer.place(_cohorts(14), now=0.0)
        runs.append([(d.device_name, tuple(d.plan.indices))
                     for d in decisions])
    assert runs[0] == runs[1]


def test_placer_objective_never_worse_than_greedy_policy():
    """The LP policy's solved objective is at most the greedy baseline
    assignment's score under the same instance/weights."""
    fleet = synthetic_fleet(8)
    lp = LPFleetPlacer(devices=fleet, max_width=8)
    greedy = FleetPlacer(devices=fleet, max_width=8)
    cohorts = _cohorts(14)
    lp.place(list(cohorts), now=0.0)
    instance = lp.last_instance
    # re-score the greedy baseline's actual chunk choices on the same
    # instance: map each greedy decision back to (device index, width)
    by_name = {name: idx for idx, name in enumerate(instance.devices)}
    greedy_assignment = [[] for _ in instance.items]
    for decision in greedy.place(list(cohorts), now=0.0):
        cohort_idx = cohorts.index(decision.plan.cohort)
        greedy_assignment[cohort_idx].append(
            (by_name[decision.device_name], len(decision.plan.indices)))
    greedy_objective, _ = score_assignment(instance, greedy_assignment)
    assert lp.last_solution.objective <= greedy_objective + 1e-9
