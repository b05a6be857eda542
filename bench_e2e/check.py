"""The correctness pass: every failure found is one line naming a job.

Run by the same command that measures, off the clock.  A job has failed
when it ended FAILED or was lost (no result), was delivered twice, trained
a different number of steps than its stop rule dictates, produced a
non-finite loss, or departs from serial training of the same job.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np

from repro import nn, optim as serial_optim
from repro.nn import functional as F

from . import spec

_LOSSES = {"cross_entropy": F.cross_entropy, "nll": F.nll_loss}


def expected_steps(job) -> int:
    """Steps the job's own stop rule lets it train (budget, or the first
    epoch boundary at which its ``StopAfter`` rule fires)."""
    if job.stop is None:
        return job.steps
    return min(job.steps, job.stop.epochs * job.epoch_steps)


def check_delivery(jobs, results, key=lambda result: result.job_id) -> list:
    """Exactly-once delivery, step counts and finite curves.

    ``jobs`` maps a key (the job id) to each job owed a result.
    """
    failures = []
    delivered = Counter(key(r) for r in results)
    for extra in delivered.keys() - jobs.keys():
        failures.append(f"{extra}: a result for a job never submitted")
    for job_key, job in jobs.items():
        if delivered[job_key] != 1:
            failures.append(f"{job.name}: delivered {delivered[job_key]} "
                            f"times")
    for result in results:
        job = jobs.get(key(result))
        if job is None:
            continue
        if result.steps_trained != expected_steps(job):
            failures.append(
                f"{job.name}: trained {result.steps_trained} steps, its "
                f"stop rule dictates {expected_steps(job)}")
        elif len(result.loss_curve) != result.steps_trained or \
                not all(math.isfinite(v) for v in result.loss_curve):
            failures.append(f"{job.name}: loss curve is short or not finite")
    return failures


def train_serially(job, steps):
    """The job trained alone with ``repro.optim``: (model, loss curve)."""
    model = job.build_model(None, np.random.default_rng(job.seed))
    optimizer = serial_optim.Adam(model.parameters(), lr=job.config["lr"])
    loss_fn = _LOSSES[job.loss]
    curve = []
    for step in range(steps):
        x, y = job.data(step)
        optimizer.zero_grad()
        loss = loss_fn(model(nn.tensor(x)), y)
        curve.append(float(loss.data))
        loss.backward()
        optimizer.step()
    return model, curve


def relative_gap(ours, theirs) -> float:
    """Largest |difference| relative to the reference's largest value."""
    return float(np.abs(ours - theirs).max() / np.abs(theirs).max())


def check_serial_equivalence(job, result, tolerances) -> list:
    """One delivered job against serial training of the same job;
    ``tolerances`` is (loss curve, checkpoint outputs).

    Weights are not compared: Adam moves a weight whose gradient is pure
    rounding noise (a dead ReLU's, a BatchNorm-cancelled bias) by ``lr``
    per step in either direction, so two equivalent runs differ by O(1)
    there (see README, "Gaps") while computing the same function.
    """
    reference, curve = train_serially(job, result.steps_trained)
    ours, theirs = np.asarray(result.loss_curve), np.asarray(curve)
    if ours.shape != theirs.shape:
        return [f"{job.name}: loss curve has {ours.size} entries, serial "
                f"training {theirs.size}"]
    curve_tolerance, output_tolerance = tolerances
    for steps, tolerance in ((spec.EXACT_STEPS, spec.EXACT_TOLERANCE),
                             (len(ours), curve_tolerance)):
        gap = relative_gap(ours[:steps], theirs[:steps])
        if not gap < tolerance:
            return [f"{job.name}: loss curve departs from serial training "
                    f"by {gap:.2e} within {steps} steps"]
    probe = nn.tensor(job.data(0)[0])
    gap = relative_gap(result.checkpoint(probe).data, reference(probe).data)
    if not gap < output_tolerance:
        return [f"{job.name}: the delivered checkpoint's outputs depart "
                f"from the serially trained model's by {gap:.2e}"]
    return []


def sample_serial_equivalence(jobs, results, seed, tolerances) -> list:
    """A seeded sample of ``SERIAL_SAMPLE`` delivered jobs against serial."""
    results = sorted((r for r in results if r.job_id in jobs),
                     key=lambda r: r.job_id)
    picks = np.random.default_rng([seed, 7]).choice(
        len(results), size=min(spec.SERIAL_SAMPLE, len(results)),
        replace=False)
    failures = []
    for index in picks:
        result = results[int(index)]
        failures += check_serial_equivalence(jobs[result.job_id], result,
                                             tolerances)
    return failures


def missed_negatives(jobs, results, seed, tolerances) -> list:
    """``--smoke``: the checker fed wrong results made from a correct lap;
    one line for every wrong result it lets through."""
    results = sorted((r for r in results if r.job_id in jobs),
                     key=lambda r: r.job_id)
    first = results[0]
    family = first.name.split("_")[0]
    other = next(r for r in results[1:] if r.name.split("_")[0] == family)
    swapped = [dataclasses.replace(first, checkpoint=other.checkpoint),
               dataclasses.replace(other, checkpoint=first.checkpoint)]
    shifted = dataclasses.replace(first, loss_curve=other.loss_curve)
    short = dataclasses.replace(first, loss_curve=first.loss_curve[:-1])
    early = dataclasses.replace(first, steps_trained=first.steps_trained - 1,
                                loss_curve=first.loss_curve[:-1])
    cases = {
        "two jobs' checkpoints swapped": sample_serial_equivalence(
            jobs, swapped, seed, tolerances),
        "another job's loss curve": check_serial_equivalence(
            jobs[first.job_id], shifted, tolerances),
        "a loss curve one entry short": check_delivery(
            jobs, [short] + results[1:]),
        "a job stopped one step early": check_delivery(
            jobs, [early] + results[1:]),
        "a result lost": check_delivery(jobs, results[1:]),
        "a result delivered twice": check_delivery(jobs, results + [first]),
    }
    return [f"the checker accepts {case}"
            for case, failures in cases.items() if not failures]


def check_restart(restart, seed, tolerances) -> list:
    """The restart phase: one crash, every unsettled job re-admitted once,
    everything delivered exactly once, a recovered checkpoint serial-exact."""
    failures = []
    if restart["crashed"] != 1:
        failures.append(f"restart: {restart['crashed']} worker crashes, "
                        f"expected 1")
    if not restart["unsettled"]:
        failures.append("restart: nothing was unsettled when the gateway "
                        "was abandoned")
    if restart["readmitted"] != restart["unsettled"]:
        failures.append(
            f"restart: re-admitted {restart['readmitted']}, the WAL held "
            f"{restart['unsettled']} unsettled")
    if not restart["resumed"]:
        failures.append("restart: no job resumed from a checkpoint")
    if restart["left_unsettled"]:
        failures.append(f"restart: {restart['left_unsettled']} jobs still "
                        f"unsettled after the drain")
    failures += check_delivery(restart["jobs"], restart["results"],
                               key=lambda result: result.name)
    recovered = [r for r in restart["results"]
                 if r.name in set(restart["recovered"])]
    if recovered:
        pick = recovered[int(np.random.default_rng([seed, 8])
                             .integers(len(recovered)))]
        failures += check_serial_equivalence(restart["jobs"][pick.name],
                                             pick, tolerances)
    return failures


def fingerprint(lap) -> tuple:
    """What must repeat exactly when sim_fleet replays the same trace."""
    return (lap.counts["scheduler_decisions"], lap.counts["shed"],
            lap.refused, len(lap.results), lap.slot_steps,
            lap.oracle_speedup, tuple(lap.latencies))


def check_repeats(fingerprints) -> list:
    """sim_fleet: every lap replays one trace on the virtual clock, so
    decisions, sheds and latencies must be equal on all of them."""
    return [f"sim_fleet lap {n} differs from lap 0 in decisions, sheds or "
            f"virtual latencies"
            for n, other in enumerate(fingerprints[1:], 1)
            if other != fingerprints[0]]
