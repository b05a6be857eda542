"""Tests for HFHT: search spaces, runtime fusion, algorithms, schedulers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import hfht, hwsim


@pytest.fixture(scope="module")
def space():
    return hfht.pointnet_search_space()


@pytest.fixture(scope="module")
def workload():
    return hwsim.get_workload("pointnet_cls")


class TestSearchSpace:
    def test_paper_spaces_have_eight_hyperparameters(self):
        assert len(hfht.pointnet_search_space()) == 8
        assert len(hfht.mobilenet_search_space()) == 8

    def test_fusible_infusible_split(self, space):
        assert set(space.infusible_names()) == {"batch_size",
                                                "feature_transform"}
        assert "lr" in space.names()

    def test_sampling_respects_ranges(self, space):
        rng = np.random.default_rng(0)
        for config in space.sample_batch(20, rng):
            assert 1e-4 <= config["lr"] <= 1e-2
            assert config["batch_size"] in (8, 16, 32)
            assert isinstance(config["feature_transform"], (bool, np.bool_))

    def test_log_scale_sampling_spreads_orders_of_magnitude(self):
        hp = hfht.HyperParameter("lr", True, 1e-5, 1e-1, log_scale=True)
        rng = np.random.default_rng(0)
        values = [hp.sample(rng) for _ in range(200)]
        assert min(values) < 1e-4 and max(values) > 1e-2

    def test_invalid_hyperparameter_definition(self):
        with pytest.raises(ValueError):
            hfht.HyperParameter("x", True)
        with pytest.raises(ValueError):
            hfht.HyperParameter("x", True, 0.0, 1.0, choices=(1, 2))

    def test_duplicate_names_rejected(self):
        hp = hfht.HyperParameter("lr", True, 0.0, 1.0)
        with pytest.raises(ValueError):
            hfht.SearchSpace([hp, hp])


class TestRuntimeFusion:
    """The ``hfta`` scheduler's partition-and-fuse is the runtime's: read
    back from the one-device sim fleet's place events and array records."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 30), st.sampled_from((8, 16, 32)))
    def test_property_arrays_fuse_infusible_groups_within_cap(self, count,
                                                              mem_gb):
        space = hfht.pointnet_search_space()
        workload = hwsim.get_workload("pointnet_cls")
        device = dataclasses.replace(hwsim.V100, mem_gb=mem_gb)
        rng = np.random.default_rng(count)
        trials = [hfht.Trial(config, int(rng.integers(1, 3)))
                  for config in space.sample_batch(count, rng)]
        sched = hfht.JobScheduler(workload, device, space, mode="hfta")
        metrics = sched.fleet.metrics
        metrics.enable_event_log()
        batch = sched.run_batch(trials)

        cap = hwsim.max_models(workload, device, "hfta", "amp")
        placed = [ids for _, (_, ids) in metrics.decisions("place")]
        infusible = space.infusible_names()
        for ids in placed:
            jobs = [sched.fleet.queue.get(i).job for i in ids]
            assert len({tuple(j.config[n] for n in infusible)
                        for j in jobs}) == 1
            assert len({j.steps for j in jobs}) == 1
        records = metrics.records
        assert len(records) == len(placed) == batch.num_jobs_launched
        assert all(r.num_models <= cap for r in records)
        assert sorted(r.num_models for r in records) == \
            sorted(len(ids) for ids in placed)
        # every trial trains exactly once
        assert sorted(i for ids in placed for i in ids) == list(range(count))
        assert metrics.jobs_completed == count
        assert batch.results == [
            hfht.surrogate_accuracy("pointnet_cls", t.config, t.epochs)
            for t in trials]

    def test_mixed_budgets_train_as_separate_arrays(self, workload, space):
        """Trials of one infusible group but different epoch budgets train
        as one array per budget; none is billed the longest's epochs."""
        base = space.sample(np.random.default_rng(0))
        trials = [hfht.Trial(dict(base, lr=1e-4 * (i + 1)), 2 if i < 3 else 6)
                  for i in range(6)]
        sched = hfht.JobScheduler(workload, hwsim.V100, space, mode="hfta")
        batch = sched.run_batch(trials)
        assert batch.num_jobs_launched == 2
        assert batch.gpu_hours == pytest.approx(0.03235094688199111,
                                                rel=1e-12)


class TestAlgorithms:
    def test_random_search_proposes_exact_budget(self, space):
        algo = hfht.RandomSearch(space, total_sets=10, epochs_per_set=3)
        trials = algo.propose()
        assert len(trials) == 10
        assert all(t.epochs == 3 for t in trials)
        algo.update(trials, [0.1] * 10)
        assert algo.finished()

    def test_random_search_tracks_best(self, space):
        algo = hfht.RandomSearch(space, total_sets=5, epochs_per_set=1)
        trials = algo.propose()
        scores = [0.1, 0.9, 0.3, 0.2, 0.4]
        algo.update(trials, scores)
        best_config, best_score = algo.best
        assert best_score == pytest.approx(0.9)
        assert best_config == trials[1].config

    def test_hyperband_successive_halving_shrinks_population(self, space):
        algo = hfht.Hyperband(space, max_epochs=9, eta=3, seed=0)
        first = algo.propose()
        algo.update(first, list(np.linspace(0, 1, len(first))))
        second = algo.propose()
        assert len(second) < len(first)
        assert second[0].epochs > first[0].epochs

    def test_hyperband_survivors_are_top_scorers(self, space):
        algo = hfht.Hyperband(space, max_epochs=9, eta=3, seed=1)
        first = algo.propose()
        scores = list(np.linspace(0, 1, len(first)))
        algo.update(first, scores)
        second = algo.propose()
        best_first = first[int(np.argmax(scores))].config
        assert any(c.config == best_first for c in second)

    def test_hyperband_terminates(self, space):
        algo = hfht.Hyperband(space, max_epochs=9, eta=3, skip_last=1, seed=2)
        rounds = 0
        while not algo.finished() and rounds < 50:
            trials = algo.propose()
            algo.update(trials, [0.5] * len(trials))
            rounds += 1
        assert algo.finished()

    def test_surrogate_prefers_good_lr_and_more_epochs(self):
        good = {"lr": 1e-3, "adam_beta1": 0.9, "adam_beta2": 0.99,
                "weight_decay": 0.0, "lr_decay_factor": 0.5}
        bad = dict(good, lr=9e-3, weight_decay=0.5)
        assert hfht.surrogate_accuracy("t", good, 20) > \
            hfht.surrogate_accuracy("t", bad, 20)
        assert hfht.surrogate_accuracy("t", good, 20) > \
            hfht.surrogate_accuracy("t", good, 2)


class TestSchedulersAndTuner:
    def _run(self, mode, workload, space, total_sets=12, seed=0):
        algo = hfht.RandomSearch(space, total_sets=total_sets,
                                 epochs_per_set=2, seed=seed)
        sched = hfht.JobScheduler(workload, hwsim.V100, space, mode=mode,
                                  precision="amp")
        return hfht.HFHT(algo, sched).run()

    def test_all_scheduler_modes_run(self, workload, space):
        outcomes = {mode: self._run(mode, workload, space)
                    for mode in ("serial", "concurrent", "mps", "hfta")}
        for outcome in outcomes.values():
            assert outcome.total_trials == 12
            assert outcome.total_gpu_hours > 0
            assert outcome.best_config is not None

    def test_hfta_scheduler_cheapest(self, workload, space):
        """Figure 8: the HFTA scheduler needs the fewest GPU hours."""
        serial = self._run("serial", workload, space)
        hfta_run = self._run("hfta", workload, space)
        mps = self._run("mps", workload, space)
        assert hfta_run.total_gpu_hours < mps.total_gpu_hours
        assert hfta_run.total_gpu_hours < serial.total_gpu_hours
        assert serial.total_gpu_hours / hfta_run.total_gpu_hours > 1.5

    def test_results_identical_across_schedulers(self, workload, space):
        """The scheduler changes cost, never the tuning outcome."""
        serial = self._run("serial", workload, space, seed=7)
        fused = self._run("hfta", workload, space, seed=7)
        assert serial.best_score == pytest.approx(fused.best_score, rel=1e-9)
        assert serial.best_config == fused.best_config

    def test_hfta_launches_fewer_jobs(self, workload, space):
        serial = self._run("serial", workload, space)
        fused = self._run("hfta", workload, space)
        assert fused.total_jobs_launched < serial.total_jobs_launched

    def test_hyperband_with_hfta_scheduler(self, workload, space):
        algo = hfht.Hyperband(space, max_epochs=9, eta=3, skip_last=1, seed=0)
        sched = hfht.JobScheduler(workload, hwsim.V100, space, mode="hfta",
                                  precision="amp")
        outcome = hfht.HFHT(algo, sched).run()
        assert outcome.total_gpu_hours > 0
        assert outcome.algorithm == "hyperband"

    def test_random_search_benefits_more_than_hyperband(self, workload, space):
        """Paper Section 5.4: random search is more HFTA-friendly."""
        def saving(algo_factory):
            costs = {}
            for mode in ("serial", "hfta"):
                sched = hfht.JobScheduler(workload, hwsim.V100, space,
                                          mode=mode, precision="amp")
                costs[mode] = hfht.HFHT(algo_factory(), sched).run().total_gpu_hours
            return costs["serial"] / costs["hfta"]

        rs_saving = saving(lambda: hfht.RandomSearch(space, 16, 2, seed=3))
        hb_saving = saving(lambda: hfht.Hyperband(space, max_epochs=9, eta=3,
                                                  skip_last=1, seed=3))
        assert rs_saving > hb_saving

    def test_invalid_scheduler_mode(self, workload, space):
        with pytest.raises(ValueError):
            hfht.JobScheduler(workload, hwsim.V100, space, mode="bogus")

    def test_hfta_rejects_unregistered_workload_variant(self, workload,
                                                       space):
        """The runtime prices arrays by workload name, so a modified spec
        would be billed as the registered one."""
        variant = dataclasses.replace(workload, batch_size=8)
        with pytest.raises(ValueError, match="registered hwsim workloads"):
            hfht.JobScheduler(variant, hwsim.V100, space, mode="hfta")

    @pytest.mark.parametrize("mode", hfht.SCHEDULER_MODES)
    def test_trial_too_large_for_device_raises(self, mode):
        """A device that cannot hold one job fails every mode up front
        instead of billing the tuning run infinite GPU hours."""
        space = hfht.mobilenet_search_space()
        tiny = dataclasses.replace(hwsim.V100, name="tiny", mem_gb=0.5)
        with pytest.raises(RuntimeError,
                           match=f"{mode} cannot fit a single "
                                 f"mobilenet_v3_large job on tiny"):
            sched = hfht.JobScheduler(
                hwsim.get_workload("mobilenet_v3_large"), tiny, space,
                mode=mode)
            hfht.HFHT(hfht.RandomSearch(space, 4, 1, seed=0), sched).run()
