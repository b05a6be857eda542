"""Tests for the cluster-usage study machinery (Table 1, Figures 9-10)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import cluster


@pytest.fixture(scope="module")
def small_trace():
    return cluster.generate_trace(cluster.TraceConfig(num_jobs=3000, seed=5))


@pytest.fixture(scope="module")
def labels(small_trace):
    """``small_trace`` classified once (it takes seconds); tests read it."""
    return cluster.classify_jobs(small_trace)


class TestLevenshtein:
    def test_known_distance(self):
        assert cluster.levenshtein_distance("kitten", "sitting") == 3

    def test_identical_and_empty(self):
        assert cluster.levenshtein_distance("abc", "abc") == 0
        assert cluster.levenshtein_distance("", "abc") == 3
        assert cluster.normalized_similarity("", "") == 1.0

    def test_similarity_of_sweep_names_above_threshold(self):
        a = "pointnet_shapenet_hparam_sweep_lr_trial0001"
        b = "pointnet_shapenet_hparam_sweep_lr_trial0087"
        assert cluster.normalized_similarity(a, b) >= 0.9

    def test_similarity_of_unrelated_names_below_threshold(self):
        assert cluster.normalized_similarity("jupyter_01923",
                                             "bert_ddp_0001") < 0.9

    @settings(max_examples=30, deadline=None)
    @given(st.text(max_size=12), st.text(max_size=12))
    def test_property_symmetric_and_bounded(self, a, b):
        d_ab = cluster.levenshtein_distance(a, b)
        assert d_ab == cluster.levenshtein_distance(b, a)
        assert abs(len(a) - len(b)) <= d_ab <= max(len(a), len(b))

    @settings(max_examples=20, deadline=None)
    @given(st.text(min_size=1, max_size=10), st.text(max_size=10),
           st.text(max_size=10))
    def test_property_triangle_inequality(self, a, b, c):
        assert cluster.levenshtein_distance(a, c) <= \
            cluster.levenshtein_distance(a, b) + cluster.levenshtein_distance(b, c)


class TestTraceGenerator:
    def test_trace_size_and_sorting(self, small_trace):
        assert len(small_trace) > 2500
        times = [j.submit_time_s for j in small_trace]
        assert times == sorted(times)

    def test_categories_present(self, small_trace):
        cats = {j.true_category for j in small_trace}
        assert cats == set(cluster.JOB_CATEGORIES)

    def test_repetitive_jobs_are_single_gpu(self, small_trace):
        for job in small_trace:
            if job.true_category == "repetitive_single_gpu":
                assert job.num_gpus == 1 and job.num_nodes == 1
                assert not job.requests_specific_node

    def test_distributed_jobs_request_multiple_gpus(self, small_trace):
        for job in small_trace:
            if job.true_category == "distributed":
                assert job.num_gpus > 1

    def test_deterministic_for_seed(self):
        cfg = cluster.TraceConfig(num_jobs=200, seed=9)
        a = cluster.generate_trace(cfg)
        b = cluster.generate_trace(cfg)
        assert [j.name for j in a] == [j.name for j in b]

    def test_gpu_hours_positive(self, small_trace):
        assert all(j.gpu_hours > 0 for j in small_trace)


class TestClassifier:
    def test_classifier_recovers_ground_truth(self, small_trace, labels):
        accuracy = cluster.classification_accuracy(small_trace, labels)
        assert accuracy > 0.95

    def test_breakdown_shares_sum_to_one(self, small_trace, labels):
        breakdown = cluster.usage_breakdown(small_trace, labels)
        shares = [breakdown[f"{c}_share"] for c in cluster.JOB_CATEGORIES]
        assert sum(shares) == pytest.approx(1.0)

    def test_repetitive_share_dominates(self, small_trace, labels):
        """Table 1's headline: repetitive single-GPU work is the largest share."""
        breakdown = cluster.usage_breakdown(small_trace, labels)
        rep = breakdown["repetitive_single_gpu_share"]
        assert rep > 0.30
        assert rep > breakdown["isolated_single_gpu_share"]
        assert rep > breakdown["distributed_share"]

    def test_lone_single_gpu_job_is_isolated(self):
        job = cluster.JobRecord(0, "u", "model_x_123", 0.0, 2.0, 1, 1, False)
        labels = cluster.classify_jobs([job])
        assert labels[0] == "isolated_single_gpu"

    def test_burst_of_similar_jobs_is_repetitive(self):
        jobs = [cluster.JobRecord(i, "u", f"sweep_lr_trial{i:03d}", float(i),
                                  2.0, 1, 1, False) for i in range(5)]
        labels = cluster.classify_jobs(jobs)
        assert all(v == "repetitive_single_gpu" for v in labels.values())

    def test_burst_outside_window_not_repetitive(self):
        jobs = [cluster.JobRecord(i, "u", f"sweep_lr_trial{i:03d}",
                                  i * 300.0, 2.0, 1, 1, False)
                for i in range(3)]
        labels = cluster.classify_jobs(jobs)
        assert all(v == "isolated_single_gpu" for v in labels.values())

    def test_different_users_not_grouped(self):
        jobs = [cluster.JobRecord(i, f"user{i}", f"sweep_lr_trial{i:03d}",
                                  float(i), 2.0, 1, 1, False)
                for i in range(4)]
        labels = cluster.classify_jobs(jobs)
        assert all(v == "isolated_single_gpu" for v in labels.values())

    def test_multi_gpu_jobs_are_distributed(self):
        job = cluster.JobRecord(0, "u", "big_model_ddp", 0.0, 5.0, 8, 1, False)
        assert cluster.classify_jobs([job])[0] == "distributed"


class TestUtilizationSampling:
    def test_sampled_jobs_have_low_utilization(self, small_trace, labels):
        """Figure 10: repetitive jobs under-utilize the GPU."""
        samples = cluster.sample_repetitive_utilization(small_trace, labels,
                                                        num_samples=13)
        assert len(samples) == 13
        assert all(0.0 < s.sm_active < 0.85 for s in samples)
        assert all(s.sm_occupancy < s.sm_active for s in samples)

    def test_sampling_is_deterministic(self, small_trace, labels):
        a = cluster.sample_repetitive_utilization(small_trace, labels, 5, seed=1)
        b = cluster.sample_repetitive_utilization(small_trace, labels, 5, seed=1)
        assert [s.job_id for s in a] == [s.job_id for s in b]

    def test_empty_when_no_repetitive_jobs(self):
        job = cluster.JobRecord(0, "u", "solo", 0.0, 1.0, 1, 1, False)
        labels = cluster.classify_jobs([job])
        assert cluster.sample_repetitive_utilization([job], labels) == []


class TestWorkloadSignature:
    def test_collapses_value_variations_of_one_sweep(self):
        names = ["train_lr0.01_bs32", "train_lr0.003_bs64",
                 "train_lr1e-4_bs128"]
        assert len({cluster.workload_signature(n) for n in names}) == 1

    def test_distinguishes_different_workloads(self):
        assert cluster.workload_signature("train_resnet_lr0.01") != \
            cluster.workload_signature("train_pointnet_lr0.01")

    def test_user_scopes_the_key(self):
        assert cluster.workload_signature("train_lr0.01", user="alice") != \
            cluster.workload_signature("train_lr0.01", user="bob")
