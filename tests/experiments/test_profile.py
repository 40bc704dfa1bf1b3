"""Tests for the cluster and adaptive baselines behind ``repro profile``."""

import pytest

from repro.experiments import profile
from repro.experiments.profile import (
    check_adaptive_profile,
    check_cluster_profile,
)


class TestStratifiedClusterMix:
    @pytest.fixture(scope="class")
    def mix(self):
        from repro.experiments.profile import stratified_cluster_mix
        from repro.service.workloads import service_workload

        catalog, _, _, _ = service_workload("movies", 0)
        return stratified_cluster_mix(catalog, 16, (2, 4), 0)

    def test_mix_is_deterministic(self, mix):
        from repro.experiments.profile import stratified_cluster_mix
        from repro.service.workloads import service_workload

        catalog, _, _, _ = service_workload("movies", 0)
        assert stratified_cluster_mix(catalog, 16, (2, 4), 0) == mix

    def test_mix_is_balanced_under_both_rings(self, mix):
        import collections

        from repro.cluster.hashing import ConsistentHashRing

        assert len(mix) == len(set(mix)) == 16
        counts4 = collections.Counter(
            ConsistentHashRing(range(4)).shard_for(q) for q in mix
        )
        assert counts4 == {0: 4, 1: 4, 2: 4, 3: 4}
        counts2 = collections.Counter(
            ConsistentHashRing(range(2)).shard_for(q) for q in mix
        )
        # The 2-ring tolerates a +1 share; never worse.
        assert set(counts2) == {0, 1}
        assert max(counts2.values()) <= 9

    def test_mix_has_uniform_work(self, mix):
        from repro.datalog.parser import parse_query
        from repro.reformulation.buckets import build_buckets
        from repro.service.workloads import service_workload

        catalog, _, _, _ = service_workload("movies", 0)
        for text in mix:
            parsed = parse_query(text)
            assert len(parsed.body) == 2
            assert build_buckets(parsed, catalog).size == 3


class TestCheckClusterProfile:
    def _document(self):
        def arm(throughput, errors=0):
            return {
                "sent": 48,
                "completed": 48,
                "errors": errors,
                "throughput_rps": throughput,
            }

        return {
            "arms": {
                "single": arm(10.0),
                "workers_2": arm(18.0),
                "workers_4": arm(32.0),
            },
            "scaling": {"workers_2": 1.8, "workers_4": 3.2},
        }

    def test_healthy_document_passes(self):
        assert check_cluster_profile(self._document()) == []

    def test_missing_single_arm_fails(self):
        problems = check_cluster_profile({"arms": {}, "scaling": {}})
        assert problems and "single" in problems[0]

    def test_scaling_gate_enforced(self):
        doc = self._document()
        doc["scaling"]["workers_2"] = 1.1
        problems = check_cluster_profile(doc)
        assert any("2 workers" in p and "1.10x" in p for p in problems)

    def test_absent_arm_is_not_a_failure(self):
        doc = self._document()
        del doc["arms"]["workers_4"]
        del doc["scaling"]["workers_4"]
        assert check_cluster_profile(doc) == []

    def test_protocol_errors_fail(self):
        doc = self._document()
        doc["arms"]["workers_2"]["errors"] = 3
        problems = check_cluster_profile(doc)
        assert any("3 protocol errors" in p for p in problems)

    def test_incomplete_arm_fails(self):
        doc = self._document()
        doc["arms"]["workers_4"]["completed"] = 40
        problems = check_cluster_profile(doc)
        assert any("40 of 48" in p for p in problems)


def adaptive_document():
    """A healthy adaptive baseline: every field the check and the CLI
    read, two trials per arm."""

    def arm(ttfa, reorders):
        return {
            "trials": 2,
            "ttfa_s": [ttfa, ttfa],
            "ttfa_p50_s": ttfa,
            "ttfa_p90_s": ttfa,
            "reorders": [reorders, reorders],
            "statuses": ["ok", "ok"],
            "answers": [3, 3],
            "plans_failed": 2,
        }

    return {
        "arms": {"fixed": arm(0.2, 0), "adaptive": arm(0.1, 1)},
        "ttfa_p90_ratio": 0.5,
        "gate": {"max_ttfa_ratio": 0.8},
        "healthy": {"identical": True},
    }


class TestCheckAdaptiveProfile:
    """One doctored document per finding; each yields exactly that one."""

    def test_healthy_document_passes(self):
        assert check_adaptive_profile(adaptive_document()) == []

    def test_missing_arms_fail(self):
        (problem,) = check_adaptive_profile({"arms": {"fixed": {}}})
        assert "no fixed/adaptive arms" in problem

    def test_non_ok_status_fails(self):
        doc = adaptive_document()
        doc["arms"]["adaptive"]["statuses"] = ["ok", "deadline_exceeded"]
        (problem,) = check_adaptive_profile(doc)
        assert "adaptive arm saw non-ok statuses" in problem
        assert "deadline_exceeded" in problem

    def test_unanswered_trial_fails(self):
        doc = adaptive_document()
        doc["arms"]["fixed"]["ttfa_s"] = [None, 0.2]
        (problem,) = check_adaptive_profile(doc)
        assert problem == "fixed arm: 1 of 2 trials got no first answer"

    def test_fixed_arm_reordered_fails(self):
        doc = adaptive_document()
        doc["arms"]["fixed"]["reorders"] = [0, 2]
        (problem,) = check_adaptive_profile(doc)
        assert "fixed arm re-ordered" in problem

    def test_adaptive_trial_never_reordered_fails(self):
        doc = adaptive_document()
        doc["arms"]["adaptive"]["reorders"] = [1, 0]
        (problem,) = check_adaptive_profile(doc)
        assert "never re-ordered" in problem

    def test_ratio_over_the_gate_fails(self):
        doc = adaptive_document()
        doc["ttfa_p90_ratio"] = 0.9
        (problem,) = check_adaptive_profile(doc)
        assert "0.90x fixed-order (gate 0.80x)" in problem

    def test_healthy_streams_differ_fails(self):
        doc = adaptive_document()
        doc["healthy"]["identical"] = False
        (problem,) = check_adaptive_profile(doc)
        assert "healthy streams differ" in problem


class TestRunAdaptiveProfile:
    def test_unanswered_trial_is_a_finding_not_a_crash(self, monkeypatch):
        """A trial with no first answer (``ttfa_s`` None) used to reach
        the percentile sort and raise TypeError."""

        def trial(scenario, *, adaptivity, chaos_seed):
            answered = adaptivity == "on" or chaos_seed != 0
            return {
                "status": "ok",
                "answers": 3 if answered else 0,
                "ttfa_s": (0.02 if adaptivity == "on" else 0.05)
                if answered else None,
                "plans_failed": 2,
                "reorders": 1 if adaptivity == "on" else 0,
            }

        def digest(scenario, *, adaptivity):
            return {"status": "ok", "batches": 16, "stream_sha256": "0" * 64}

        monkeypatch.setattr(profile, "adaptive_trial", trial)
        monkeypatch.setattr(profile, "adaptive_stream_digest", digest)
        payload = profile.run_adaptive_profile(trials=2)
        fixed = payload["arms"]["fixed"]
        assert fixed["ttfa_s"] == [None, 0.05]
        assert fixed["ttfa_p50_s"] == fixed["ttfa_p90_s"] == 0.05
        assert payload["ttfa_p90_ratio"] == pytest.approx(0.4)
        assert check_adaptive_profile(payload) == [
            "fixed arm: 1 of 2 trials got no first answer"
        ]


@pytest.mark.slow
class TestRunClusterProfile:
    def test_quick_run_produces_a_gateable_document(self):
        from repro.experiments.profile import run_cluster_profile

        payload = run_cluster_profile(seed=0, quick=True)
        assert payload["kind"] == "cluster"
        assert set(payload["arms"]) == {"single", "workers_2"}
        assert set(payload["scaling"]) == {"workers_2"}
        for arm in payload["arms"].values():
            assert arm["errors"] == 0
            assert arm["completed"] == arm["sent"] == 48
        # The cluster arm's per-shard section exists and sums up.
        shards = payload["arms"]["workers_2"]["shards"]
        assert sum(s["requests"] for s in shards.values()) == 48
        # Structure only: the scaling *value* is gated by the CI
        # perf-baseline job, not re-asserted under pytest noise.
        assert payload["scaling"]["workers_2"] > 0
        assert payload["gate"]["workers_2"] == 1.6
