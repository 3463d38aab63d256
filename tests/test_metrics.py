import json

import numpy as np
import pytest

from shdiff.diffusion import (
    ANCESTRAL,
    CURVE_COSINE,
    DETERMINISTIC,
    ExecutionResult,
    GenerationOutput,
    ToyWorld,
    make_schedule,
    run_standard,
)
from shdiff.embeddings import PromptSet, generate_synthetic
from shdiff.errors import UsageError
from shdiff.metrics import (
    RunMetrics,
    diversity_pairwise_cosine,
    metrics_to_json,
    quality_mse,
    run_once,
    sweep_csv,
    sweep_tau,
)
from shdiff.planner import ScheduleParams
from shdiff.tree import build_tree


def fake_result(samples: dict[str, np.ndarray]) -> ExecutionResult:
    outputs = {
        pid: GenerationOutput(np.asarray(v, dtype=np.float64), ((0, 1),))
        for pid, v in samples.items()
    }
    return ExecutionResult(outputs=outputs, denoiser_calls=0)


class TestQuality:
    def test_exact_hit_is_zero(self):
        ps = PromptSet(("a",), (None,), np.array([[1.0, 0.0]], dtype=np.float32))
        w = ToyWorld(np.eye(2), 0.0)
        res = fake_result({"a": w.target_mean(np.array([1.0, 0.0]))})
        assert quality_mse(res, w, ps) == 0.0

    def test_known_offset(self):
        ps = PromptSet(("a", "b"), (None, None),
                       np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
        w = ToyWorld(np.eye(2), 0.0)
        res = fake_result({"a": np.array([1.0, 2.0]),   # off by (0, 2): err 4
                           "b": np.array([1.0, 1.0])})  # off by (1, 0): err 1
        assert quality_mse(res, w, ps) == 2.5

    def test_missing_output(self):
        ps = PromptSet(("a", "b"), (None, None),
                       np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32))
        w = ToyWorld(np.eye(2), 0.0)
        with pytest.raises(UsageError):
            quality_mse(fake_result({"a": np.zeros(2)}), w, ps)


class TestDiversity:
    def test_identical_samples(self):
        res = fake_result({f"p{i}": np.array([3.0, 4.0]) for i in range(5)})
        assert diversity_pairwise_cosine(res, 0) == pytest.approx(1.0)

    def test_antipodal_pair(self):
        res = fake_result({"a": np.array([1.0, 0.0]), "b": np.array([-2.0, 0.0])})
        assert diversity_pairwise_cosine(res, 0) == pytest.approx(-1.0)

    def test_orthogonal_pair(self):
        res = fake_result({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 5.0])})
        assert diversity_pairwise_cosine(res, 0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_sample_excluded_with_warning(self):
        res = fake_result({"a": np.array([1.0, 0.0]), "b": np.zeros(2),
                           "c": np.array([1.0, 0.0])})
        with pytest.warns(UserWarning):
            assert diversity_pairwise_cosine(res, 0) == pytest.approx(1.0)

    def test_too_few_outputs(self):
        with pytest.raises(UsageError):
            diversity_pairwise_cosine(fake_result({"a": np.ones(2)}), 0)

    def test_cap_is_deterministic(self):
        rng = np.random.default_rng(0)
        res = fake_result({f"p{i:03d}": rng.standard_normal(4) for i in range(150)})
        a = diversity_pairwise_cosine(res, 3)
        b = diversity_pairwise_cosine(res, 3)
        assert a == b


def setup(N_clusters=4, per=16, d=16, jitter=0.1, std=0.6, K=20, seed=0):
    ps = generate_synthetic(N_clusters, per, d, jitter, seed=seed)
    tree = build_tree(ps)
    world = ToyWorld(np.eye(d), std)
    sch = make_schedule(K, DETERMINISTIC, CURVE_COSINE)
    return ps, tree, world, sch


class TestRunOnce:
    def test_tau_zero_matches_standard(self):
        ps, tree, world, sch = setup(N_clusters=2, per=4, d=8)
        params = ScheduleParams(K=20, tau=0.0)
        plan, result, metrics = run_once(ps, tree, world, sch, params, master_seed=1)
        std = run_standard(tree, world, sch, master_seed=1)
        assert metrics.savings_fraction == 0.0
        assert metrics.evaluations_total == metrics.baseline_evaluations
        assert metrics.mean_squared_error_to_target == pytest.approx(
            quality_mse(std, world, ps))

    def test_repeat_runs_identical_metrics(self):
        ps, tree, world, sch = setup(N_clusters=2, per=4, d=8)
        params = ScheduleParams(K=20, tau=0.8)
        _, _, m1 = run_once(ps, tree, world, sch, params, master_seed=2)
        _, _, m2 = run_once(ps, tree, world, sch, params, master_seed=2)
        assert m1 == m2

    def test_stochastic_sharing_keeps_diversity_close(self):
        # With ancestral sampling, post-split step noise decorrelates prompts,
        # so heavy sharing barely moves mean pairwise similarity.
        ps = generate_synthetic(8, 8, 32, 0.1, seed=0)
        tree = build_tree(ps)
        world = ToyWorld(np.eye(32), 0.8)
        sch = make_schedule(40, ANCESTRAL, CURVE_COSINE)
        shared = run_once(ps, tree, world, sch, ScheduleParams(K=40, tau=1.0), 3)[2]
        independent = run_once(ps, tree, world, sch, ScheduleParams(K=40, tau=0.0), 3)[2]
        assert shared.savings_fraction > 0.5
        assert abs(shared.diversity_mean_pairwise_cosine
                   - independent.diversity_mean_pairwise_cosine) < 0.15


class TestSweep:
    def test_savings_monotone_in_tau(self):
        ps, tree, world, sch = setup(N_clusters=3, per=8, d=16)
        taus = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5]
        rows = sweep_tau(ps, tree, world, sch, taus, master_seed=0)
        savings = [m.savings_fraction for _, m in rows]
        assert savings[0] == 0.0
        assert all(s1 >= s0 for s0, s1 in zip(savings, savings[1:]))
        assert savings[-1] > 0.0

    def test_single_tau(self):
        ps, tree, world, sch = setup(N_clusters=2, per=2, d=8)
        rows = sweep_tau(ps, tree, world, sch, [0.5], master_seed=0)
        assert len(rows) == 1 and rows[0][0] == 0.5

    def test_empty_taus(self):
        ps, tree, world, sch = setup(N_clusters=2, per=2, d=8)
        with pytest.raises(UsageError):
            sweep_tau(ps, tree, world, sch, [], master_seed=0)

    def test_csv_shape_and_stability(self):
        ps, tree, world, sch = setup(N_clusters=2, per=4, d=8)
        rows = sweep_tau(ps, tree, world, sch, [0.0, 1.0], master_seed=0)
        text = sweep_csv(rows, K=sch.K, N=len(ps))
        lines = text.splitlines()
        assert lines[0] == "tau,K,N,evaluations,baseline,savings,quality,diversity"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[1] == "20" and first[2] == "8"
        assert float(first[4]) == 20 * 8
        # byte-stable across repeated sweeps
        rows2 = sweep_tau(ps, tree, world, sch, [0.0, 1.0], master_seed=0)
        assert sweep_csv(rows2, K=sch.K, N=len(ps)) == text


class TestMetricsJson:
    def test_fields(self):
        m = RunMetrics(0.25, 1.5, 0.9, 120, 160)
        doc = json.loads(metrics_to_json(m, K=20, N=8, tau=0.75))
        assert doc["savings_fraction"] == 0.25
        assert doc["evaluations_total"] == 120
        assert doc["baseline_evaluations"] == 160
        assert doc["average_steps_per_prompt"] == 15.0
        assert doc["tau"] == 0.75 and doc["K"] == 20 and doc["N"] == 8
