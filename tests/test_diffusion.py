import numpy as np
import pytest

from shdiff.diffusion import (
    ANCESTRAL,
    DETERMINISTIC,
    CURVE_COSINE,
    CURVE_LINEAR_BETA,
    ToyWorld,
    analytic_epsilon,
    denoise_step,
    execute_plan,
    make_schedule,
    noise_forward,
    run_standard,
    world_from_json,
    world_to_json,
)
from shdiff.embeddings import PromptSet, generate_synthetic
from shdiff.errors import UsageError
from shdiff.planner import ScheduleParams, compile_plan
from shdiff.rng import TAG_INIT, TAG_STEP, stream
from shdiff.tree import build_tree


def mc_epsilon_regression(world, x_query, alpha_bar, condition, n=100_000, seed=11):
    """Independent oracle: per-coordinate OLS of eps on x over forward samples."""
    rng = np.random.default_rng(seed)
    m = world.data_dimension
    mu = world.target_mean(condition)
    x0 = mu + world.target_std * rng.standard_normal((n, m))
    eps = rng.standard_normal((n, m))
    x = np.sqrt(alpha_bar) * x0 + np.sqrt(1 - alpha_bar) * eps
    pred = np.empty(m)
    se = np.empty(m)
    for j in range(m):
        design = np.column_stack([np.ones(n), x[:, j]])
        coef, *_ = np.linalg.lstsq(design, eps[:, j], rcond=None)
        resid = eps[:, j] - design @ coef
        s2 = resid @ resid / (n - 2)
        xb = x[:, j].mean()
        sxx = ((x[:, j] - xb) ** 2).sum()
        pred[j] = coef[0] + coef[1] * x_query[j]
        se[j] = np.sqrt(s2 * (1.0 / n + (x_query[j] - xb) ** 2 / sxx))
    return pred, se


class TestSchedule:
    @pytest.mark.parametrize("curve", [CURVE_COSINE, CURVE_LINEAR_BETA])
    def test_alpha_bar_endpoints(self, curve):
        sch = make_schedule(40, DETERMINISTIC, curve)
        assert sch.alpha_bar[0] == 1.0
        assert 0.0 < sch.alpha_bar[40] < 0.05

    @pytest.mark.parametrize("curve", [CURVE_COSINE, CURVE_LINEAR_BETA])
    def test_alpha_bar_strictly_decreasing(self, curve):
        ab = make_schedule(50, DETERMINISTIC, curve).alpha_bar
        assert np.all(np.diff(ab) < 0)

    def test_linear_beta_1000_steps(self):
        sch = make_schedule(1000, DETERMINISTIC, CURVE_LINEAR_BETA)
        assert sch.alpha_bar[1000] < 5e-5

    def test_deterministic_sigma_zero(self):
        sch = make_schedule(20, DETERMINISTIC, CURVE_COSINE)
        assert np.all(sch.sigma == 0.0)

    def test_ancestral_first_step_sigma_zero(self):
        sch = make_schedule(20, ANCESTRAL, CURVE_COSINE)
        assert sch.sigma[1] == 0.0
        assert np.all(sch.sigma[2:] > 0.0)

    def test_coefficients_finite(self):
        for K in (1, 2, 40, 1000):
            sch = make_schedule(K, ANCESTRAL, CURVE_COSINE)
            for arr in (sch.a, sch.b, sch.sigma, sch.alpha_bar):
                assert np.all(np.isfinite(arr))

    def test_bad_k(self):
        with pytest.raises(UsageError):
            make_schedule(0)


class TestNoiseForward:
    def test_no_noise(self):
        x0 = np.array([1.0, 2.0])
        assert np.array_equal(noise_forward(x0, 1.0, np.array([5.0, 5.0])), x0)

    def test_pure_noise(self):
        eps = np.array([3.0, -1.0])
        assert np.array_equal(noise_forward(np.array([1.0, 2.0]), 0.0, eps), eps)

    def test_quarter(self):
        out = noise_forward(np.array([4.0, 0.0]), 0.25, np.array([0.0, 2.0]))
        assert np.allclose(out, [2.0, np.sqrt(3.0)])

    def test_inversion_recovers_x0(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(6)
        eps = rng.standard_normal(6)
        for ab in (0.9, 0.5, 0.03):
            xk = noise_forward(x0, ab, eps)
            rec = (xk - np.sqrt(1 - ab) * eps) / np.sqrt(ab)
            assert np.allclose(rec, x0, rtol=1e-10)


class TestAnalyticEpsilon:
    def test_zero_mean_unit_std(self):
        w = ToyWorld(np.eye(3), 1.0)
        x = np.array([0.5, -1.0, 2.0])
        for ab in (0.9, 0.5, 0.1):
            eps = analytic_epsilon(w, x, ab, np.zeros(3))
            assert np.allclose(eps, np.sqrt(1 - ab) * x, rtol=1e-12)

    def test_point_mass_posterior_is_mu(self):
        w = ToyWorld(np.eye(2), 0.0)
        y = np.array([1.0, -2.0])
        x = np.array([10.0, 10.0])
        ab = 0.5
        eps = analytic_epsilon(w, x, ab, y)
        x0_hat = (x - np.sqrt(1 - ab) * eps) / np.sqrt(ab)
        assert np.allclose(x0_hat, y, rtol=1e-12)

    @pytest.mark.parametrize("ab", [0.9, 0.5, 0.1])
    def test_matches_monte_carlo_regression(self, ab):
        w = ToyWorld.create(2, 3, 0.7, map_seed=2)
        y = np.array([0.3, -1.0, 0.5])
        xq = np.sqrt(ab) * w.target_mean(y) + np.array([0.4, -0.2])
        ana = analytic_epsilon(w, xq, ab, y)
        pred, se = mc_epsilon_regression(w, xq, ab, y)
        assert np.all(np.abs(ana - pred) < 3 * se)

    def test_alpha_bar_domain(self):
        w = ToyWorld(np.eye(2), 1.0)
        for ab in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(UsageError):
                analytic_epsilon(w, np.zeros(2), ab, np.zeros(2))


class TestDenoiseStep:
    def test_deterministic_converges_to_point_mass(self):
        w = ToyWorld(np.eye(2), 0.0)
        sch = make_schedule(10, DETERMINISTIC, CURVE_COSINE)
        y = np.array([2.0, 1.0])
        x = np.array([8.0, -5.0])
        mu = w.target_mean(y)
        start = np.linalg.norm(x - mu)
        for k in range(1, 11):
            x = denoise_step(x, k, y, sch, w)
        # last step has alpha_bar_prev == 1, so the point mass is hit exactly
        assert np.allclose(x, mu, atol=1e-12)
        assert np.linalg.norm(x - mu) < start

    def test_sigma_zero_ancestral_is_mean_update(self):
        w = ToyWorld(np.eye(2), 0.5)
        det = make_schedule(8, ANCESTRAL, CURVE_COSINE)
        y = np.array([1.0, 0.0])
        x = np.array([0.3, 0.7])
        t = det.K - 3 + 1
        eps = analytic_epsilon(w, x, det.alpha_bar[t], y)
        expected = det.a[t] * x - det.b[t] * eps
        # sigma[1] == 0 at the clean end; emulate by a zeroed-sigma schedule
        from dataclasses import replace
        zero = replace(det, sigma=np.zeros(det.K + 1))
        assert np.allclose(denoise_step(x, 3, y, zero, w, stream(0, 9)), expected)

    def test_calibration_against_gaussian_target(self):
        # full deterministic runs from fresh noise land on N(mu, s^2 I)
        s = 1.0
        m = 8
        w = ToyWorld(np.eye(m), s)
        sch = make_schedule(100, DETERMINISTIC, CURVE_COSINE)
        y = np.linspace(-1.0, 1.0, m)
        mu = w.target_mean(y)
        finals = np.empty((1000, m))
        for i in range(1000):
            x = stream(123, TAG_INIT, i).standard_normal(m)
            for k in range(1, 101):
                x = denoise_step(x, k, y, sch, w)
            finals[i] = x
        mean_err = np.abs(finals.mean(axis=0) - mu)
        assert np.all(mean_err < 3 * s / np.sqrt(1000))
        var = finals.var(axis=0)
        assert np.all(np.abs(var - s ** 2) < 0.15 * s ** 2)


def replay_trace(output, tree, world, schedule):
    """Independent oracle: rerun one prompt's own trace with no sharing.

    Starts from the first traced node's initial noise and applies one
    denoising step per traced (node, k), drawing ancestral noise from the
    (seed, node, k) stream, exactly as a lone run along that trace would.
    """
    seed = output.seed
    x = stream(seed, TAG_INIT, output.trace[0][0]).standard_normal(world.data_dimension)
    for node, k in output.trace:
        noise = stream(seed, TAG_STEP, node, k) if schedule.variant == ANCESTRAL else None
        x = denoise_step(x, k, tree.nodes[node].embedding, schedule, world, noise)
    return x


def toy_setup(clusters=2, per_cluster=3, d=8, jitter=0.15, seed=0, K=12,
              std=0.8, tau=1.0, variant=DETERMINISTIC):
    ps = generate_synthetic(clusters, per_cluster, d, jitter, seed=seed)
    tree = build_tree(ps)
    world = ToyWorld(np.eye(d), std)
    sch = make_schedule(K, variant, CURVE_COSINE)
    plan = compile_plan(tree, ScheduleParams(K=K, tau=tau))
    return ps, tree, world, sch, plan


class TestExecutePlan:
    def test_tau_zero_bit_identical_to_standard(self):
        for variant in (DETERMINISTIC, ANCESTRAL):
            ps, tree, world, sch, _ = toy_setup(tau=0.0, variant=variant)
            plan = compile_plan(tree, ScheduleParams(K=12, tau=0.0))
            hier = execute_plan(plan, tree, world, sch, master_seed=5)
            std = run_standard(tree, world, sch, master_seed=5)
            for pid in ps.ids:
                assert np.array_equal(hier.outputs[pid].sample, std.outputs[pid].sample)

    def test_duplicated_prompts_identical_outputs(self):
        n = 6
        ps = PromptSet(tuple(f"p{i}" for i in range(n)), (None,) * n,
                       np.tile(np.array([[0.6, 0.8]], dtype=np.float32), (n, 1)))
        tree = build_tree(ps)
        world = ToyWorld(np.eye(2), 0.5)
        sch = make_schedule(10, DETERMINISTIC, CURVE_COSINE)
        plan = compile_plan(tree, ScheduleParams(K=10, tau=1.0))
        res = execute_plan(plan, tree, world, sch, master_seed=7)
        assert res.denoiser_calls == 10
        ref = res.outputs["p0"].sample
        for pid in ps.ids:
            assert np.array_equal(res.outputs[pid].sample, ref)

    def test_memoization_count(self):
        for tau in (0.0, 0.5, 1.0):
            ps, tree, world, sch, _ = toy_setup(tau=tau)
            plan = compile_plan(tree, ScheduleParams(K=12, tau=tau))
            res = execute_plan(plan, tree, world, sch, master_seed=1)
            assert res.denoiser_calls == plan.total_evaluations

    def test_sibling_traces_share_prefix(self):
        ps, tree, world, sch, plan = toy_setup(jitter=0.05)
        res = execute_plan(plan, tree, world, sch, master_seed=2)
        ids = list(ps.ids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a = plan.assignment[ids[i]]
                b = plan.assignment[ids[j]]
                shared = 0
                while shared < len(a) and a[shared] == b[shared]:
                    shared += 1
                ta = res.outputs[ids[i]].trace
                tb = res.outputs[ids[j]].trace
                assert ta[:shared] == tb[:shared]
                if shared < len(a):
                    assert ta[shared] != tb[shared]

    def test_trace_length_and_finiteness(self):
        ps, tree, world, sch, plan = toy_setup()
        res = execute_plan(plan, tree, world, sch, master_seed=3)
        for pid in ps.ids:
            out = res.outputs[pid]
            assert len(out.trace) == 12
            assert np.all(np.isfinite(out.sample))

    def test_samples_equal_per_prompt_trace_replay(self):
        for variant in (DETERMINISTIC, ANCESTRAL):
            ps, tree, world, sch, plan = toy_setup(variant=variant)
            res = execute_plan(plan, tree, world, sch, master_seed=4)
            for pid in ps.ids:
                out = res.outputs[pid]
                assert np.array_equal(out.sample, replay_trace(out, tree, world, sch))

    def test_repeat_runs_identical(self):
        ps, tree, world, sch, plan = toy_setup(variant=ANCESTRAL)
        a = execute_plan(plan, tree, world, sch, master_seed=9)
        b = execute_plan(plan, tree, world, sch, master_seed=9)
        for pid in ps.ids:
            assert np.array_equal(a.outputs[pid].sample, b.outputs[pid].sample)

    def test_mean_embedding_semantics(self):
        # fully denoising under an internal node lands on A * (node mean)
        ps, tree, world, sch, _ = toy_setup(std=0.0, jitter=0.3)
        internal = next(n for n in tree.nodes if not n.is_leaf)
        x = stream(0, TAG_INIT, internal.node_id).standard_normal(world.data_dimension)
        for k in range(1, sch.K + 1):
            x = denoise_step(x, k, internal.embedding, sch, world)
        assert np.allclose(x, world.target_mean(internal.embedding), atol=1e-6)

    def test_plan_schedule_mismatch(self):
        ps, tree, world, sch, plan = toy_setup(K=12)
        other = make_schedule(10, DETERMINISTIC, CURVE_COSINE)
        with pytest.raises(UsageError):
            execute_plan(plan, tree, world, other, master_seed=0)

    def test_dimension_mismatch(self):
        ps, tree, world, sch, plan = toy_setup(d=8)
        bad_world = ToyWorld(np.eye(4), 1.0)
        with pytest.raises(UsageError):
            execute_plan(plan, tree, bad_world, sch, master_seed=0)


class TestTruncatedStandard:
    def test_truncation_leaves_residual(self):
        ps, tree, world, sch, _ = toy_setup(std=0.0, K=20)
        full = run_standard(tree, world, sch, master_seed=0)
        trunc = run_standard(tree, world, sch, master_seed=0, max_steps=5)
        assert trunc.denoiser_calls == 5 * len(ps)
        for pid in ps.ids:
            mu = world.target_mean(ps.embedding_of(pid).astype(np.float64))
            assert np.linalg.norm(full.outputs[pid].sample - mu) < 1e-8
            assert np.linalg.norm(trunc.outputs[pid].sample - mu) > 1e-3


class TestWorldJson:
    def test_roundtrip_identity(self):
        w = ToyWorld.create(4, 4, 0.7)
        sch = make_schedule(8, ANCESTRAL, CURVE_LINEAR_BETA)
        text = world_to_json(w, sch, 42)
        w2, sch2, seed = world_from_json(text, 4)
        assert seed == 42
        assert np.array_equal(w2.condition_map, w.condition_map)
        assert w2.target_std == 0.7
        assert sch2.K == 8 and sch2.variant == ANCESTRAL and sch2.curve == CURVE_LINEAR_BETA

    def test_roundtrip_random_map(self):
        w = ToyWorld.create(3, 6, 1.0, map_seed=9)
        sch = make_schedule(5)
        w2, _, _ = world_from_json(world_to_json(w, sch, 0), 6)
        assert np.array_equal(w2.condition_map, w.condition_map)

    def test_identity_dim_mismatch(self):
        w = ToyWorld.create(4, 4, 1.0)
        text = world_to_json(w, make_schedule(5), 0)
        with pytest.raises(UsageError):
            world_from_json(text, 7)
