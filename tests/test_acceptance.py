"""End-to-end acceptance checks for the shared-step diffusion pipeline.

Each test computes its result, prints a single PASS/FAIL line (visible with
pytest -s), and then asserts.  Run with:

    pytest -s tests/test_acceptance.py
"""

import time

import numpy as np

from conftest import manual_tree
from test_diffusion import mc_epsilon_regression, replay_trace

from shdiff.diffusion import (
    ANCESTRAL,
    CURVE_COSINE,
    DETERMINISTIC,
    ToyWorld,
    analytic_epsilon,
    denoise_step,
    execute_plan,
    make_schedule,
    run_standard,
)
from shdiff.embeddings import PromptSet, generate_synthetic
from shdiff.metrics import quality_mse
from shdiff.planner import ScheduleParams, compile_plan, select_node
from shdiff.rng import TAG_INIT, stream
from shdiff.tree import (
    build_tree,
    path_to_root,
    randomize_encodings,
    reembed,
    reference_build_tree,
    structurally_equal,
)


def check(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_01_tau_zero_matches_standard_diffusion_bit_exactly():
    start = time.perf_counter()
    ps = generate_synthetic(8, 8, 8, 0.1, seed=0)  # N=64, d=8
    tree = build_tree(ps)
    world = ToyWorld(np.eye(8), 0.7)
    sch = make_schedule(40, DETERMINISTIC, CURVE_COSINE)
    plan = compile_plan(tree, ScheduleParams(K=40, tau=0.0))
    hier = execute_plan(plan, tree, world, sch, master_seed=3)
    std = run_standard(tree, world, sch, master_seed=3)
    identical = all(
        np.array_equal(hier.outputs[pid].sample, std.outputs[pid].sample)
        for pid in ps.ids
    )
    elapsed = time.perf_counter() - start
    check(
        "tau=0 hierarchical run is bit-identical to per-prompt standard diffusion",
        identical and plan.savings_fraction == 0.0 and elapsed < 5.0,
        f"N=64 K=40, savings={plan.savings_fraction:.2%}, {elapsed:.2f}s",
    )


def test_02_two_prompt_half_share_costs_three_halves_k():
    ok = True
    details = []
    for K in (8, 40, 100):
        tree = manual_tree(["a", "b"], [(0, 1)], [0.49], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        plan = compile_plan(tree, ScheduleParams(K=K, tau=1.0))
        ok = ok and plan.total_evaluations == 3 * K // 2
        ok = ok and plan.savings_fraction == 0.25
        details.append(f"K={K}: {plan.total_evaluations}")
    check(
        "two prompts sharing half the steps cost 3K/2 evaluations (25% saved)",
        ok,
        ", ".join(details),
    )


def test_03_fast_tree_builder_matches_cubic_reference():
    rng = np.random.default_rng(77)
    trials = 200
    agree = 0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        emb = rng.standard_normal((n, d)).astype(np.float32)
        ps = PromptSet(tuple(f"p{i}" for i in range(n)), (None,) * n, emb)
        if structurally_equal(build_tree(ps), reference_build_tree(ps)):
            agree += 1
    check(
        "distance-matrix tree builder structurally matches the O(N^3) reference",
        agree == trials,
        f"{agree}/{trials} random prompt sets",
    )


def test_04_node_selection_invariants_on_random_trees():
    rng = np.random.default_rng(42)
    trials = 200
    ok = True
    for _ in range(trials):
        n = int(rng.integers(2, 13))
        emb = rng.standard_normal((n, 5)).astype(np.float32)
        ps = PromptSet(tuple(f"p{i}" for i in range(n)), (None,) * n, emb)
        tree = build_tree(ps)
        K = int(rng.integers(2, 30))
        tau = float(rng.uniform(0.05, 2.0))
        params = ScheduleParams(K=K, tau=tau)
        for pid in ps.ids:
            path = set(path_to_root(tree, pid))
            depths = []
            for k in range(1, K + 1):
                node = select_node(tree, pid, k, params)
                ok = ok and node in path
                chain = 0
                cur = node
                while cur != tree.root:
                    cur = tree.parent[cur]
                    chain += 1
                depths.append(chain)
            ok = ok and all(d1 >= d0 for d0, d1 in zip(depths, depths[1:]))
            final = select_node(tree, pid, K, params)
            leaf = tree.leaf_of[pid]
            ok = ok and np.array_equal(tree.means[final], tree.means[leaf])
        if not ok:
            break
    check(
        "selected nodes stay on the root path, deepen monotonically, and end at the leaf embedding",
        ok,
        f"{trials} random trees",
    )


def test_05_analytic_denoiser_matches_monte_carlo_regression():
    start = time.perf_counter()
    world = ToyWorld.create(2, 3, 0.7, map_seed=2)
    y = np.array([0.3, -1.0, 0.5])
    ok = True
    worst = 0.0
    for ab in (0.9, 0.5, 0.1):
        xq = np.sqrt(ab) * world.target_mean(y) + np.array([0.4, -0.2])
        ana = analytic_epsilon(world, xq, ab, world.target_mean(y))
        pred, se = mc_epsilon_regression(world, xq, ab, y, n=100_000, seed=13)
        z = np.max(np.abs(ana - pred) / se)
        worst = max(worst, float(z))
        ok = ok and bool(np.all(np.abs(ana - pred) < 3 * se))
    elapsed = time.perf_counter() - start
    check(
        "closed-form noise prediction matches Monte-Carlo regression within 3 standard errors",
        ok and elapsed < 30.0,
        f"worst |z|={worst:.2f} over alpha_bar in {{0.9, 0.5, 0.1}}, {elapsed:.1f}s",
    )


def test_06_sampler_calibration_against_gaussian_target():
    s = 1.0
    m = 8
    world = ToyWorld(np.eye(m), s)
    sch = make_schedule(100, DETERMINISTIC, CURVE_COSINE)
    y = np.linspace(-1.0, 1.0, m)
    mu = world.target_mean(y)
    runs = 1000
    finals = np.empty((runs, m))
    for i in range(runs):
        x = stream(123, TAG_INIT, i).standard_normal(m)
        for k in range(1, sch.K + 1):
            x = denoise_step(x, k, mu, sch, world)
        finals[i] = x
    mean_err = np.max(np.abs(finals.mean(axis=0) - mu))
    var_err = np.max(np.abs(finals.var(axis=0) - s**2)) / s**2
    ok = mean_err < 3 * s / np.sqrt(runs) and var_err < 0.15
    check(
        "1000 deterministic runs land on the target Gaussian's mean and variance",
        ok,
        f"max mean err {mean_err:.4f} (limit {3 * s / np.sqrt(runs):.4f}), "
        f"max var err {var_err:.2%} (limit 15%)",
    )


def test_07_savings_grow_with_prompt_count():
    def savings(clusters, per_cluster):
        ps = generate_synthetic(clusters, per_cluster, 64, 0.02, seed=0)
        plan = compile_plan(build_tree(ps), ScheduleParams(K=40, tau=1.0))
        return plan.savings_fraction

    s16 = savings(4, 4)
    s256 = savings(16, 16)
    n = 10
    dup = PromptSet(tuple(f"p{i}" for i in range(n)), (None,) * n,
                    np.tile(np.array([[0.6, 0.8]], dtype=np.float32), (n, 1)))
    dup_plan = compile_plan(build_tree(dup), ScheduleParams(K=40, tau=1.0))
    ok = s256 > s16 and s256 > 0.30 and dup_plan.savings_fraction == 1.0 - 1.0 / n
    check(
        "savings grow with prompt count and hit 1 - 1/N exactly for duplicates",
        ok,
        f"N=16: {s16:.2%}, N=256: {s256:.2%}, duplicates: {dup_plan.savings_fraction:.2%}",
    )


def test_08_randomized_encodings_lose_most_of_the_savings():
    ok = True
    ratios = []
    for seed in range(5):
        ps = generate_synthetic(16, 16, 64, 0.1, seed=seed)
        true_plan = compile_plan(build_tree(ps), ScheduleParams(K=40, tau=1.0))
        fake_tree = build_tree(randomize_encodings(ps, seed=seed + 1000))
        fake_plan = compile_plan(fake_tree, ScheduleParams(K=40, tau=1.0))
        ratios.append(fake_plan.savings_fraction / true_plan.savings_fraction)
        ok = ok and fake_plan.savings_fraction <= 0.5 * true_plan.savings_fraction
    check(
        "random-encoding trees keep at most half the savings of true-embedding trees",
        ok,
        "ratios: " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_09_sharing_beats_truncation_at_equal_budget():
    K = 40
    ok = True
    details = []
    for seed in range(5):
        ps = generate_synthetic(16, 16, 64, 0.1, seed=seed)
        tree = build_tree(ps)
        world = ToyWorld(np.eye(64), 0.0)
        sch = make_schedule(K, DETERMINISTIC, CURVE_COSINE)
        plan = compile_plan(tree, ScheduleParams(K=K, tau=0.5))
        hier = execute_plan(plan, tree, world, sch, master_seed=seed)
        budget = max(1, round(plan.total_evaluations / len(ps)))
        trunc = run_standard(tree, world, sch, master_seed=seed, max_steps=budget)
        mse_h = quality_mse(hier, world, ps)
        mse_t = quality_mse(trunc, world, ps)
        ok = ok and mse_h < mse_t
        details.append(f"seed {seed}: {mse_h:.2e} vs {mse_t:.2e} @ {budget} steps")
    check(
        "at a matched per-prompt budget, shared full-depth runs beat truncated runs",
        ok,
        "; ".join(details),
    )


def test_10_denoiser_call_count_equals_planned_evaluations():
    ok = True
    counts = []
    for tau, seed in ((0.0, 0), (0.5, 1), (1.0, 2), (1.5, 3)):
        ps = generate_synthetic(4, 8, 16, 0.1, seed=seed)
        tree = build_tree(ps)
        world = ToyWorld(np.eye(16), 0.5)
        sch = make_schedule(24, DETERMINISTIC, CURVE_COSINE)
        plan = compile_plan(tree, ScheduleParams(K=24, tau=tau))
        result = execute_plan(plan, tree, world, sch, master_seed=seed)
        ok = ok and result.denoiser_calls == plan.total_evaluations
        counts.append(f"tau={tau}: {result.denoiser_calls}")
    check(
        "denoiser call count equals the plan's evaluation total (each node-step once)",
        ok,
        ", ".join(counts),
    )


def test_11_shared_execution_equals_per_prompt_trace_replay():
    ps = generate_synthetic(8, 8, 16, 0.1, seed=0)
    tree = build_tree(ps)
    world = ToyWorld(np.eye(16), 0.8)
    plan = compile_plan(tree, ScheduleParams(K=30, tau=1.0))
    ok = True
    seed = 5
    for variant in (DETERMINISTIC, ANCESTRAL):
        sch = make_schedule(30, variant, CURVE_COSINE)
        result = execute_plan(plan, tree, world, sch, master_seed=seed)
        ok = ok and all(
            np.array_equal(out.sample, replay_trace(out, tree, world, sch, seed))
            for out in result.outputs.values()
        )
    check(
        "every shared-execution sample is bit-identical to a lone replay of its own trace",
        ok,
        f"both samplers, N=64, K=30, {plan.total_evaluations} shared evaluations",
    )
