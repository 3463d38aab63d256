import hashlib
import itertools
import tracemalloc
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from shdiff import diffusion
from shdiff.diffusion import (
    ANCESTRAL,
    DETERMINISTIC,
    CURVE_COSINE,
    CURVE_LINEAR_BETA,
    MAX_DATA_DIMENSION,
    GenerationOutput,
    ToyWorld,
    analytic_epsilon,
    denoise_step,
    execute_plan,
    make_schedule,
    run_standard,
    step_table,
    world_from_json,
)
from shdiff.embeddings import PromptSet, generate_synthetic
from shdiff.errors import DataError, UsageError
from shdiff.planner import FRESH, MAX_K, ScheduleParams, compile_plan
from shdiff.rng import TAG_INIT, TAG_STEP, stream
from shdiff.tree import build_tree


def noise_forward(x0, alpha_bar_k, epsilon):
    """Forward noising sqrt(ab)*x0 + sqrt(1-ab)*eps, which only these tests use."""
    return np.sqrt(alpha_bar_k) * x0 + np.sqrt(1.0 - alpha_bar_k) * epsilon


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


class Coefficients(NamedTuple):
    """One row of ``NoiseSchedule.coefficients``, as the schedule stored it
    before it held one array."""

    alpha_bar: float
    root_ab: float
    root_one_minus_ab: float
    a: float
    b: float
    sigma: float


# sha256 of the repr of make_schedule(K, variant, curve).coefficients as a
# tuple of Coefficients rows of Python floats.  Every sample's bytes depend
# on these bits; they were computed when the schedule still stored one
# array per column.
SCHEDULE_TABLE_SHA256 = {
    (1, DETERMINISTIC, CURVE_COSINE):
        "83519a495ca925e63625fbb12e7af70abc0036055a4694e4069ace958acf58ea",
    (1, DETERMINISTIC, CURVE_LINEAR_BETA):
        "ea8f597cf15c9bdef5a6f66bf6debce981027aaca9b82d00abbf39f3a39c0b2c",
    (1, ANCESTRAL, CURVE_COSINE):
        "83519a495ca925e63625fbb12e7af70abc0036055a4694e4069ace958acf58ea",
    (1, ANCESTRAL, CURVE_LINEAR_BETA):
        "ea8f597cf15c9bdef5a6f66bf6debce981027aaca9b82d00abbf39f3a39c0b2c",
    (40, DETERMINISTIC, CURVE_COSINE):
        "53043f2166417e3fe6545bc865f7e591d374abf479466125da5e3b27967345ed",
    (40, DETERMINISTIC, CURVE_LINEAR_BETA):
        "d3ba3743e72a6ba44bdf2243d46b3b3446aab4eea74aa078316e0aec33d628d2",
    (40, ANCESTRAL, CURVE_COSINE):
        "fc65b59f68f07841eb313b5fd68746127e3d32e55903b1a869771e26c2deb6d0",
    (40, ANCESTRAL, CURVE_LINEAR_BETA):
        "aaf2b9f41417a76032d58ba4a3005556d625d006da467492eedc80c256284a0a",
    (200, DETERMINISTIC, CURVE_COSINE):
        "9b766e1659d9d485f446ac3e1061958e7ca54ca9df7da6c440ffd7df9d54161e",
    (200, DETERMINISTIC, CURVE_LINEAR_BETA):
        "596b1a78278d1ce50827f210fd393f69d47f6e4b1729444a24a23a581fd376d1",
    (200, ANCESTRAL, CURVE_COSINE):
        "8c121e4dfa18ab100e3eba40c87edb717c809df286272b282d552b466119ee4f",
    (200, ANCESTRAL, CURVE_LINEAR_BETA):
        "8b5ccdc186750b4de755fbdc258f5a892f7a834b3c3aabf2cfaec70a017f1463",
    (1000, DETERMINISTIC, CURVE_COSINE):
        "6db2a250969ed04ca89e6c64264af3a0bee8d855b5c28822aa445aa5d3a3291a",
    (1000, DETERMINISTIC, CURVE_LINEAR_BETA):
        "12f4d30b78e727b13519b2a323371aca0bd999d11c1f2381058df4c007b99dea",
    (1000, ANCESTRAL, CURVE_COSINE):
        "680db02f90e8a7e9f31cf583301032dc1480ccc5055b741aa8321a86f1c3982b",
    (1000, ANCESTRAL, CURVE_LINEAR_BETA):
        "f29b16228a0fdbc56a00703ab4df6fd17bf4c0191837ce904c30331f248a45dc",
}


def column(sch, name):
    """One coefficient of every noise level t = 0..K, as an array."""
    return sch.coefficients[:, Coefficients._fields.index(name)]


class TestSchedule:
    @pytest.mark.parametrize("key", sorted(SCHEDULE_TABLE_SHA256), ids=str)
    def test_table_pinned(self, key):
        rows = make_schedule(*key).coefficients.tolist()
        table = repr(tuple(map(Coefficients._make, rows))).encode()
        assert hashlib.sha256(table).hexdigest() == SCHEDULE_TABLE_SHA256[key]

    @pytest.mark.parametrize("curve", [CURVE_COSINE, CURVE_LINEAR_BETA])
    def test_alpha_bar_endpoints(self, curve):
        sch = make_schedule(40, DETERMINISTIC, curve)
        ab = column(sch, "alpha_bar")
        assert ab[0] == 1.0
        assert 0.0 < ab[40] < 0.05

    @pytest.mark.parametrize("curve", [CURVE_COSINE, CURVE_LINEAR_BETA])
    def test_alpha_bar_strictly_decreasing(self, curve):
        ab = column(make_schedule(50, DETERMINISTIC, curve), "alpha_bar")
        assert np.all(np.diff(ab) < 0)

    def test_linear_beta_1000_steps(self):
        sch = make_schedule(1000, DETERMINISTIC, CURVE_LINEAR_BETA)
        assert column(sch, "alpha_bar")[1000] < 5e-5

    def test_deterministic_sigma_zero(self):
        sch = make_schedule(20, DETERMINISTIC, CURVE_COSINE)
        assert np.all(column(sch, "sigma") == 0.0)

    def test_ancestral_first_step_sigma_zero(self):
        sigma = column(make_schedule(20, ANCESTRAL, CURVE_COSINE), "sigma")
        assert sigma[1] == 0.0
        assert np.all(sigma[2:] > 0.0)

    def test_coefficients_finite(self):
        for K in (1, 2, 40, 1000):
            sch = make_schedule(K, ANCESTRAL, CURVE_COSINE)
            assert len(sch.coefficients) == K + 1
            assert np.all(np.isfinite(sch.coefficients))

    @pytest.mark.parametrize("K", [1, 40])
    def test_coefficients_one_read_only_array(self, K):
        table = make_schedule(K, ANCESTRAL, CURVE_COSINE).coefficients
        assert isinstance(table, np.ndarray)
        assert table.shape == (K + 1, 6) and table.dtype == np.float64
        with pytest.raises(ValueError):
            table[1, 0] = 0.5

    def test_bad_k(self):
        for k in (0, MAX_K + 1, 2**31, 2**63):  # rejected before anything K-long exists
            with pytest.raises(UsageError, match=f"K must be in 1..{MAX_K}"):
                make_schedule(k)


@pytest.mark.parametrize("make", [lambda: make_schedule(5), lambda: ToyWorld.create(3, 3, 1.0),
                                  lambda: GenerationOutput(np.zeros(2), ((0, 2),))],
                         ids=["NoiseSchedule", "ToyWorld", "GenerationOutput"])
def test_compared_and_hashed_by_identity(make):
    # array fields have no single truth value, so field-wise == would raise
    first, second = make(), make()
    assert first == first and first != second
    assert len({first, second, first}) == 2


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


def conditions(d, seed=0):
    """Random (float64 and float32), all -0.0, mixed +-0.0, subnormal and huge
    conditions of length d."""
    rng = np.random.default_rng(seed)
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    return [
        rng.standard_normal(d),
        rng.standard_normal(d).astype(np.float32),
        np.full(d, -0.0),
        signs * 0.0,
        rng.standard_normal(d) * 1e-310,
        signs * 5e-324,
        np.where(rng.random(d) < 0.5, -0.0, rng.standard_normal(d) * 1e-300),
        rng.standard_normal(d) * 1e300,
    ]


class TestTargetMean:
    @pytest.mark.parametrize("d", [1, 2, 3, 64, 768])
    def test_identity_bitwise_equal_to_matvec(self, d):
        world = ToyWorld.create(d, d, 1.0)
        assert world.condition_map is None  # no d x d array is held
        eye = np.eye(d)
        for y in conditions(d, seed=d):
            assert world.target_mean(y).tobytes() == (eye @ y).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 64, 768])
    def test_identity_with_negative_zeros_off_diagonal(self, d):
        # the copy also has the bits of an identity map written with -0.0
        A = np.where(np.eye(d) == 1.0, 1.0, -0.0)
        world = ToyWorld.create(d, d, 1.0)
        for y in conditions(d, seed=d):
            assert world.target_mean(y).tobytes() == (A @ y).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 64, 768])
    def test_other_maps_keep_matvec(self, d):
        scaled = np.eye(d)
        scaled[-1, -1] = 2.0
        maps = [np.eye(d), scaled, np.eye(d, d + 3), np.eye(d + 3, d),
                ToyWorld.create(d, d + 3, 1.0, map_seed=d).condition_map]
        if d > 1:
            maps += [np.eye(d)[::-1].copy(), np.eye(d) + np.eye(d, k=1)]
        for A in maps:
            world = ToyWorld(A, 1.0)
            assert world.condition_map is A
            for y in conditions(A.shape[1], seed=d):
                assert world.target_mean(y).tobytes() == (A @ y).tobytes()

    def test_identity_rejects_wrong_length(self):
        world = ToyWorld.create(4, 4, 1.0)
        for y in (np.zeros(5), np.zeros(3), np.zeros((4, 1))):
            with pytest.raises(ValueError):
                world.target_mean(y)

    def test_map_is_read_only(self):
        world = ToyWorld.create(3, 4, 1.0)
        with pytest.raises(ValueError):
            world.condition_map[0, 1] = 1.0

    @pytest.mark.parametrize("args", [(None, 1.0), (np.eye(2), 1.0, 2), (None, 1.0, 0)],
                             ids=["neither", "both", "dimension 0"])
    def test_map_or_identity_dimension(self, args):
        with pytest.raises(UsageError):
            ToyWorld(*args)


class TestAnalyticEpsilon:
    def test_zero_mean_unit_std(self):
        w = ToyWorld(np.eye(3), 1.0)
        x = np.array([0.5, -1.0, 2.0])
        for ab in (0.9, 0.5, 0.1):
            eps = analytic_epsilon(w, x, ab, w.target_mean(np.zeros(3)))
            assert np.allclose(eps, np.sqrt(1 - ab) * x, rtol=1e-12)

    def test_point_mass_posterior_is_mu(self):
        w = ToyWorld(np.eye(2), 0.0)
        y = np.array([1.0, -2.0])
        x = np.array([10.0, 10.0])
        ab = 0.5
        eps = analytic_epsilon(w, x, ab, w.target_mean(y))
        x0_hat = (x - np.sqrt(1 - ab) * eps) / np.sqrt(ab)
        assert np.allclose(x0_hat, y, rtol=1e-12)

    @pytest.mark.parametrize("ab", [0.9, 0.5, 0.1])
    def test_matches_monte_carlo_regression(self, ab):
        w = ToyWorld.create(2, 3, 0.7, map_seed=2)
        y = np.array([0.3, -1.0, 0.5])
        xq = np.sqrt(ab) * w.target_mean(y) + np.array([0.4, -0.2])
        ana = analytic_epsilon(w, xq, ab, w.target_mean(y))
        pred, se = mc_epsilon_regression(w, xq, ab, y)
        assert np.all(np.abs(ana - pred) < 3 * se)

    def test_alpha_bar_domain(self):
        w = ToyWorld(np.eye(2), 1.0)
        for ab in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(UsageError):
                analytic_epsilon(w, np.zeros(2), ab, w.target_mean(np.zeros(2)))


class TestDenoiseStep:
    def test_deterministic_converges_to_point_mass(self):
        w = ToyWorld(np.eye(2), 0.0)
        sch = make_schedule(10, DETERMINISTIC, CURVE_COSINE)
        y = np.array([2.0, 1.0])
        x = np.array([8.0, -5.0])
        mu = w.target_mean(y)
        start = np.linalg.norm(x - mu)
        steps = step_table(sch, w)
        for k in range(1, 11):
            x = denoise_step(x, k, mu, steps)
        # last step has alpha_bar_prev == 1, so the point mass is hit exactly
        assert np.allclose(x, mu, atol=1e-12)
        assert np.linalg.norm(x - mu) < start

    def test_sigma_zero_ancestral_is_mean_update(self):
        w = ToyWorld(np.eye(2), 0.5)
        det = make_schedule(8, ANCESTRAL, CURVE_COSINE)
        y = np.array([1.0, 0.0])
        x = np.array([0.3, 0.7])
        t = det.K - 3 + 1
        row = Coefficients._make(det.coefficients[t].tolist())
        eps = analytic_epsilon(w, x, row.alpha_bar, w.target_mean(y))
        expected = row.a * x - row.b * eps
        # sigma[1] == 0 at the clean end; emulate by a zeroed-sigma schedule
        table = det.coefficients.copy()
        table[:, Coefficients._fields.index("sigma")] = 0.0
        zero = replace(det, coefficients=table)
        z = stream(0, 9).standard_normal(2)
        assert np.allclose(denoise_step(x, 3, w.target_mean(y), step_table(zero, w), z), expected)

    def test_calibration_against_gaussian_target(self):
        # full deterministic runs from fresh noise land on N(mu, s^2 I)
        s = 1.0
        m = 8
        w = ToyWorld(np.eye(m), s)
        sch = make_schedule(100, DETERMINISTIC, CURVE_COSINE)
        y = np.linspace(-1.0, 1.0, m)
        mu = w.target_mean(y)
        finals = np.empty((1000, m))
        steps = step_table(sch, w)
        for i in range(1000):
            x = stream(123, TAG_INIT, i).standard_normal(m)
            for k in range(1, 101):
                x = denoise_step(x, k, mu, steps)
            finals[i] = x
        mean_err = np.abs(finals.mean(axis=0) - mu)
        assert np.all(mean_err < 3 * s / np.sqrt(1000))
        var = finals.var(axis=0)
        assert np.all(np.abs(var - s ** 2) < 0.15 * s ** 2)


# sha256 of every denoise_step output over the grid below and of
# analytic_epsilon at every schedule alpha_bar, computed with the per-call
# np.sqrt coefficients the executor first shipped with.
COEFFICIENT_GRID_SHA256 = "2421bf7c910bf0799f8ff9893406fbf66f33f457b158d08190fae7c7e1ef70d5"


def coefficient_grid_digest():
    h = hashlib.sha256()

    def add(out):
        h.update(out.dtype.str.encode())
        h.update(out.tobytes())

    m = 5
    rng = np.random.default_rng(17)
    for variant, curve, std, K in itertools.product(
            (DETERMINISTIC, ANCESTRAL), (CURVE_COSINE, CURVE_LINEAR_BETA),
            (0.0, 0.5, 1.0, 1), (1, 2, 40, 200)):
        sch = make_schedule(K, variant, curve)
        world = ToyWorld(np.eye(m), std)
        steps = step_table(sch, world)
        xs = rng.standard_normal((K, m)) * 3.0
        mus = rng.standard_normal((K, m))
        for x_type, mu_type in itertools.product((np.float64, np.float32), repeat=2):
            for k in range(1, K + 1):
                noise = None
                if variant == ANCESTRAL:
                    noise = stream(23, TAG_STEP, 0, k).standard_normal(m)
                add(denoise_step(xs[k - 1].astype(x_type), k, mus[k - 1].astype(mu_type),
                                 steps, noise))
        for t in range(1, K + 1):
            for x_type, mu_type in itertools.product((np.float64, np.float32), repeat=2):
                add(analytic_epsilon(world, xs[t - 1].astype(x_type),
                                     column(sch, "alpha_bar")[t].item(),
                                     mus[t - 1].astype(mu_type)))
    return h.hexdigest()


class TestCoefficientTable:
    def test_outputs_pinned(self):
        assert coefficient_grid_digest() == COEFFICIENT_GRID_SHA256


def per_call_step(x_k, k, mu, schedule, world, noise):
    """denoise_step as it was before the step table: every call converts its
    inputs and derives its scalars as Python floats, in _epsilon's order."""
    t = schedule.K - k + 1
    ab, root_ab, root_one_minus_ab, a, b, sigma = schedule.coefficients[t].tolist()
    x_k = np.asarray(x_k, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    s2 = world.target_std ** 2
    gain = root_ab * s2 / (ab * s2 + 1.0 - ab)
    x0_hat = mu + gain * (x_k - root_ab * mu)
    eps_hat = (x_k - root_ab * x0_hat) / root_one_minus_ab
    if schedule.variant == DETERMINISTIC:
        prev = Coefficients._make(schedule.coefficients[t - 1].tolist())
        x0_hat = (x_k - root_one_minus_ab * eps_hat) / root_ab
        return prev.root_ab * x0_hat + prev.root_one_minus_ab * eps_hat
    mean = a * x_k - b * eps_hat
    if sigma == 0.0:
        return mean
    return mean + sigma * noise


def vectors(m, dtype):
    width = np.dtype(dtype).itemsize * 8
    return hnp.arrays(dtype, m, elements=st.floats(-1e6, 1e6, width=width))


@st.composite
def step_cases(draw):
    K = draw(st.integers(1, 200))
    m = draw(st.integers(1, 6))
    return (draw(st.integers(1, K)),
            make_schedule(K, draw(st.sampled_from([DETERMINISTIC, ANCESTRAL])),
                          draw(st.sampled_from([CURVE_COSINE, CURVE_LINEAR_BETA]))),
            ToyWorld(None, draw(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 1e150])), m),
            draw(vectors(m, draw(st.sampled_from([np.float32, np.float64])))),
            draw(vectors(m, draw(st.sampled_from([np.float32, np.float64])))),
            draw(vectors(m, np.float64)))


class TestStepTable:
    @given(step_cases())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_matches_per_call_scalars(self, case):
        k, schedule, world, x, mu, noise = case
        got = denoise_step(x, k, mu, step_table(schedule, world), noise)
        want = per_call_step(x, k, mu, schedule, world, noise)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()  # bit for bit, signs of zero included

    @pytest.mark.parametrize("k", [0, 9])
    def test_step_outside_schedule(self, k):
        world = ToyWorld(None, 1.0, 2)
        steps = step_table(make_schedule(8, DETERMINISTIC, CURVE_COSINE), world)
        with pytest.raises(UsageError, match=f"step {k} outside 1..8"):
            denoise_step(np.zeros(2), k, np.zeros(2), steps)

    def test_ancestral_step_needs_noise(self):
        steps = step_table(make_schedule(8, ANCESTRAL, CURVE_COSINE), ToyWorld(None, 1.0, 2))
        with pytest.raises(UsageError, match="needs noise"):
            denoise_step(np.zeros(2), 1, np.zeros(2), steps)
        assert steps.rows[8].sigma is None  # the last step adds no noise, so it needs none
        assert np.all(np.isfinite(denoise_step(np.zeros(2), 8, np.zeros(2), steps)))

    def test_alpha_bar_checked_when_built(self):
        sch = make_schedule(8, DETERMINISTIC, CURVE_COSINE)
        table = sch.coefficients.copy()
        table[3, Coefficients._fields.index("alpha_bar")] = 1.0
        with pytest.raises(UsageError, match="alpha_bar"):
            step_table(replace(sch, coefficients=table), ToyWorld(None, 1.0, 2))

    def test_scalars_are_read_only(self):
        steps = step_table(make_schedule(4, ANCESTRAL, CURVE_COSINE), ToyWorld(None, 1.0, 2))
        with pytest.raises(ValueError):
            steps.rows[1].gain[()] = 0.0


def replay_trace(output, tree, world, schedule, seed):
    """Independent oracle: rerun one prompt's own trace with no sharing.

    Starts from the first traced node's initial noise and applies one
    denoising step per traced (node, k), drawing ancestral noise from the
    (seed, node, k) stream, exactly as a lone run along that trace would.
    """
    m = world.data_dimension
    steps = step_table(schedule, world)
    x = stream(seed, TAG_INIT, output.trace[0][0]).standard_normal(m)
    for node, k in output.trace:
        noise = None
        if schedule.variant == ANCESTRAL:
            noise = stream(seed, TAG_STEP, node, k).standard_normal(m)
        x = denoise_step(x, k, world.target_mean(tree.means[node]), steps, noise)
    return x


def toy_setup(clusters=2, per_cluster=3, d=8, jitter=0.15, seed=0, K=12,
              std=0.8, tau=1.0, variant=DETERMINISTIC, map_seed=None):
    """map_seed=None gives the identity world; otherwise a seeded 5 x d map."""
    ps = generate_synthetic(clusters, per_cluster, d, jitter, seed=seed)
    tree = build_tree(ps)
    if map_seed is None:
        world = ToyWorld(np.eye(d), std)
    else:
        world = ToyWorld.create(5, d, std, map_seed=map_seed)
    sch = make_schedule(K, variant, CURVE_COSINE)
    plan = compile_plan(tree, ScheduleParams(K=K, tau=tau))
    return ps, tree, world, sch, plan


class TestExecutePlan:
    def test_tau_zero_bit_identical_to_standard(self):
        for variant, map_seed in itertools.product((DETERMINISTIC, ANCESTRAL), (None, 3)):
            ps, tree, world, sch, _ = toy_setup(tau=0.0, variant=variant, map_seed=map_seed)
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

    @pytest.mark.parametrize("variant", [DETERMINISTIC, ANCESTRAL])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1e9])
    def test_denoiser_runs_once_per_planned_evaluation(self, monkeypatch, variant, tau):
        # as the benchmark's traced check: count every denoise_step call and
        # name its node by mu, which is the node's mean under the identity map
        ps, tree, world, sch, plan = toy_setup(K=15, tau=tau, variant=variant, jitter=0.3)
        node_of = {tree.means[n].tobytes(): n for n in range(len(tree))}
        assert len(node_of) == len(tree)  # every node's mean tells it apart
        calls = []
        real_step = diffusion.denoise_step

        def counted(x_k, k, mu, *rest):
            calls.append((node_of[mu.tobytes()], k))
            return real_step(x_k, k, mu, *rest)

        monkeypatch.setattr(diffusion, "denoise_step", counted)
        res = execute_plan(plan, tree, world, sch, master_seed=5)
        planned = sorted((n, step.k) for step in plan.steps for n in step.active)
        assert sorted(calls) == planned
        assert len(calls) == res.denoiser_calls == plan.total_evaluations

    def test_trace_length_and_finiteness(self):
        ps, tree, world, sch, plan = toy_setup()
        res = execute_plan(plan, tree, world, sch, master_seed=3)
        for pid in ps.ids:
            out = res.outputs[pid]
            assert len(out.trace) == 12
            assert np.all(np.isfinite(out.sample))

    def test_samples_equal_per_prompt_trace_replay(self):
        for variant, map_seed, seed in itertools.product(
                (DETERMINISTIC, ANCESTRAL), (None, 3), (4, -1, 2**63 + 5)):
            ps, tree, world, sch, plan = toy_setup(variant=variant, map_seed=map_seed)
            res = execute_plan(plan, tree, world, sch, master_seed=seed)
            for pid in ps.ids:
                out = res.outputs[pid]
                assert np.array_equal(out.sample, replay_trace(out, tree, world, sch, seed))

    def test_one_stream_per_execution(self, monkeypatch):
        ps, tree, world, sch, plan = toy_setup(clusters=3, variant=ANCESTRAL)
        calls = []

        def counting(*parts):
            calls.append(parts)
            return stream(*parts)

        monkeypatch.setattr(diffusion, "stream", counting)
        execute_plan(plan, tree, world, sch, master_seed=0)
        assert plan.total_evaluations > len(ps)
        assert calls == []  # every row comes from rng.normal_rows

    @pytest.mark.parametrize("variant", [DETERMINISTIC, ANCESTRAL])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1e9])
    @pytest.mark.parametrize("rows", ["distinct", "duplicate"])
    def test_noise_rows_drawn_once_per_use(self, monkeypatch, variant, tau, rows):
        # one initial row per fresh span and, for ancestral steps, one noise
        # row per evaluation: never a row too many or too few
        if rows == "distinct":
            ps, tree, world, sch, plan = toy_setup(K=15, tau=tau, variant=variant)
        else:  # duplicate rows give zero-score nodes, so a leaf may hold no span
            pool = np.random.default_rng(5).standard_normal((3, 4))
            emb = pool[[0, 1, 0, 2, 1, 0, 2, 2, 1]].astype(np.float32)
            tree = build_tree(PromptSet(tuple(f"p{i}" for i in range(9)), (None,) * 9, emb))
            world = ToyWorld(np.eye(4), 0.5)
            sch = make_schedule(15, variant, CURVE_COSINE)
            plan = compile_plan(tree, ScheduleParams(K=15, tau=tau))
        drawn = {TAG_INIT: 0, TAG_STEP: 0}
        calls = []
        real_rows, real_step = diffusion.normal_rows, diffusion.denoise_step

        def counted_rows(m, seed, tag, *parts):
            for row in real_rows(m, seed, tag, *parts):
                drawn[tag] += 1
                yield row

        def counted_step(x_k, k, mu, steps, noise=None):
            calls.append(k)  # each step's row is drawn just before it, never earlier
            assert drawn[TAG_STEP] == (len(calls) if variant == ANCESTRAL else 0)
            return real_step(x_k, k, mu, steps, noise)

        monkeypatch.setattr(diffusion, "normal_rows", counted_rows)
        monkeypatch.setattr(diffusion, "denoise_step", counted_step)
        execute_plan(plan, tree, world, sch, master_seed=3)
        fresh = sum(span.source == FRESH for span in plan.spans.values())
        assert len(calls) == plan.total_evaluations
        assert drawn == {TAG_INIT: fresh,
                         TAG_STEP: plan.total_evaluations if variant == ANCESTRAL else 0}

    def test_target_mean_once_per_active_node(self, monkeypatch):
        ps, tree, world, sch, plan = toy_setup(clusters=3, jitter=0.05, map_seed=3)
        conditions = []
        original = ToyWorld.target_mean

        def counting(self, condition):
            conditions.append(condition)
            return original(self, condition)

        monkeypatch.setattr(ToyWorld, "target_mean", counting)
        execute_plan(plan, tree, world, sch, master_seed=0)
        active = {n for step in plan.steps for n in step.active}
        assert plan.total_evaluations > len(active)
        assert len(conditions) == len(active)
        called = {n for n in range(len(tree))
                  if any(np.shares_memory(c, tree.means[n]) for c in conditions)}
        assert called == active

    def test_repeat_runs_identical(self):
        ps, tree, world, sch, plan = toy_setup(variant=ANCESTRAL)
        a = execute_plan(plan, tree, world, sch, master_seed=9)
        b = execute_plan(plan, tree, world, sch, master_seed=9)
        for pid in ps.ids:
            assert np.array_equal(a.outputs[pid].sample, b.outputs[pid].sample)

    def test_mean_embedding_semantics(self):
        # fully denoising under an internal node lands on A * (node mean)
        ps, tree, world, sch, _ = toy_setup(std=0.0, jitter=0.3)
        internal = tree.root
        x = stream(0, TAG_INIT, internal).standard_normal(world.data_dimension)
        steps = step_table(sch, world)
        for k in range(1, sch.K + 1):
            x = denoise_step(x, k, world.target_mean(tree.means[internal]), steps)
        assert np.allclose(x, world.target_mean(tree.means[internal]), atol=1e-6)

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
        for pid, y in zip(ps.ids, ps.embeddings):
            mu = world.target_mean(y.astype(np.float64))
            assert np.linalg.norm(full.outputs[pid].sample - mu) < 1e-8
            assert np.linalg.norm(trunc.outputs[pid].sample - mu) > 1e-3


class TestWorldJson:
    def test_roundtrip_identity(self):
        text = ('{"data_dimension": 4, "target_std": 0.7, "condition_map": "identity", '
                '"schedule": {"K": 8, "curve": "linear_beta", "variant": "ancestral"}, '
                '"master_seed": 42}')
        w, sch, seed = world_from_json(text, 4)
        assert seed == 42
        assert w.condition_map is None and w.dimension == 4
        assert w.target_std == 0.7
        assert sch == (8, ANCESTRAL, CURVE_LINEAR_BETA)

    def test_roundtrip_random_map(self):
        text = ('{"data_dimension": 3, "target_std": 1.0, "condition_map": {"seed": 9}, '
                '"schedule": {"K": 5, "curve": "cosine", "variant": "deterministic"}, '
                '"master_seed": 0}')
        w, _, _ = world_from_json(text, 6)
        assert np.array_equal(w.condition_map, ToyWorld.create(3, 6, 1.0, map_seed=9).condition_map)

    def test_identity_dim_mismatch(self):
        text = ('{"data_dimension": 4, "target_std": 1.0, "condition_map": "identity", '
                '"schedule": {"K": 5, "curve": "cosine", "variant": "deterministic"}, '
                '"master_seed": 0}')
        with pytest.raises(UsageError):
            world_from_json(text, 7)

    def test_data_dimension_cap(self):
        def doc(m):
            return ('{"data_dimension": %d, "target_std": 1.0, "condition_map": {"seed": 3}, '
                    '"schedule": {"K": 5, "curve": "cosine", "variant": "deterministic"}, '
                    '"master_seed": 0}' % m)

        world, _, _ = world_from_json(doc(MAX_DATA_DIMENSION), 64)
        assert world.condition_map.shape == (MAX_DATA_DIMENSION, 64)
        text = doc(MAX_DATA_DIMENSION + 1)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"data_dimension {MAX_DATA_DIMENSION + 1}"):
                world_from_json(text, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # rejected before the 8 MiB map is made
