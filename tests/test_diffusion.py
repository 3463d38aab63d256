import hashlib
import itertools
import tracemalloc
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import seeded_world
from oracles import (analytic_epsilon, mc_epsilon_regression, per_call_step, replay_trace,
                     textbook_step)
from shdiff import diffusion
from shdiff.diffusion import (
    ANCESTRAL,
    DETERMINISTIC,
    CURVE_COSINE,
    CURVE_LINEAR_BETA,
    MAX_DATA_DIMENSION,
    MAX_MAP_ENTRIES,
    GenerationOutput,
    ToyWorld,
    denoise_step,
    execute_plan,
    make_schedule,
    run_standard,
    step_table,
    world_from_json,
)
from shdiff.embeddings import PromptSet, generate_synthetic
from shdiff.errors import DataError, UsageError
from shdiff.planner import FRESH, MAX_K, ScheduleParams, Span, compile_plan
from shdiff.rng import TAG_CONDMAP, TAG_INIT, TAG_STEP, stream
from shdiff.tree import build_tree


class FixedNoise:
    """A stand-in generator for ``diffusion._run_span`` whose standard
    normals are the given values, in order."""

    def __init__(self, values):
        self.values = np.array(values, dtype=np.float64).ravel()  # a copy: draws are written to

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        out, self.values = self.values[:n].reshape(shape), self.values[n:]
        return out


def one_step(x, k, mu, steps, noise=None):
    """x after step k alone toward mu, with the row ``noise`` for a noisy
    table."""
    return diffusion._run_span(x, k, k + 1, mu, steps,
                               None if noise is None else FixedNoise(noise))


def noise_forward(x0, alpha_bar_k, epsilon):
    """Forward noising sqrt(ab)*x0 + sqrt(1-ab)*eps, which only these tests use."""
    return np.sqrt(alpha_bar_k) * x0 + np.sqrt(1.0 - alpha_bar_k) * epsilon


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

    @pytest.mark.parametrize("variant, curve, what", [
        ("euler", CURVE_COSINE, "unknown variant 'euler'"),
        (DETERMINISTIC, "sigmoid", "unknown curve 'sigmoid'"),
    ], ids=["variant", "curve"])
    def test_unknown_variant_or_curve(self, variant, curve, what):
        with pytest.raises(UsageError, match=what):
            make_schedule(5, variant, curve)

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
                seeded_world(d, d + 3, 1.0, d).condition_map]
        if d > 1:
            maps += [np.eye(d)[::-1].copy(), np.eye(d) + np.eye(d, k=1)]
        for A in maps:
            world = ToyWorld(A, 1.0)
            assert world.condition_map is A
            for y in conditions(A.shape[1], seed=d):
                assert world.target_mean(y).tobytes() == (A @ y).tobytes()

    def test_create_makes_only_the_identity(self):
        with pytest.raises(UsageError, match=r"data_dimension == d \(3 != 4\)"):
            ToyWorld.create(3, 4, 1.0)

    def test_identity_rejects_wrong_length(self):
        world = ToyWorld.create(4, 4, 1.0)
        for y in (np.zeros(5), np.zeros(3), np.zeros((4, 1))):
            with pytest.raises(ValueError):
                world.target_mean(y)

    def test_map_is_read_only(self):
        world = seeded_world(3, 4, 1.0, 0)
        with pytest.raises(ValueError):
            world.condition_map[0, 1] = 1.0

    @pytest.mark.parametrize("args", [(None, 1.0), (np.eye(2), 1.0, 2), (None, 1.0, 0),
                                      (np.array([[1.0, np.nan]]), 1.0)],
                             ids=["neither", "both", "dimension 0", "non-finite map"])
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
        w = seeded_world(2, 3, 0.7, 2)
        y = np.array([0.3, -1.0, 0.5])
        xq = np.sqrt(ab) * w.target_mean(y) + np.array([0.4, -0.2])
        ana = analytic_epsilon(w, xq, ab, w.target_mean(y))
        pred, se = mc_epsilon_regression(w, xq, ab, y)
        assert np.all(np.abs(ana - pred) < 3 * se)

    def test_alpha_bar_domain(self):
        w = ToyWorld(np.eye(2), 1.0)
        for ab in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                analytic_epsilon(w, np.zeros(2), ab, w.target_mean(np.zeros(2)))


class TestDenoiseStep:
    def test_deterministic_converges_to_point_mass(self):
        w = ToyWorld(np.eye(2), 0.0)
        sch = make_schedule(10, DETERMINISTIC, CURVE_COSINE)
        y = np.array([2.0, 1.0])
        x = np.array([8.0, -5.0])
        mu = w.target_mean(y)
        start = np.linalg.norm(x - mu)
        x = diffusion._run_span(x, 1, 11, mu, step_table(sch, w), None)
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
        steps = step_table(zero, w)
        assert np.allclose(diffusion._run_span(x, 3, 4, w.target_mean(y), steps, stream(0, 9)),
                           expected)

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
            finals[i] = diffusion._run_span(stream(123, TAG_INIT, i).standard_normal(m), 1, 101,
                                            mu, steps, None)
        mean_err = np.abs(finals.mean(axis=0) - mu)
        assert np.all(mean_err < 3 * s / np.sqrt(1000))
        var = finals.var(axis=0)
        assert np.all(np.abs(var - s ** 2) < 0.15 * s ** 2)


# sha256 of every step output over the grid below, per sampler, and of
# analytic_epsilon at every schedule alpha_bar.  The textbook step the
# executor first shipped with gave
# 2421bf7c910bf0799f8ff9893406fbf66f33f457b158d08190fae7c7e1ef70d5 for the
# whole grid, and the affine step of (x_scale, mu_scale, sigma) rows gave
# c1cb2182972fb74cea981920d62b1507a40ecdef240862ff55d6befe2a671818, both
# samplers together.  The deterministic digest was computed on that affine
# step, x_scale x + mu_scale mu; a step x_scale x + drive keeps its bits.
DETERMINISTIC_GRID_SHA256 = "7356fd8a85f267596e32b877f25ba37b9a75cf25bdcb6d330017ba4e69bb3686"
# The ancestral drive mu_scale mu + sigma z joins the noise to mu's term
# before x's; (x_scale x + mu_scale mu) + sigma z gave
# 3a348cc5021edf77333096268965bcd44c3d319f7a8ba135dd17c2254f83cbac.
ANCESTRAL_GRID_SHA256 = "6f842392e35285093ba78de2001614a33c797e5ea6b22696baccfa5d9810b0fe"
# sha256 of the analytic_epsilon outputs alone, computed before the step
# became affine, which leaves them unchanged.
ANALYTIC_EPSILON_GRID_SHA256 = "50233d3ad03292973ffbcf674e556c6200e90b01158d99a2c39219a9b3f24727"


def coefficient_grid_digests():
    """The grid's deterministic and ancestral step digests and that of its
    analytic_epsilon outputs."""
    hashes = {DETERMINISTIC: hashlib.sha256(), ANCESTRAL: hashlib.sha256()}
    h_eps = hashlib.sha256()

    def add(out, h):
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
                add(one_step(xs[k - 1].astype(x_type), k, mus[k - 1].astype(mu_type), steps,
                             noise), hashes[variant])
        for t in range(1, K + 1):
            for x_type, mu_type in itertools.product((np.float64, np.float32), repeat=2):
                add(analytic_epsilon(world, xs[t - 1].astype(x_type),
                                     column(sch, "alpha_bar")[t].item(),
                                     mus[t - 1].astype(mu_type)), h_eps)
    return hashes[DETERMINISTIC].hexdigest(), hashes[ANCESTRAL].hexdigest(), h_eps.hexdigest()


class TestCoefficientTable:
    def test_outputs_pinned(self):
        assert coefficient_grid_digests() == (DETERMINISTIC_GRID_SHA256, ANCESTRAL_GRID_SHA256,
                                              ANALYTIC_EPSILON_GRID_SHA256)


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
        steps = step_table(schedule, world)
        got = one_step(x, k, mu, steps, noise)
        want = per_call_step(x, k, mu, schedule, world, noise)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()  # bit for bit, signs of zero included

    @given(step_cases())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_affine_step_matches_textbook_step(self, case):
        # the affine rule rounds differently from the textbook's chain of
        # ops, by a few ulps of the largest vector involved; below the normal
        # range an ulp no longer scales, so the scale is at least 2**-1022
        k, schedule, world, x, mu, noise = case
        steps = step_table(schedule, world)
        got = one_step(x, k, mu, steps, noise)
        want = textbook_step(x, k, mu, schedule, world, noise)
        scale = max(float(np.max(np.abs(v))) for v in (x, mu, want, np.finfo(np.float64).tiny))
        assert np.max(np.abs(got - want)) <= 2e-14 * scale

    @pytest.mark.parametrize("variant", [DETERMINISTIC, ANCESTRAL])
    def test_longest_run_stays_on_the_textbook_run(self, variant):
        # K = MAX_K: the affine rule's per-step rounding drifts from the
        # textbook run by about 1e-12 relative over the whole run
        schedule = make_schedule(MAX_K, variant, CURVE_COSINE)
        world = ToyWorld(None, 1.0, 4)
        steps = step_table(schedule, world)
        assert steps.table.shape == (MAX_K, 3) and len(steps.x_scale) == MAX_K + 1
        rng = np.random.default_rng(8)
        x = want = rng.standard_normal(4)
        mu = rng.standard_normal(4)
        noise = rng.standard_normal((MAX_K + 1, 4))
        # blocks of 2**14 rows
        x = diffusion._run_span(x, 1, MAX_K + 1, mu, steps, FixedNoise(noise[1:]))
        for k in range(1, MAX_K + 1):
            want = textbook_step(want, k, mu, schedule, world, noise[k])
        assert np.max(np.abs(x - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [0, 9])
    def test_step_outside_schedule(self, k):
        world = ToyWorld(None, 1.0, 2)
        steps = step_table(make_schedule(8, DETERMINISTIC, CURVE_COSINE), world)
        with pytest.raises(UsageError, match=f"step {k} outside 1..8"):
            denoise_step(np.zeros(2), k, np.zeros(2), steps)

    def test_ancestral_step_needs_noise(self):
        # an ancestral table draws one noise row per step, the sigma = 0
        # last step included; a deterministic table draws nothing from a
        # generator it is given
        steps = step_table(make_schedule(8, ANCESTRAL, CURVE_COSINE), ToyWorld(None, 1.0, 2))
        noise = FixedNoise(np.ones(16))
        diffusion._run_span(np.zeros(2), 1, 9, np.ones(2), steps, noise)
        assert noise.values.size == 0
        det = step_table(make_schedule(8, DETERMINISTIC, CURVE_COSINE), ToyWorld(None, 1.0, 2))
        noise = FixedNoise([])
        assert diffusion._run_span(np.zeros(2), 1, 9, np.ones(2), det, noise).shape == (2,)

    def test_alpha_bar_checked_when_built(self):
        sch = make_schedule(8, DETERMINISTIC, CURVE_COSINE)
        table = sch.coefficients.copy()
        table[3, Coefficients._fields.index("alpha_bar")] = 1.0
        with pytest.raises(UsageError, match="alpha_bar"):
            step_table(replace(sch, coefficients=table), ToyWorld(None, 1.0, 2))

    def test_scalars_are_read_only(self):
        steps = step_table(make_schedule(4, ANCESTRAL, CURVE_COSINE), ToyWorld(None, 1.0, 2))
        with pytest.raises(ValueError):
            steps.table[1, 1] = 0.0
        with pytest.raises(ValueError):
            steps.x_scale[2][()] = 0.0
        assert steps.x_scale[0] is None
        for k, scalar in enumerate(steps.x_scale[1:], 1):
            assert scalar.shape == () and not scalar.flags.writeable
            assert np.shares_memory(scalar, steps.table) and scalar == steps.table[k - 1, 0]


def toy_setup(clusters=2, per_cluster=3, d=8, jitter=0.15, seed=0, K=12,
              std=0.8, tau=1.0, variant=DETERMINISTIC, map_seed=None):
    """map_seed=None gives the identity world; otherwise a seeded 5 x d map."""
    ps = generate_synthetic(clusters, per_cluster, d, jitter, seed=seed)
    tree = build_tree(ps)
    if map_seed is None:
        world = ToyWorld(np.eye(d), std)
    else:
        world = seeded_world(5, d, std, map_seed)
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

    @pytest.mark.parametrize("variant", [DETERMINISTIC, ANCESTRAL])
    def test_tau_zero_oracle_runs_no_span_code(self, monkeypatch, variant):
        # run_standard steps on its own: with the executor's span loop
        # broken it still gives the samples the executor gave
        ps, tree, world, sch, plan = toy_setup(tau=0.0, variant=variant, map_seed=3)
        hier = execute_plan(plan, tree, world, sch, master_seed=5)

        def broken(*args):
            raise AssertionError("run_standard called the span loop")

        monkeypatch.setattr(diffusion, "_run_span", broken)
        with pytest.raises(AssertionError, match="span loop"):
            execute_plan(plan, tree, world, sch, master_seed=5)
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
        # name its node by the last target mean taken, which a span takes
        # once, before its steps
        ps, tree, world, sch, plan = toy_setup(K=15, tau=tau, variant=variant, jitter=0.3)
        node_of = {tree.means[n].tobytes(): n for n in range(len(tree))}
        assert len(node_of) == len(tree)  # every node's mean tells it apart
        calls, node = [], []
        real_step, real_mean = diffusion.denoise_step, ToyWorld.target_mean

        def counted(x_k, k, *rest):
            calls.append((node[-1], k))
            return real_step(x_k, k, *rest)

        def target_mean(self, condition):
            node.append(node_of[condition.tobytes()])
            return real_mean(self, condition)

        monkeypatch.setattr(diffusion, "denoise_step", counted)
        monkeypatch.setattr(ToyWorld, "target_mean", target_mean)
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
        assert calls == []  # rows come from rng.normal_rows and rng.keyed_generators

    @pytest.mark.parametrize("variant", [DETERMINISTIC, ANCESTRAL])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1e9])
    @pytest.mark.parametrize("rows", ["distinct", "duplicate"])
    def test_noise_rows_drawn_once_per_use(self, monkeypatch, variant, tau, rows):
        # one initial row per fresh span and, for ancestral steps, one stream
        # per span, keyed (seed, node, start) just before the span's steps
        # and read for exactly one row per step: never a row too many or too
        # few, and no step noise at all in a deterministic run
        if rows == "distinct":
            ps, tree, world, sch, plan = toy_setup(K=15, tau=tau, variant=variant)
        else:  # duplicate rows give zero-score nodes, so a leaf may hold no span
            pool = np.random.default_rng(5).standard_normal((3, 4))
            emb = pool[[0, 1, 0, 2, 1, 0, 2, 2, 1]].astype(np.float32)
            tree = build_tree(PromptSet(tuple(f"p{i}" for i in range(9)), (None,) * 9, emb))
            world = ToyWorld(np.eye(4), 0.5)
            sch = make_schedule(15, variant, CURVE_COSINE)
            plan = compile_plan(tree, ScheduleParams(K=15, tau=tau))
        init_rows, keys, drawn, calls = [], [], [], []
        real_rows, real_keyed = diffusion.normal_rows, diffusion.keyed_generators
        real_step = diffusion.denoise_step

        def counted_rows(m, seed, tag, *parts):
            assert tag == TAG_INIT
            for row in real_rows(m, seed, tag, *parts):
                init_rows.append(row)
                yield row

        class Counted:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, shape):
                drawn.append(shape[0])  # rows of the span just keyed
                return self.gen.standard_normal(shape)

        def counted_keyed(seed, tag, nodes, starts):
            assert (seed, tag) == (3, TAG_STEP)
            for key, gen in zip(zip(nodes, starts), real_keyed(seed, tag, nodes, starts)):
                keys.append(key)
                assert sum(drawn) == len(calls)  # the last span's rows are all used
                yield Counted(gen)

        def counted_step(x_k, k, drive, steps):
            calls.append(k)
            assert sum(drawn) >= len(calls) if variant == ANCESTRAL else drawn == []
            return real_step(x_k, k, drive, steps)

        monkeypatch.setattr(diffusion, "normal_rows", counted_rows)
        monkeypatch.setattr(diffusion, "keyed_generators", counted_keyed)
        monkeypatch.setattr(diffusion, "denoise_step", counted_step)
        execute_plan(plan, tree, world, sch, master_seed=3)
        fresh = sum(span.source == FRESH for span in plan.spans.values())
        assert len(calls) == plan.total_evaluations
        assert len(init_rows) == fresh
        if variant == ANCESTRAL:
            assert keys == [(node, span.start) for node, span in plan.spans.items()]
            assert sum(drawn) == plan.total_evaluations
        else:
            assert keys == [] and drawn == []

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

    @pytest.mark.parametrize("variant", [DETERMINISTIC, ANCESTRAL])
    def test_drive_blocks_do_not_change_samples(self, monkeypatch, variant):
        # blocks of 1 row, 3 rows and the default give the same bits, in the
        # executor (spans of 1 to 6 steps) and in run_standard (15 steps)
        ps, tree, world, sch, plan = toy_setup(K=15, jitter=0.3, variant=variant)
        assert {s.stop - s.start for s in plan.spans.values()} == set(range(1, 7))
        assert 15 * world.data_dimension <= diffusion._BLOCK_VALUES
        samples = []
        for rows in (1, 3, None):
            if rows is not None:
                monkeypatch.setattr(diffusion, "_BLOCK_VALUES", rows * world.data_dimension)
            runs = (execute_plan(plan, tree, world, sch, master_seed=4),
                    run_standard(tree, world, sch, master_seed=4))
            samples.append([run.outputs[pid].sample.tobytes() for run in runs for pid in ps.ids])
        assert samples[0] == samples[1] == samples[2]

    def test_long_span_memory_bounded(self):
        # two prompts at tau 0 are two 20,000-step spans of 512-vectors: the
        # drives and noise are made a block at a time, never a K-long array
        # (2 x 20,000 x 512 float64s are 78 MiB)
        ps = generate_synthetic(1, 2, 512, 0.1, seed=0)
        tree = build_tree(ps)
        world = ToyWorld.create(512, 512, 1.0)
        sch = make_schedule(20_000, ANCESTRAL, CURVE_COSINE)
        plan = compile_plan(tree, ScheduleParams(K=20_000, tau=0.0))
        tracemalloc.start()
        try:
            res = execute_plan(plan, tree, world, sch, master_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.denoiser_calls == 40_000
        assert peak < 16 * 2**20

    def test_mean_embedding_semantics(self):
        # fully denoising under an internal node lands on A * (node mean)
        ps, tree, world, sch, _ = toy_setup(std=0.0, jitter=0.3)
        internal = tree.root
        x = stream(0, TAG_INIT, internal).standard_normal(world.data_dimension)
        x = diffusion._run_span(x, 1, sch.K + 1, world.target_mean(tree.means[internal]),
                                step_table(sch, world), None)
        assert np.allclose(x, world.target_mean(tree.means[internal]), atol=1e-6)

    def test_plan_schedule_mismatch(self):
        ps, tree, world, sch, plan = toy_setup(K=12)
        other = make_schedule(10, DETERMINISTIC, CURVE_COSINE)
        with pytest.raises(UsageError):
            execute_plan(plan, tree, world, other, master_seed=0)

    @pytest.mark.parametrize("edit, what", [
        (lambda plan: {"paths": {**plan.paths, "zz": plan.paths[next(iter(plan.paths))]}},
         "plan references prompts missing from the tree"),
        (lambda plan: {"spans": {99: Span(1, 2, FRESH), **plan.spans}},
         "plan references unknown node 99"),
    ], ids=["prompt", "span node"])
    def test_plan_not_of_this_tree(self, edit, what):
        ps, tree, world, sch, plan = toy_setup()
        with pytest.raises(UsageError, match=what):
            execute_plan(replace(plan, **edit(plan)), tree, world, sch, master_seed=0)

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


class MapDrawn(Exception):
    """Raised in place of _seeded_map, so no map is drawn."""


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
        A = stream(9, TAG_CONDMAP).standard_normal((3, 6))
        assert np.array_equal(w.condition_map, A / np.linalg.norm(A, axis=1, keepdims=True))

    def test_identity_dim_mismatch(self):
        text = ('{"data_dimension": 4, "target_std": 1.0, "condition_map": "identity", '
                '"schedule": {"K": 5, "curve": "cosine", "variant": "deterministic"}, '
                '"master_seed": 0}')
        with pytest.raises(UsageError):
            world_from_json(text, 7)

    def test_square_seeded_map(self):
        text = ('{"data_dimension": 4, "target_std": 1.0, "condition_map": {"seed": 7}, '
                '"schedule": {"K": 5, "curve": "cosine", "variant": "deterministic"}, '
                '"master_seed": 0}')
        w, _, _ = world_from_json(text, 4)
        A = stream(7, TAG_CONDMAP).standard_normal((4, 4))
        assert np.array_equal(w.condition_map, A / np.linalg.norm(A, axis=1, keepdims=True))
        assert ToyWorld.create(4, 4, 1.0).condition_map is None

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

    @pytest.mark.parametrize("m, d", [(2**14, 2**10), (673, 24_929)],  # 2**24 + 1 = 673 x 24,929
                             ids=["at-cap", "above"])
    def test_seeded_map_entry_cap(self, monkeypatch, m, d):
        def seeded_map(*args):
            raise MapDrawn(args)

        monkeypatch.setattr(diffusion, "_seeded_map", seeded_map)
        text = ('{"data_dimension": %d, "target_std": 1.0, "condition_map": {"seed": 3}, '
                '"schedule": {"K": 5, "curve": "cosine", "variant": "deterministic"}, '
                '"master_seed": 0}' % m)
        assert m * d in (MAX_MAP_ENTRIES, MAX_MAP_ENTRIES + 1)
        if m * d == MAX_MAP_ENTRIES:
            with pytest.raises(MapDrawn):
                world_from_json(text, d)
        else:
            with pytest.raises(DataError, match=f"is {MAX_MAP_ENTRIES + 1} values, above"):
                world_from_json(text, d)
