"""Deterministic conditional diffusion substrate.

A conditional Gaussian target N(A*y, s^2 I) admits a closed-form optimal
noise predictor, so the whole pipeline runs without a trained network while
keeping every property the planner relies on (coarse-to-fine contraction
toward the conditional mean).

Step indexing: plan steps k = 1..K run from pure noise to clean.  Noise
levels use alpha_bar[t] with t = 0..K, alpha_bar[0] = 1 (clean); step k
maps to t = K - k + 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError
from .planner import FRESH, SharePlan
from .rng import TAG_CONDMAP, TAG_INIT, TAG_STEP, stream
from .tree import EmbeddingTree

ANCESTRAL = "ancestral"
DETERMINISTIC = "deterministic"

CURVE_COSINE = "cosine"
CURVE_LINEAR_BETA = "linear_beta"

_BETA_MAX = 0.999


@dataclass(frozen=True)
class NoiseSchedule:
    K: int
    variant: str
    curve: str
    alpha_bar: np.ndarray = field(repr=False)  # (K+1,), alpha_bar[0] = 1
    beta: np.ndarray = field(repr=False)  # (K+1,), beta[0] unused
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)


def make_schedule(K: int, variant: str = DETERMINISTIC, curve: str = CURVE_COSINE) -> NoiseSchedule:
    """Discrete noise schedule plus ancestral update coefficients.

    The cosine curve follows alpha_bar(u) = cos^2(((u + 0.008)/1.008) * pi/2)
    normalized so alpha_bar[0] = 1; betas are clipped at 0.999 and alpha_bar
    rebuilt by cumulative product so it stays strictly inside (0, 1].
    """
    if K < 1:
        raise UsageError("K must be >= 1")
    if variant not in (ANCESTRAL, DETERMINISTIC):
        raise UsageError(f"unknown variant {variant!r}")
    t = np.arange(K + 1, dtype=np.float64)
    if curve == CURVE_COSINE:
        f = np.cos(((t / K + 0.008) / 1.008) * np.pi / 2.0) ** 2
        raw = f / f[0]
        beta_core = 1.0 - raw[1:] / raw[:-1]
    elif curve == CURVE_LINEAR_BETA:
        # linspace designed for 1000 steps; rescale so total noise injected
        # is comparable at other K.
        beta_core = np.linspace(1e-4, 0.02, K) * (1000.0 / K)
    else:
        raise UsageError(f"unknown curve {curve!r}")
    beta_core = np.clip(beta_core, 1e-8, _BETA_MAX)
    alpha_bar = np.empty(K + 1, dtype=np.float64)
    alpha_bar[0] = 1.0
    alpha_bar[1:] = np.cumprod(1.0 - beta_core)
    beta = np.concatenate([[0.0], beta_core])
    a = np.zeros(K + 1)
    b = np.zeros(K + 1)
    sigma2 = np.zeros(K + 1)
    a[1:] = 1.0 / np.sqrt(1.0 - beta[1:])
    b[1:] = beta[1:] / (np.sqrt(1.0 - beta[1:]) * np.sqrt(1.0 - alpha_bar[1:]))
    sigma2[1:] = beta[1:] * (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:])
    sigma = np.sqrt(sigma2)
    if variant == DETERMINISTIC:
        sigma = np.zeros(K + 1)
    return NoiseSchedule(K=K, variant=variant, curve=curve, alpha_bar=alpha_bar,
                         beta=beta, a=a, b=b, sigma=sigma)


@dataclass(frozen=True)
class ToyWorld:
    """Conditional Gaussian target N(A*condition, target_std^2 I).

    target_std = 0 is the point-mass limit used by exact-convergence checks.
    """

    condition_map: np.ndarray = field(repr=False)  # (m, d)
    target_std: float
    map_seed: int | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.condition_map)):
            raise UsageError("condition map must be finite")
        if self.target_std < 0:
            raise UsageError("target_std must be >= 0")

    @property
    def data_dimension(self) -> int:
        return int(self.condition_map.shape[0])

    @property
    def embedding_dimension(self) -> int:
        return int(self.condition_map.shape[1])

    def target_mean(self, condition: np.ndarray) -> np.ndarray:
        return self.condition_map @ np.asarray(condition, dtype=np.float64)

    @classmethod
    def create(cls, data_dimension: int, embedding_dimension: int,
               target_std: float, map_seed: int = 0) -> "ToyWorld":
        """Identity map when dimensions agree, else a seeded random matrix
        with unit-norm rows."""
        if data_dimension == embedding_dimension:
            A = np.eye(data_dimension)
            return cls(A, target_std, None)
        A = stream(map_seed, TAG_CONDMAP).standard_normal((data_dimension, embedding_dimension))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        return cls(A, target_std, map_seed)


def noise_forward(x0: np.ndarray, alpha_bar_k: float, epsilon: np.ndarray) -> np.ndarray:
    """sqrt(ab)*x0 + sqrt(1-ab)*eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    epsilon = np.asarray(epsilon, dtype=np.float64)
    if x0.shape != epsilon.shape:
        raise UsageError("x0 and epsilon dimensions differ")
    return np.sqrt(alpha_bar_k) * x0 + np.sqrt(1.0 - alpha_bar_k) * epsilon


def analytic_epsilon(world: ToyWorld, x_k: np.ndarray, alpha_bar_k: float,
                     condition: np.ndarray) -> np.ndarray:
    """Optimal noise prediction E[eps | x_k] for the Gaussian target.

    Posterior mean of the clean sample is
        x0_hat = mu + (sqrt(ab) s^2 / (ab s^2 + 1 - ab)) * (x_k - sqrt(ab) mu)
    and eps_hat = (x_k - sqrt(ab) x0_hat) / sqrt(1 - ab).
    """
    if not 0.0 < alpha_bar_k < 1.0:
        raise UsageError("alpha_bar must be in (0, 1)")
    x_k = np.asarray(x_k, dtype=np.float64)
    mu = world.target_mean(condition)
    s2 = world.target_std ** 2
    root_ab = np.sqrt(alpha_bar_k)
    gain = root_ab * s2 / (alpha_bar_k * s2 + 1.0 - alpha_bar_k)
    x0_hat = mu + gain * (x_k - root_ab * mu)
    return (x_k - root_ab * x0_hat) / np.sqrt(1.0 - alpha_bar_k)


def denoise_step(x_k: np.ndarray, k: int, condition: np.ndarray,
                 schedule: NoiseSchedule, world: ToyWorld,
                 noise_source: np.random.Generator | None = None) -> np.ndarray:
    """One reverse update at plan step k (1..K, noise-to-clean order)."""
    if not 1 <= k <= schedule.K:
        raise UsageError(f"step {k} outside 1..{schedule.K}")
    t = schedule.K - k + 1
    ab = schedule.alpha_bar[t]
    ab_prev = schedule.alpha_bar[t - 1]
    eps_hat = analytic_epsilon(world, x_k, ab, condition)
    if schedule.variant == DETERMINISTIC:
        x0_hat = (np.asarray(x_k, dtype=np.float64) - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)
        return np.sqrt(ab_prev) * x0_hat + np.sqrt(1.0 - ab_prev) * eps_hat
    mean = schedule.a[t] * np.asarray(x_k, dtype=np.float64) - schedule.b[t] * eps_hat
    if schedule.sigma[t] == 0.0:
        return mean
    if noise_source is None:
        raise UsageError("ancestral step needs a noise source")
    return mean + schedule.sigma[t] * noise_source.standard_normal(x_k.shape[0])


@dataclass(frozen=True)
class GenerationOutput:
    prompt_id: str
    sample: np.ndarray = field(repr=False)
    trace: tuple[tuple[int, int], ...]  # (node_id, k) per step
    seed: int


@dataclass(frozen=True)
class ExecutionResult:
    outputs: dict[str, GenerationOutput]
    denoiser_calls: int


def _validate(plan: SharePlan, tree: EmbeddingTree, world: ToyWorld,
              schedule: NoiseSchedule) -> None:
    if plan.K != schedule.K:
        raise UsageError(f"plan K={plan.K} does not match schedule K={schedule.K}")
    if set(plan.assignment) - set(tree.leaf_of):
        raise UsageError("plan references prompts missing from the tree")
    n_nodes = len(tree.nodes)
    for step in plan.steps:
        for node in step.active:
            if not 0 <= node < n_nodes:
                raise UsageError(f"plan references unknown node {node}")
    if tree.nodes[tree.root].embedding.shape[0] != world.embedding_dimension:
        raise UsageError("tree embedding dimension does not match world condition map")


def execute_plan(plan: SharePlan, tree: EmbeddingTree, world: ToyWorld,
                 schedule: NoiseSchedule, master_seed: int) -> ExecutionResult:
    """Run the shared-step plan; each (node, step) is evaluated exactly once.

    Fresh states draw initial noise from the stream keyed (seed, node); step
    noise comes from (seed, node, k).  Keys depend only on canonical node
    ids, so output does not depend on the order nodes are evaluated in.
    """
    _validate(plan, tree, world, schedule)
    m = world.data_dimension
    calls = 0
    prev: dict[int, np.ndarray] = {}

    def advance(node: int, k: int, src: int | str) -> np.ndarray:
        if src == FRESH:
            x_in = stream(master_seed, TAG_INIT, node).standard_normal(m)
        else:
            x_in = prev[src]
        noise = None
        if schedule.variant == ANCESTRAL:
            noise = stream(master_seed, TAG_STEP, node, k)
        return denoise_step(x_in, k, tree.nodes[node].embedding, schedule, world, noise)

    for step in plan.steps:
        # Only step k-1 states can be inherited, so the frontier is all we keep.
        prev = {n: advance(n, step.k, step.inherit[n]) for n in sorted(step.active)}
        calls += len(prev)
    outputs = {}
    for pid, nodes in plan.assignment.items():
        outputs[pid] = GenerationOutput(
            prompt_id=pid,
            sample=prev[nodes[-1]],
            trace=tuple((node, k + 1) for k, node in enumerate(nodes)),
            seed=master_seed,
        )
    return ExecutionResult(outputs=outputs, denoiser_calls=calls)


def run_standard(tree: EmbeddingTree, world: ToyWorld, schedule: NoiseSchedule,
                 master_seed: int, max_steps: int | None = None) -> ExecutionResult:
    """Independent per-prompt diffusion, keyed by each prompt's leaf node.

    With max_steps < K this is truncated standard diffusion: only the first
    max_steps updates of the K-step schedule run and the partially denoised
    state is returned as-is.
    """
    m = world.data_dimension
    k_stop = schedule.K if max_steps is None else min(max_steps, schedule.K)
    outputs = {}
    calls = 0
    for pid in sorted(tree.leaf_of):
        leaf = tree.leaf_of[pid]
        x = stream(master_seed, TAG_INIT, leaf).standard_normal(m)
        trace = []
        for k in range(1, k_stop + 1):
            noise = None
            if schedule.variant == ANCESTRAL:
                noise = stream(master_seed, TAG_STEP, leaf, k)
            x = denoise_step(x, k, tree.nodes[leaf].embedding, schedule, world, noise)
            trace.append((leaf, k))
            calls += 1
        outputs[pid] = GenerationOutput(pid, x, tuple(trace), master_seed)
    return ExecutionResult(outputs=outputs, denoiser_calls=calls)


def world_to_json(world: ToyWorld, schedule: NoiseSchedule, master_seed: int) -> str:
    cmap: object
    if world.map_seed is None and world.data_dimension == world.embedding_dimension:
        cmap = "identity"
    else:
        cmap = {"seed": world.map_seed}
    return json.dumps(
        {
            "data_dimension": world.data_dimension,
            "target_std": world.target_std,
            "condition_map": cmap,
            "schedule": {"K": schedule.K, "curve": schedule.curve, "variant": schedule.variant},
            "master_seed": master_seed,
        },
        indent=1,
    )


def world_from_json(text: str, embedding_dimension: int) -> tuple[ToyWorld, NoiseSchedule, int]:
    try:
        doc = json.loads(text)
        m = int(doc["data_dimension"])
        std = float(doc["target_std"])
        cmap = doc["condition_map"]
        sched = doc["schedule"]
        seed = int(doc["master_seed"])
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise DataError(f"malformed world JSON: {e}") from e
    if cmap == "identity":
        if m != embedding_dimension:
            raise UsageError(
                f"identity condition map needs data_dimension == d ({m} != {embedding_dimension})"
            )
        world = ToyWorld.create(m, embedding_dimension, std)
    else:
        world = ToyWorld.create(m, embedding_dimension, std, map_seed=int(cmap["seed"]))
    schedule = make_schedule(int(sched["K"]), sched["variant"], sched["curve"])
    return world, schedule, seed
