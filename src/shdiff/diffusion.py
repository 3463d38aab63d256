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
import math
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from typing import NamedTuple

import numpy as np

from .errors import DataError, UsageError
from .planner import FRESH, MAX_K, SharePlan
from .rng import TAG_CONDMAP, TAG_INIT, TAG_STEP, normal_rows, stream
from .tree import EmbeddingTree

ANCESTRAL = "ancestral"
DETERMINISTIC = "deterministic"

CURVE_COSINE = "cosine"
CURVE_LINEAR_BETA = "linear_beta"

_BETA_MAX = 0.999


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class NoiseSchedule:
    K: int
    variant: str
    # Row t = 0..K holds level t's alpha_bar, sqrt(alpha_bar),
    # sqrt(1 - alpha_bar), a, b and sigma; read-only float64, shape (K+1, 6).
    coefficients: np.ndarray = field(repr=False)


def make_schedule(K: int, variant: str = DETERMINISTIC, curve: str = CURVE_COSINE) -> NoiseSchedule:
    """Discrete noise schedule plus ancestral update coefficients.

    The cosine curve follows alpha_bar(u) = cos^2(((u + 0.008)/1.008) * pi/2)
    normalized so alpha_bar[0] = 1; betas are clipped at 0.999 and alpha_bar
    rebuilt by cumulative product so it stays strictly inside (0, 1].  The
    roots are taken column-wise; sqrt is correctly rounded, so they have the
    bits of per-step np.sqrt calls.
    """
    if not 1 <= K <= MAX_K:
        raise UsageError(f"K must be in 1..{MAX_K}")
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
    table = np.stack([alpha_bar, np.sqrt(alpha_bar), np.sqrt(1.0 - alpha_bar), a, b, sigma],
                     axis=1)
    table.flags.writeable = False
    return NoiseSchedule(K, variant, table)


def _valid_std(std: float) -> bool:
    """True if std is >= 0 and its square, which every step uses, is finite."""
    std = float(std)
    return std >= 0 and math.isfinite(std * std)


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class ToyWorld:
    """Conditional Gaussian target N(A*condition, target_std^2 I).

    ``condition_map`` None is the identity on vectors of length
    ``dimension``, which holds no d x d array.  target_std = 0 is the
    point-mass limit used by exact-convergence checks.
    """

    condition_map: np.ndarray | None = field(repr=False)  # (m, d), made read-only
    target_std: float
    dimension: int | None = None  # of the identity map only

    def __post_init__(self):
        A = self.condition_map
        if (A is None) == (self.dimension is None):
            raise UsageError("a world needs either a condition map or an identity dimension")
        if A is None and self.dimension < 1:
            raise UsageError("identity dimension must be >= 1")
        if A is not None:
            if not np.all(np.isfinite(A)):
                raise UsageError("condition map must be finite")
            A.flags.writeable = False
        if not _valid_std(self.target_std):
            raise UsageError("target_std must be >= 0 with a finite square")

    @property
    def data_dimension(self) -> int:
        A = self.condition_map
        return self.dimension if A is None else int(A.shape[0])

    @property
    def embedding_dimension(self) -> int:
        A = self.condition_map
        return self.dimension if A is None else int(A.shape[1])

    def target_mean(self, condition: np.ndarray) -> np.ndarray:
        """A @ condition.  The identity is applied as condition + 0.0, which
        has the bits of ``np.eye(d) @ condition`` for finite input (the
        mat-vec's sum starts at +0.0, so -0.0 becomes +0.0)."""
        y = np.asarray(condition, dtype=np.float64)
        if self.condition_map is not None:
            return self.condition_map @ y
        if y.shape != (self.dimension,):
            raise ValueError(f"condition of shape {y.shape} for the identity on "
                             f"{self.dimension}-vectors")
        return y + 0.0

    @classmethod
    def create(cls, data_dimension: int, embedding_dimension: int,
               target_std: float, map_seed: int = 0) -> "ToyWorld":
        """Identity map when dimensions agree, else the seeded map
        ``_seeded_map``."""
        if data_dimension == embedding_dimension:
            return cls(None, target_std, data_dimension)
        return cls(_seeded_map(data_dimension, embedding_dimension, map_seed), target_std)


def _seeded_map(data_dimension: int, embedding_dimension: int, seed: int) -> np.ndarray:
    """A (data, embedding) random matrix with unit-norm rows, drawn from the
    map stream of ``seed``."""
    A = stream(seed, TAG_CONDMAP).standard_normal((data_dimension, embedding_dimension))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    return A


class Step(NamedTuple):
    """The scalars of one plan step, each a read-only 0-d float64 array
    (a view of ``step_table``'s array).

    A 0-d float64 operand gives the bits of the Python float it holds, and
    numpy 2 runs an op on it faster than on a Python float, which takes the
    weak-scalar path: an ancestral step on a 64-vector took 6.3 us against
    8.6 us with Python floats (numpy 2.4.6, best of 7 on a shared core).
    """

    root_ab: np.ndarray  # of level t = K - k + 1
    root_one_minus_ab: np.ndarray
    gain: np.ndarray  # of level t under the world's target_std
    a: np.ndarray
    b: np.ndarray
    sigma: np.ndarray | None  # None when the step adds no noise
    prev_root_ab: np.ndarray  # of level t - 1, for the deterministic update
    prev_root_one_minus_ab: np.ndarray


@dataclass(frozen=True, eq=False, slots=True)  # compared and hashed by identity
class StepTable:
    """Every step's scalars for one (schedule, world); ``rows[k]`` is plan
    step k = 1..K and ``rows[0]`` is None."""

    K: int
    deterministic: bool
    rows: tuple[Step | None, ...] = field(repr=False)


def step_table(schedule: NoiseSchedule, world: ToyWorld) -> StepTable:
    """Resolve every step's scalars once, as 0-d views of one read-only
    (K, 8) float64 array whose row k - 1 holds plan step k's.  Each column
    is computed from the schedule's columns with the expressions a per-step
    computation would use, and a float64 array op rounds as the Python
    float op does, so a step reads the same bits."""
    levels = schedule.coefficients[::-1]  # row i is level t = K - i, step k = i + 1's
    ab, root_ab = levels[:-1, 0], levels[:-1, 1]
    if not np.all((0.0 < ab) & (ab < 1.0)):
        raise UsageError("alpha_bar must be in (0, 1)")
    s2 = world.target_std ** 2
    gain = root_ab * s2 / (ab * s2 + 1.0 - ab)  # sqrt(ab) s^2 / (ab s^2 + 1 - ab)
    table = np.column_stack([levels[:-1, 1:3], gain, levels[:-1, 3:6], levels[1:, 1:3]])
    table.flags.writeable = False
    rows: list[Step | None] = [None]
    for row, noisy in zip(table, (table[:, 5] != 0.0).tolist()):
        scalars = [row[i, ...] for i in range(8)]
        if not noisy:
            scalars[5] = None
        rows.append(Step(*scalars))
    return StepTable(schedule.K, schedule.variant == DETERMINISTIC, tuple(rows))


def denoise_step(x_k: np.ndarray, k: int, mu: np.ndarray, steps: StepTable,
                 noise: np.ndarray | None = None) -> np.ndarray:
    """One reverse update at plan step k (1..K, noise-to-clean order) toward
    the target mean mu = world.target_mean(condition), with the scalars of
    row k of ``steps``.  ``noise`` is the step's standard-normal draw, which
    an ancestral step with sigma > 0 adds scaled by sigma; other steps
    ignore it."""
    if not 0 < k <= steps.K:
        raise UsageError(f"step {k} outside 1..{steps.K}")
    root_ab, root_one_minus_ab, gain, a, b, sigma, prev_root_ab, prev_root_one_minus_ab = \
        steps.rows[k]
    # The result is float64 for float32 x_k or mu too: under NEP 50 a 0-d
    # float64 coefficient makes each op a float64 op, where a Python float,
    # a weak scalar, would leave a float32 operand in float32.
    x0_hat = mu + gain * (x_k - root_ab * mu)  # the posterior mean of the clean sample
    eps_hat = (x_k - root_ab * x0_hat) / root_one_minus_ab
    if steps.deterministic:
        x0_hat = (x_k - root_one_minus_ab * eps_hat) / root_ab
        return prev_root_ab * x0_hat + prev_root_one_minus_ab * eps_hat
    mean = a * x_k - b * eps_hat
    if sigma is None:
        return mean
    if noise is None:
        raise UsageError("ancestral step needs noise")
    return mean + sigma * noise


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class GenerationOutput:
    sample: np.ndarray = field(repr=False)
    runs: tuple[tuple[int, int], ...]  # (node id, steps it conditions) in step order

    @property
    def trace(self) -> tuple[tuple[int, int], ...]:
        """(node id conditioning step k, k) per step k = 1, 2, ..."""
        return tuple(zip(chain.from_iterable(repeat(n, steps) for n, steps in self.runs),
                         count(1)))


@dataclass(frozen=True)
class ExecutionResult:
    outputs: dict[str, GenerationOutput]
    denoiser_calls: int


def _validate(plan: SharePlan, tree: EmbeddingTree, world: ToyWorld,
              schedule: NoiseSchedule) -> None:
    if plan.K != schedule.K:
        raise UsageError(f"plan K={plan.K} does not match schedule K={schedule.K}")
    if set(plan.paths) - set(tree.leaf_of):
        raise UsageError("plan references prompts missing from the tree")
    n_nodes = len(tree)
    for node in plan.spans:
        if not 0 <= node < n_nodes:
            raise UsageError(f"plan references unknown node {node}")
    if tree.means.shape[1] != world.embedding_dimension:
        raise UsageError("tree embedding dimension does not match world condition map")


def execute_plan(plan: SharePlan, tree: EmbeddingTree, world: ToyWorld,
                 schedule: NoiseSchedule, master_seed: int) -> ExecutionResult:
    """Run the shared-step plan; each (node, step) is evaluated exactly once.

    Each span is a chain of ``denoise_step`` calls from its source's final
    state, or from a fresh draw, and spans run in descending node id: a
    source is an ancestor, so its id is above the spans continuing it.
    Fresh states draw initial noise from the stream keyed (seed, node); step
    noise comes from (seed, node, k).  Keys depend only on canonical node
    ids, so output does not depend on the order nodes are evaluated in.
    Both kinds of row come from ``normal_rows`` iterators over the keys in
    span order, which draw exactly what a fresh ``stream`` per key would.
    """
    _validate(plan, tree, world, schedule)
    steps = step_table(schedule, world)
    m = world.data_dimension
    spans = plan.spans
    # Each row is read by its span's first step, which returns a new array,
    # before the next row overwrites it: a planned span holds at least one step.
    init_rows = normal_rows(m, master_seed, TAG_INIT,
                            [node for node, span in spans.items() if span.source == FRESH])
    step_rows = repeat(None)  # deterministic steps take no noise
    if schedule.variant == ANCESTRAL:  # each (node, k) in span order
        step_rows = normal_rows(
            m, master_seed, TAG_STEP,
            np.repeat(list(spans), [s.stop - s.start for s in spans.values()]),
            np.concatenate([np.arange(s.start, s.stop) for s in spans.values()]))
    final: dict[int, np.ndarray] = {}
    calls = 0
    for node, (start, stop, source) in spans.items():
        x = next(init_rows) if source == FRESH else final[source]
        mu = world.target_mean(tree.means[node])
        # the range comes first: zip stops on it without drawing a row past the span
        for k, noise in zip(range(start, stop), step_rows):
            x = denoise_step(x, k, mu, steps, noise)
        final[node] = x
        calls += stop - start
    outputs = {pid: GenerationOutput(final[path[-1]],
                                     tuple((n, spans[n].stop - spans[n].start) for n in path))
               for pid, path in plan.paths.items()}
    return ExecutionResult(outputs=outputs, denoiser_calls=calls)


def run_standard(tree: EmbeddingTree, world: ToyWorld, schedule: NoiseSchedule,
                 master_seed: int, max_steps: int | None = None) -> ExecutionResult:
    """Independent per-prompt diffusion, keyed by each prompt's leaf node.

    With max_steps < K this is truncated standard diffusion: only the first
    max_steps updates of the K-step schedule run and the partially denoised
    state is returned as-is.
    """
    steps = step_table(schedule, world)
    m = world.data_dimension
    k_stop = schedule.K if max_steps is None else min(max_steps, schedule.K)
    outputs = {}
    calls = 0
    for pid in sorted(tree.leaf_of):
        leaf = tree.leaf_of[pid]
        x = stream(master_seed, TAG_INIT, leaf).standard_normal(m)
        mu = world.target_mean(tree.means[leaf])
        for k in range(1, k_stop + 1):
            noise = None
            if schedule.variant == ANCESTRAL:
                noise = stream(master_seed, TAG_STEP, leaf, k).standard_normal(m)
            x = denoise_step(x, k, mu, steps, noise)
            calls += 1
        outputs[pid] = GenerationOutput(x, ((leaf, k_stop),))
    return ExecutionResult(outputs=outputs, denoiser_calls=calls)


# Largest data dimension a world file may ask for.  A seeded map holds
# data_dimension x d float64s: at 2**14 it is 96 MiB for d=768, made in 0.53 s,
# and a K=40 simulate of 8 prompts takes 0.32 s at d=8 and 1.0 s at d=768
# (Python 3.11, numpy 2.4, a shared 2-core machine).
MAX_DATA_DIMENSION = 2**14


def _world_int(value, what: str, allowed: range | None = None) -> int:
    if type(value) is not int or (allowed is not None and value not in allowed):
        bound = f" in {allowed.start}..{allowed.stop - 1}" if allowed is not None else ""
        raise DataError(f"malformed world JSON: {what} {value!r} is not an int{bound}")
    return value


def world_from_json(text: str | bytes,
                    embedding_dimension: int) -> tuple[ToyWorld, tuple[int, str, str], int]:
    """Parse a world config into its world, schedule (K, variant, curve) and
    master seed, raising DataError unless every field is valid.

    ``{"seed": s}`` is the seeded map, a square one included.  An identity
    map whose data dimension is not the embedding dimension is a UsageError:
    the file is valid, it just does not fit this prompt set.
    """
    try:
        doc = json.loads(text)
        m = _world_int(doc["data_dimension"], "data_dimension", range(1, MAX_DATA_DIMENSION + 1))
        std = doc["target_std"]
        if type(std) not in (int, float) or not _valid_std(std):
            raise DataError(f"malformed world JSON: target_std {std!r} is not a number >= 0 "
                            "with a finite square")
        cmap = doc["condition_map"]
        sched = doc["schedule"]
        seed = _world_int(doc["master_seed"], "master_seed")
        K = _world_int(sched["K"], "schedule.K", range(1, MAX_K + 1))
        variant, curve = sched["variant"], sched["curve"]
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
        raise DataError(f"malformed world JSON: {e}") from e
    if variant not in (ANCESTRAL, DETERMINISTIC) or curve not in (CURVE_COSINE, CURVE_LINEAR_BETA):
        raise DataError(f"malformed world JSON: unknown schedule {variant!r}/{curve!r}")
    if cmap == "identity":
        if m != embedding_dimension:
            raise UsageError(
                f"identity condition map needs data_dimension == d ({m} != {embedding_dimension})"
            )
        world = ToyWorld.create(m, embedding_dimension, std)
    elif isinstance(cmap, dict) and "seed" in cmap:
        map_seed = _world_int(cmap["seed"], "condition_map.seed")
        world = ToyWorld(_seeded_map(m, embedding_dimension, map_seed), std)
    else:
        raise DataError(f"malformed world JSON: condition_map {cmap!r} is neither "
                        '"identity" nor {"seed": int}')
    return world, (K, variant, curve), seed
