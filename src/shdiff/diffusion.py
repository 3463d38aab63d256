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

import numpy as np

from .embeddings import unit_rows
from .errors import DataError, UsageError
from .planner import FRESH, MAX_K, SharePlan
from .rng import TAG_CONDMAP, TAG_INIT, TAG_STEP, keyed_generators, normal_rows, stream
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
               target_std: float) -> "ToyWorld":
        """The identity world; a seeded map comes from a world file."""
        if data_dimension != embedding_dimension:
            raise UsageError(f"identity condition map needs data_dimension == d "
                             f"({data_dimension} != {embedding_dimension})")
        return cls(None, target_std, data_dimension)


def _seeded_map(data_dimension: int, embedding_dimension: int, seed: int) -> np.ndarray:
    """A (data, embedding) random matrix with unit-norm rows, drawn from the
    map stream of ``seed``."""
    shape = (data_dimension, embedding_dimension)
    return unit_rows(stream(seed, TAG_CONDMAP).standard_normal(shape))


@dataclass(frozen=True, eq=False, slots=True)  # compared and hashed by identity
class StepTable:
    """Every step's scalars for one (schedule, world).

    ``table`` is one read-only (K, 3) float64 array whose row k - 1 holds
    plan step k's (x_scale, mu_scale, sigma).  Step k maps x_k to
    x_scale * x_k + drive, where the drive toward a target mean mu is
    mu_scale * mu, plus sigma * z_k when the table is ``noisy`` (the
    ancestral sampler) and z_k is the step's standard-normal row: the
    executor makes a span's drives from blocks of rows, ``run_standard``
    each step's from its own row.

    ``x_scale[k]`` is step k's x_scale as a read-only 0-d float64 view of
    the table, and ``x_scale[0]`` is None.  A 0-d float64 operand gives the
    bits of the Python float it holds, and numpy 2 runs an op on it faster
    than on a Python float, which takes the weak-scalar path: an ancestral
    step's arithmetic on a 64-vector took 2.4-3.4 us against 3.8-4.2 us with
    Python floats (numpy 2.4.6, best of 9 on shared cores).
    """

    K: int
    noisy: bool
    table: np.ndarray = field(repr=False)
    x_scale: tuple[np.ndarray | None, ...] = field(repr=False)


def step_table(schedule: NoiseSchedule, world: ToyWorld) -> StepTable:
    """Resolve every step's affine update once.

    With D = ab s^2 + 1 - ab for the world's target_std s, the noise
    prediction is eps_hat = c (x_k - sqrt(ab) mu) with c = sqrt(1 - ab) / D
    and the posterior mean is x0_hat = mu + g (x_k - sqrt(ab) mu) with
    g = sqrt(ab) s^2 / D, so the DDIM update sqrt(ab') x0_hat +
    sqrt(1 - ab') eps_hat (ab' of level t - 1) and the ancestral mean
    a x_k - b eps_hat are affine in x_k and mu."""
    levels = schedule.coefficients[::-1]  # row i is level t = K - i, step k = i + 1's
    ab, root_ab, root_one_minus_ab, a, b, sigma = levels[:-1].T
    if not np.all((0.0 < ab) & (ab < 1.0)):
        raise UsageError("alpha_bar must be in (0, 1)")
    s2 = world.target_std ** 2
    denom = ab * s2 + 1.0 - ab
    c = root_one_minus_ab / denom
    if schedule.variant == DETERMINISTIC:
        prev_root_ab, prev_root_one_minus_ab = levels[1:, 1:3].T
        x_scale = prev_root_ab * (root_ab * s2 / denom) + prev_root_one_minus_ab * c
        mu_scale = prev_root_ab - root_ab * x_scale
    else:
        x_scale = a - b * c
        mu_scale = b * c * root_ab
    table = np.column_stack([x_scale, mu_scale, sigma])
    table.flags.writeable = False
    return StepTable(schedule.K, schedule.variant == ANCESTRAL, table,
                     (None, *(row[0, ...] for row in table)))


# Values in one block of drives.  A run of any length makes its drives, and
# draws its noise, a block of at most this many float64s at a time (one row
# at least), so it holds a few 512 KiB arrays at a time, never a K-long one.
_BLOCK_VALUES = 2**16


def _run_span(x: np.ndarray, start: int, stop: int, mu: np.ndarray, steps: StepTable,
              noise: np.random.Generator | None) -> np.ndarray:
    """x after steps k = start..stop-1 of one run toward the target mean mu,
    one ``denoise_step`` call each.  The drives, mu_scale * mu plus, for a
    noisy table, sigma * z_k with z_start, ... the run's rows drawn from
    ``noise`` in step order, are made a block at a time by whole-block ops
    on the table's columns: each has the bits of the per-step expression,
    and the rows are the same however the blocks split them."""
    rows = max(1, _BLOCK_VALUES // mu.shape[0])
    for first in range(start, stop, rows):
        scalars = steps.table[first - 1:min(first + rows, stop) - 1]
        drives = scalars[:, 1:2] * mu
        if steps.noisy:
            z = noise.standard_normal(drives.shape)
            z *= scalars[:, 2:3]
            drives += z
        for k, drive in enumerate(drives, first):
            x = denoise_step(x, k, drive, steps)
    return x


def denoise_step(x_k: np.ndarray, k: int, drive: np.ndarray, steps: StepTable) -> np.ndarray:
    """One reverse update at plan step k (1..K, noise-to-clean order):
    x_scale * x_k + drive, with step k's x_scale from ``steps`` and the
    drive mu_scale * mu, plus sigma * z_k for a noisy table."""
    if not 0 < k <= steps.K:
        raise UsageError(f"step {k} outside 1..{steps.K}")
    # The result is float64 for float32 x_k too: under NEP 50 a 0-d float64
    # coefficient makes the op a float64 op, where a Python float, a weak
    # scalar, would leave a float32 operand in float32.
    out = steps.x_scale[k] * x_k
    out += drive  # the sum's bits, without a second new array
    return out


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
    Fresh states draw initial noise from the stream keyed (seed, node), and
    span (node, start, stop) draws its ancestral step rows, in step order,
    from the one stream keyed (seed, node, start).  Keys depend only on
    canonical node ids and the plan, so output does not depend on the order
    nodes are evaluated in.  The streams come from ``rng`` iterators over
    the keys in span order, which draw exactly what a fresh ``stream`` per
    key would.
    """
    _validate(plan, tree, world, schedule)
    steps = step_table(schedule, world)
    m = world.data_dimension
    spans = plan.spans
    init_rows = normal_rows(m, master_seed, TAG_INIT,
                            [node for node, span in spans.items() if span.source == FRESH])
    noise = repeat(None)  # deterministic steps take no noise
    if steps.noisy:
        noise = keyed_generators(master_seed, TAG_STEP, list(spans),
                                 [span.start for span in spans.values()])
    final: dict[int, np.ndarray] = {}
    calls = 0
    # spans come first: zip stops on them without keying a stream past the last
    for (node, (start, stop, source)), span_noise in zip(spans.items(), noise):
        x = next(init_rows) if source == FRESH else final[source]
        final[node] = _run_span(x, start, stop, world.target_mean(tree.means[node]), steps,
                                span_noise)
        calls += stop - start
    outputs = {pid: GenerationOutput(final[path[-1]],
                                     tuple((n, spans[n].stop - spans[n].start) for n in path))
               for pid, path in plan.paths.items()}
    return ExecutionResult(outputs=outputs, denoiser_calls=calls)


def run_standard(tree: EmbeddingTree, world: ToyWorld, schedule: NoiseSchedule,
                 master_seed: int, max_steps: int | None = None) -> ExecutionResult:
    """Independent per-prompt diffusion, keyed by each prompt's leaf node:
    its initial row from the stream (seed, leaf) and its ancestral step rows
    from the stream (seed, leaf, 1), the keys of a tau=0 plan's one span.
    Each step forms its own drive and draws its own noise row, so this
    oracle shares no block code with ``execute_plan``.

    With max_steps < K this is truncated standard diffusion: only the first
    max_steps updates of the K-step schedule run and the partially denoised
    state is returned as-is.
    """
    steps = step_table(schedule, world)
    m = world.data_dimension
    k_stop = schedule.K if max_steps is None else min(max_steps, schedule.K)
    outputs = {}
    for pid in sorted(tree.leaf_of):
        leaf = tree.leaf_of[pid]
        x = stream(master_seed, TAG_INIT, leaf).standard_normal(m)
        mu = world.target_mean(tree.means[leaf])
        noise = stream(master_seed, TAG_STEP, leaf, 1) if steps.noisy else None
        for k, (mu_scale, sigma) in enumerate(steps.table[:k_stop, 1:].tolist(), 1):
            drive = mu_scale * mu
            if noise is not None:
                drive += sigma * noise.standard_normal(m)
            x = denoise_step(x, k, drive, steps)
        outputs[pid] = GenerationOutput(x, ((leaf, k_stop),))
    return ExecutionResult(outputs=outputs, denoiser_calls=len(outputs) * k_stop)


# Largest data dimension a world file may ask for: a K=40 simulate of 8
# prompts at 2**14 takes 0.32 s at d=8 and 1.0 s at d=768 (Python 3.11,
# numpy 2.4, a shared 2-core machine).
MAX_DATA_DIMENSION = 2**14

# Largest seeded map, data_dimension x d float64s, checked before it is drawn.
# At 2**24 (2**14 x 1024) the map is 128 MiB, drawn and normalised in 0.41 s
# at a traced peak of 256 MiB, since unit_rows holds the squares, then the
# quotient, beside the draws (Python 3.11, numpy 2.4, a shared 2-core machine).
MAX_MAP_ENTRIES = 2**24

# Largest execution work that simulate and sweep run, checked before the
# schedule is made: N * K * max(m, MIN_STEP_VALUES) over the data dimension m,
# times the tau count for sweep.  A tau=0 run, which shares no step, took
# about 1 us per evaluation plus 17 ns per value (ancestral; 1.3 ns
# deterministic) and wrote 12 bytes of trace per evaluation, so one of fewer
# than 64 values costs about what one of 64 does.  At the bound a tau=0
# ancestral run takes up to 2 min at m <= 64, where it writes 0.8 GB of trace,
# and 80 s at m = 768 or 2**16 (Python 3.11, numpy 2.4, a shared 2-core machine).
MAX_EXECUTION_WORK = 2**32
MIN_STEP_VALUES = 64


def _world_int(value, what: str, allowed: range | None = None) -> int:
    if type(value) is not int or (allowed is not None and value not in allowed):
        bound = f" in {allowed.start}..{allowed.stop - 1}" if allowed is not None else ""
        raise DataError(f"malformed world JSON: {what} {value!r} is not an int{bound}")
    return value


def world_from_json(text: str | bytes,
                    embedding_dimension: int) -> tuple[ToyWorld, tuple[int, str, str], int]:
    """Parse a world config into its world, schedule (K, variant, curve) and
    master seed, raising DataError unless every field is valid.

    ``{"seed": s}`` is the seeded map, a square one included; one of more
    than ``MAX_MAP_ENTRIES`` values is a DataError before it is drawn.  An
    identity map whose data dimension is not the embedding dimension is a
    UsageError: the file is valid, it just does not fit this prompt set.
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
        world = ToyWorld.create(m, embedding_dimension, std)
    elif isinstance(cmap, dict) and "seed" in cmap:
        map_seed = _world_int(cmap["seed"], "condition_map.seed")
        if m * embedding_dimension > MAX_MAP_ENTRIES:
            raise DataError(f"world JSON: a seeded map of data_dimension {m} x d="
                            f"{embedding_dimension} is {m * embedding_dimension} values, "
                            f"above {MAX_MAP_ENTRIES}")
        world = ToyWorld(_seeded_map(m, embedding_dimension, map_seed), std)
    else:
        raise DataError(f"malformed world JSON: condition_map {cmap!r} is neither "
                        '"identity" nor {"seed": int}')
    return world, (K, variant, curve), seed
