"""Quality, diversity, and savings metrics plus the tau-sweep harness."""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .diffusion import ExecutionResult, NoiseSchedule, ToyWorld, execute_plan
from .embeddings import PromptSet
from .errors import UsageError
from .planner import ScheduleParams, SharePlan, compile_plan
from .rng import TAG_SAMPLE, stream
from .tree import EmbeddingTree


@dataclass(frozen=True)
class RunMetrics:
    savings_fraction: float
    mean_squared_error_to_target: float
    diversity_mean_pairwise_cosine: float
    evaluations_total: int
    baseline_evaluations: int


def quality_mse(result: ExecutionResult, world: ToyWorld, prompts: PromptSet) -> float:
    """Mean over prompts of the squared distance between final sample and
    target mean A*y."""
    errors = []
    for pid, y in zip(prompts.ids, prompts.embeddings):
        if pid not in result.outputs:
            raise UsageError(f"missing output for prompt {pid!r}")
        diff = result.outputs[pid].sample - world.target_mean(y.astype(np.float64))
        errors.append(float(np.dot(diff, diff)))
    return float(np.mean(errors))


DIVERSITY_SAMPLE_CAP = 100  # samples the diversity metric compares pairwise, at most


def diversity_pairwise_cosine(result: ExecutionResult, seed: int) -> float:
    """Mean cosine similarity over all pairs of up to DIVERSITY_SAMPLE_CAP
    final samples, a subsample drawn with ``seed`` when there are more."""
    ids = sorted(result.outputs)
    if len(ids) < 2:
        raise UsageError("diversity needs at least 2 outputs")
    if len(ids) > DIVERSITY_SAMPLE_CAP:
        perm = stream(seed, TAG_SAMPLE).permutation(len(ids))[:DIVERSITY_SAMPLE_CAP]
        ids = [ids[i] for i in sorted(perm)]
    vecs = []
    for pid in ids:
        v = result.outputs[pid].sample
        norm = np.linalg.norm(v)
        if norm == 0.0:
            warnings.warn(f"excluding zero final sample for {pid!r} from diversity")
            continue
        vecs.append(v / norm)
    if len(vecs) < 2:
        raise UsageError("fewer than 2 nonzero samples for diversity")
    mat = np.array(vecs)
    gram = mat @ mat.T
    n = len(vecs)
    upper = gram[np.triu_indices(n, k=1)]
    return float(np.mean(upper))


def run_once(prompts: PromptSet, tree: EmbeddingTree, world: ToyWorld,
             schedule: NoiseSchedule, params: ScheduleParams, master_seed: int
             ) -> tuple[SharePlan, ExecutionResult, RunMetrics]:
    """Plan, execute, and summarize one configuration."""
    plan = compile_plan(tree, params)
    result = execute_plan(plan, tree, world, schedule, master_seed)
    metrics = RunMetrics(
        savings_fraction=plan.savings_fraction,
        mean_squared_error_to_target=quality_mse(result, world, prompts),
        diversity_mean_pairwise_cosine=(
            diversity_pairwise_cosine(result, master_seed) if len(prompts) >= 2 else 1.0
        ),
        evaluations_total=plan.total_evaluations,
        baseline_evaluations=plan.baseline_evaluations,
    )
    return plan, result, metrics


def sweep_tau(prompts: PromptSet, tree: EmbeddingTree, world: ToyWorld,
              schedule: NoiseSchedule, tau_values: list[float], master_seed: int,
              phi_variant: str = "main") -> list[tuple[float, RunMetrics]]:
    """One full plan + execution per tau over a single shared tree and seed."""
    if not tau_values:
        raise UsageError("tau_values must be non-empty")
    rows = []
    for tau in tau_values:
        params = ScheduleParams(K=schedule.K, tau=tau, phi_variant=phi_variant)
        _, _, metrics = run_once(prompts, tree, world, schedule, params, master_seed)
        rows.append((tau, metrics))
    return rows


def sweep_csv(rows: list[tuple[float, RunMetrics]], K: int, N: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["tau", "K", "N", "evaluations", "baseline", "savings",
                     "quality", "diversity"])
    for tau, m in rows:
        writer.writerow([
            repr(float(tau)), K, N, m.evaluations_total, m.baseline_evaluations,
            repr(m.savings_fraction), repr(m.mean_squared_error_to_target),
            repr(m.diversity_mean_pairwise_cosine),
        ])
    return buf.getvalue()


def metrics_to_json(metrics: RunMetrics, K: int, N: int, tau: float) -> str:
    return json.dumps(
        {
            "tau": tau,
            "K": K,
            "N": N,
            "savings_fraction": metrics.savings_fraction,
            "mean_squared_error_to_target": metrics.mean_squared_error_to_target,
            "diversity_mean_pairwise_cosine": metrics.diversity_mean_pairwise_cosine,
            "evaluations_total": metrics.evaluations_total,
            "baseline_evaluations": metrics.baseline_evaluations,
            "average_steps_per_prompt": metrics.evaluations_total / N,
        },
        indent=1,
    )
