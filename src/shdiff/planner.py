"""Schedule threshold, adaptive node selection, and plan compilation.

The planner turns an embedding tree into an explicit per-step execution plan:
which tree nodes are evaluated at each diffusion step, which earlier state
each newly active node inherits, and how many denoiser evaluations the plan
needs versus the K*N baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import UsageError
from .tree import EmbeddingTree, path_to_root

FRESH = "FRESH"

PHI_MAIN = "main"
PHI_APPENDIX = "appendix"

# Largest step count, as for world files; schedules and plans hold K-long arrays.
MAX_K = 2**31 - 1


@dataclass(frozen=True)
class ScheduleParams:
    K: int
    tau: float
    phi_variant: str = PHI_MAIN

    def __post_init__(self):
        if not 1 <= self.K <= MAX_K:
            raise UsageError(f"K must be in 1..{MAX_K}")
        if not 0 <= self.tau < float("inf"):  # NaN fails both comparisons
            raise UsageError("tau must be finite and >= 0")
        if self.phi_variant not in (PHI_MAIN, PHI_APPENDIX):
            raise UsageError(f"unknown phi variant {self.phi_variant!r}")


def phi(k: int, params: ScheduleParams) -> float:
    """Heterogeneity threshold at step k; decreases linearly to 0.

    The main variant is tau * (1 - k/K).  The appendix variant spaces the K
    values evenly over [tau, 0], i.e. tau * (K-k)/(K-1).
    """
    if not 1 <= k <= params.K:
        raise UsageError(f"step {k} outside 1..{params.K}")
    if params.phi_variant == PHI_MAIN:
        return params.tau * (1.0 - k / params.K)
    if params.K == 1:
        return 0.0
    return params.tau * (params.K - k) / (params.K - 1)


@dataclass(frozen=True)
class PlanStep:
    k: int
    active: frozenset[int]
    inherit: dict[int, int | str]  # node -> source node active at k-1, or FRESH


@dataclass(frozen=True)
class SharePlan:
    K: int
    tau: float
    phi_variant: str
    steps: tuple[PlanStep, ...]
    assignment: dict[str, tuple[int, ...]]  # prompt id -> node id per step
    total_evaluations: int
    baseline_evaluations: int
    savings_fraction: float


def _select_on_path(path_root_first: list, scores: list[float], phi_k: float) -> int:
    """Index into the root-first path of the selected node.

    A node is eligible when its parent's score is >= phi_k (the root's
    virtual parent has score +inf).  Scores are monotone non-increasing
    toward the leaf, so eligibility is a prefix of the path; the selected
    node is the shallowest one attaining the minimal eligible score.
    """
    best_i = 0
    best_score = scores[0]
    parent_score = float("inf")
    for i, s in enumerate(scores):
        if parent_score < phi_k:
            break
        if s < best_score:
            best_i, best_score = i, s
        parent_score = s
    return best_i


def _select_all_steps(path_root_first: list, scores: list[float],
                      phis: list[float]) -> tuple[int, ...]:
    """The node ``_select_on_path`` picks at each phi, in one walk.

    phi never rises with k (it is a rounded linear ramp), so the eligible
    prefix only grows: extend it while the last eligible node's score is
    >= phi_k and keep the first strict minimum seen.  The result equals
    ``_select_on_path`` for any scores, monotone or not.
    """
    out = []
    end = 1  # the root is always eligible
    best_i = 0
    for phi_k in phis:
        while end < len(scores) and scores[end - 1] >= phi_k:
            if scores[end] < scores[best_i]:
                best_i = end
            end += 1
        out.append(path_root_first[best_i])
    return tuple(out)


def select_node(tree: EmbeddingTree, prompt_id: str, k: int, params: ScheduleParams) -> int:
    """Tree node whose mean embedding conditions step k for this prompt."""
    path = list(reversed(path_to_root(tree, prompt_id)))  # root first
    scores = [tree.node(n).score for n in path]
    return path[_select_on_path(path, scores, phi(k, params))]


def compile_plan(tree: EmbeddingTree, params: ScheduleParams) -> SharePlan:
    """Compile the full per-step assignment, active sets, and inherit edges.

    Selection on a shared root-first prefix depends only on that prefix, so
    every prompt on node n at step k was on the same node at step k-1: the
    nearest node at or above n active at k-1.  Each inherit edge is
    therefore a prompt's previous node.
    """
    prompt_ids = sorted(tree.leaf_of)
    k_count = params.K
    assignment: dict[str, tuple[int, ...]] = {}
    phis = [phi(k, params) for k in range(1, k_count + 1)]
    for pid in prompt_ids:
        path = list(reversed(path_to_root(tree, pid)))
        scores = [tree.node(n).score for n in path]
        assignment[pid] = _select_all_steps(path, scores, phis)
    steps: list[PlanStep] = []
    total = 0
    for ki in range(k_count):
        inherit: dict[int, int | str] = {
            nodes[ki]: nodes[ki - 1] if ki else FRESH for nodes in assignment.values()}
        steps.append(PlanStep(k=ki + 1, active=frozenset(inherit), inherit=inherit))
        total += len(inherit)
    baseline = k_count * len(prompt_ids)
    return SharePlan(
        K=k_count,
        tau=params.tau,
        phi_variant=params.phi_variant,
        steps=tuple(steps),
        assignment=assignment,
        total_evaluations=total,
        baseline_evaluations=baseline,
        savings_fraction=1.0 - total / baseline,
    )


def savings_report(plan: SharePlan) -> dict:
    """Pure summary of a compiled plan."""
    per_step = [len(s.active) for s in plan.steps]
    distinct_nodes = max(len(set(nodes)) for nodes in plan.assignment.values())
    return {
        "per_step_active_counts": per_step,
        "total": plan.total_evaluations,
        "baseline": plan.baseline_evaluations,
        "savings_fraction": plan.savings_fraction,
        "max_distinct_nodes_per_prompt": distinct_nodes,
    }


def plan_to_json(plan: SharePlan) -> str:
    doc = {
        "K": plan.K,
        "tau": plan.tau,
        "phi_variant": plan.phi_variant,
        "assignment": [
            {"id": pid, "nodes": list(nodes)} for pid, nodes in sorted(plan.assignment.items())
        ],
        "steps": [
            {
                "k": s.k,
                "active": sorted(s.active),
                "inherit": {str(n): src for n, src in sorted(s.inherit.items())},
            }
            for s in plan.steps
        ],
        "total_evaluations": plan.total_evaluations,
        "baseline_evaluations": plan.baseline_evaluations,
        "savings_fraction": plan.savings_fraction,
    }
    return json.dumps(doc, indent=1)
