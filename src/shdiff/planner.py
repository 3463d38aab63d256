"""Schedule threshold, adaptive node selection, and plan compilation.

The planner turns an embedding tree into an execution plan: the one span of
steps each selected tree node conditions, which earlier state each span
continues, and how many denoiser evaluations the plan needs versus the K*N
baseline.  The per-step assignment and active sets are views derived from
the spans, kept for the benchmark's tracer.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import UsageError
from .tree import EmbeddingTree, path_to_root

FRESH = "FRESH"

PHI_MAIN = "main"
PHI_APPENDIX = "appendix"

# Largest step count, for --k and world files alike.  At K = 10**5 an
# execute_plan call spends about 0.18 s in step_table, against about 0.006 s
# for make_schedule (numpy 2.4, a shared 2-core machine); both are linear in K.
MAX_K = 100_000


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
    """One step of ``SharePlan.steps``, a view derived from the spans."""

    k: int
    active: frozenset[int]
    inherit: dict[int, int | str]  # node -> source node active at k-1, or FRESH


class Span(NamedTuple):
    """The steps ``start..stop-1`` one node conditions, for every prompt below it."""

    start: int
    stop: int
    source: int | str  # node whose final state the span continues, or FRESH


@dataclass(frozen=True)
class SharePlan:
    K: int
    tau: float
    phi_variant: str
    spans: dict[int, Span]  # node -> its span, nodes in descending id
    paths: dict[str, tuple[int, ...]]  # prompt id -> its span nodes, root first
    total_evaluations: int
    baseline_evaluations: int
    savings_fraction: float

    @cached_property
    def assignment(self) -> dict[str, tuple[int, ...]]:
        """Prompt id -> node id per step."""
        spans = self.spans
        return {pid: tuple(chain.from_iterable(
                    repeat(n, spans[n].stop - spans[n].start) for n in path))
                for pid, path in self.paths.items()}

    @cached_property
    def steps(self) -> tuple[PlanStep, ...]:
        """Per step, the active nodes and the state each one starts from."""
        inherit: list[dict[int, int | str]] = [{} for _ in range(self.K)]
        for n, (start, stop, source) in self.spans.items():
            inherit[start - 1][n] = source
            for i in range(start, stop - 1):  # steps start+1..stop-1
                inherit[i][n] = n
        return tuple(PlanStep(k=k, active=frozenset(d), inherit=d)
                     for k, d in enumerate(inherit, 1))


def _select_on_path(scores: list[float], phi_k: float) -> int:
    """Index of the selected node, given the scores along a root-first path.

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


def select_node(tree: EmbeddingTree, prompt_id: str, k: int, params: ScheduleParams) -> int:
    """Tree node whose mean embedding conditions step k for this prompt."""
    path = path_to_root(tree, prompt_id)[::-1]  # root first
    return path[_select_on_path(tree.score[path].tolist(), phi(k, params))]


def compile_plan(tree: EmbeddingTree, params: ScheduleParams) -> SharePlan:
    """Compile the plan as one span of steps per selected node.

    phi never rises with k, and clamped scores never rise toward a leaf, so
    along every path each node is selected for one run of steps, the same
    for every prompt below it.  A node whose score equals its parent's is
    never selected; any other node holds the steps with
    ``score[n] < phi_k <= score[parent]`` (the root has no upper bound), and
    a node of score 0 also holds the ``phi_k <= 0`` tail.  A span starting
    at step 1 is FRESH; any other continues the nearest ancestor whose span
    ends just before it, which is each prompt's previous node.
    """
    parent, score = tree.parent.tolist(), tree.score.tolist()
    n_leaves = len(tree.leaf_ids)
    if not (np.all(tree.score[:-1] <= tree.score[tree.parent[:-1]])
            and np.all(tree.score[:n_leaves] == 0.0)):
        # NaN fails both comparisons
        raise UsageError("a plan needs scores that never rise toward a leaf and are 0 at leaves")
    k_count = params.K
    neg_phis = [-phi(k, params) for k in range(1, k_count + 1)]  # ascending
    spans: dict[int, Span] = {}
    holder = [-1] * len(parent)  # nearest node at or above each node holding a span
    total = 0
    for nid in range(len(parent) - 1, -1, -1):
        p, s = parent[nid], score[nid]
        start = 0 if p < 0 else bisect_left(neg_phis, -score[p])
        stop = k_count if s == 0.0 else bisect_left(neg_phis, -s)
        if start < stop and (p < 0 or s < score[p]):
            spans[nid] = Span(start + 1, stop + 1, holder[p] if start else FRESH)
            holder[nid] = nid
            total += stop - start
        elif p >= 0:
            holder[nid] = holder[p]
    paths: dict[str, tuple[int, ...]] = {}
    for pid in sorted(tree.leaf_of):
        path = [holder[tree.leaf_of[pid]]]  # the node holding step K
        while spans[path[-1]].source != FRESH:
            path.append(spans[path[-1]].source)
        paths[pid] = tuple(reversed(path))
    baseline = k_count * n_leaves
    return SharePlan(
        K=k_count,
        tau=params.tau,
        phi_variant=params.phi_variant,
        spans=spans,
        paths=paths,
        total_evaluations=total,
        baseline_evaluations=baseline,
        savings_fraction=1.0 - total / baseline,
    )


def plan_to_json(plan: SharePlan) -> str:
    """Plan JSON format 2: each span once, each prompt's span nodes, the totals."""
    return json.dumps({
        "format": 2,
        "K": plan.K,
        "tau": plan.tau,
        "phi_variant": plan.phi_variant,
        "spans": [[n, *span] for n, span in plan.spans.items()],
        "paths": [{"id": pid, "nodes": list(path)} for pid, path in sorted(plan.paths.items())],
        "total_evaluations": plan.total_evaluations,
        "baseline_evaluations": plan.baseline_evaluations,
        "savings_fraction": plan.savings_fraction,
    }, indent=1)
