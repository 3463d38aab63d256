import itertools
import json

import numpy as np
import pytest

from shdiff.embeddings import PromptSet, generate_synthetic
from shdiff.errors import UsageError
from shdiff.planner import (
    FRESH,
    PHI_APPENDIX,
    PHI_MAIN,
    ScheduleParams,
    compile_plan,
    phi,
    plan_to_json,
    savings_report,
    select_node,
)
from shdiff.tree import build_tree, path_to_root, randomize_encodings, reembed


def duplicated_set(n):
    return PromptSet(tuple(f"p{i:02d}" for i in range(n)), (None,) * n,
                     np.tile(np.array([[0.6, 0.8]], dtype=np.float32), (n, 1)))


class TestPhi:
    def test_final_step_is_zero(self):
        assert phi(40, ScheduleParams(K=40, tau=1.0)) == 0.0

    def test_midpoint(self):
        assert phi(20, ScheduleParams(K=40, tau=1.0)) == 0.5

    def test_tau_zero(self):
        p = ScheduleParams(K=10, tau=0.0)
        assert all(phi(k, p) == 0.0 for k in range(1, 11))

    def test_strictly_decreasing(self):
        p = ScheduleParams(K=25, tau=1.5)
        vals = [phi(k, p) for k in range(1, 26)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        p = ScheduleParams(K=10, tau=1.0)
        with pytest.raises(UsageError):
            phi(0, p)
        with pytest.raises(UsageError):
            phi(11, p)

    def test_appendix_variant_starts_at_tau(self):
        p = ScheduleParams(K=10, tau=0.7, phi_variant="appendix")
        assert phi(1, p) == pytest.approx(0.7)
        assert phi(10, p) == 0.0

    def test_bad_params(self):
        for k in (0, 2**31, 2**63):  # rejected before anything K-long exists
            with pytest.raises(UsageError):
                ScheduleParams(K=k, tau=1.0)
        for tau in (-0.5, float("inf"), float("nan")):
            with pytest.raises(UsageError, match="tau must be finite and >= 0"):
                ScheduleParams(K=10, tau=tau)


class TestSelectNode:
    def test_three_level_chain(self, chain_tree):
        params = ScheduleParams(K=10, tau=1.0)
        # prompt "b" path: leaf 1 -> inner 3 (0.3) -> root 4 (0.8)
        assert select_node(chain_tree, "b", 1, params) == 4  # phi=0.9
        assert select_node(chain_tree, "b", 3, params) == 3  # phi=0.7
        assert select_node(chain_tree, "b", 8, params) == 1  # phi=0.2

    def test_last_step_is_leaf_embedding(self, chain_tree):
        params = ScheduleParams(K=10, tau=1.0)
        node = select_node(chain_tree, "b", 10, params)
        assert np.array_equal(chain_tree.nodes[node].embedding,
                              chain_tree.nodes[chain_tree.leaf_of["b"]].embedding)

    def test_tau_zero_always_leaf(self):
        ps = generate_synthetic(2, 3, 8, 0.2, seed=1)
        tree = build_tree(ps)
        params = ScheduleParams(K=7, tau=0.0)
        for pid in ps.ids:
            for k in range(1, 8):
                assert select_node(tree, pid, k, params) == tree.leaf_of[pid]

    def test_dummy_root_parent_handles_large_tau(self, chain_tree):
        # tau far above c_max: earliest steps must still resolve (to the root)
        params = ScheduleParams(K=10, tau=50.0)
        assert select_node(chain_tree, "b", 1, params) == chain_tree.root

    def test_depth_monotone_in_k(self):
        ps = generate_synthetic(3, 4, 10, 0.3, seed=2)
        tree = build_tree(ps)
        params = ScheduleParams(K=30, tau=1.0)
        for pid in ps.ids:
            path = list(reversed(path_to_root(tree, pid)))
            depths = [path.index(select_node(tree, pid, k, params)) for k in range(1, 31)]
            assert depths == sorted(depths)


class TestCompilePlan:
    def test_assignment_equals_select_node(self):
        rng = np.random.default_rng(12)
        for trial in range(24):
            n = int(rng.integers(2, 20))
            # draw rows from a small pool so that duplicates give zero-score nodes
            pool = rng.standard_normal((max(1, n // 2), 6))
            emb = pool[rng.integers(0, len(pool), n)].astype(np.float32)
            tree = build_tree(PromptSet(tuple(f"p{i:02d}" for i in range(n)), (None,) * n, emb))
            if trial % 2:
                # selection is defined for any scores, monotone toward the leaves or not
                for node in tree.nodes:
                    node.score = float(rng.choice([0.0, 0.3, rng.uniform(0.0, 2.0)]))
            for variant, tau, K in itertools.product(
                    (PHI_MAIN, PHI_APPENDIX), (0.0, 0.3, 2.0, 1e9), (1, 7, 30)):
                params = ScheduleParams(K=K, tau=tau, phi_variant=variant)
                plan = compile_plan(tree, params)
                for pid in tree.leaf_of:
                    assert list(plan.assignment[pid]) == \
                        [select_node(tree, pid, k, params) for k in range(1, K + 1)]
                # each state comes from the nearest ancestor-or-self active a step earlier
                prev = None
                for step in plan.steps:
                    for node, src in step.inherit.items():
                        if prev is None:
                            assert src == FRESH
                            continue
                        cur = node
                        while cur is not None and cur not in prev:
                            cur = tree.nodes[cur].parent
                        assert src == cur
                    prev = step.active

    def test_two_prompt_half_share(self, pair_tree):
        for K in (8, 40, 100):
            plan = compile_plan(pair_tree, ScheduleParams(K=K, tau=1.0))
            assert plan.total_evaluations == 3 * K // 2
            assert plan.savings_fraction == 0.25

    def test_tau_zero_no_sharing(self):
        ps = generate_synthetic(2, 4, 8, 0.2, seed=3)
        tree = build_tree(ps)
        plan = compile_plan(tree, ScheduleParams(K=12, tau=0.0))
        assert plan.total_evaluations == 12 * 8
        assert plan.savings_fraction == 0.0
        for step in plan.steps[1:]:
            for node, src in step.inherit.items():
                assert src == node  # chains stay within one leaf

    def test_duplicated_prompts_share_everything(self):
        n = 10
        tree = build_tree(duplicated_set(n))
        plan = compile_plan(tree, ScheduleParams(K=40, tau=1.0))
        assert plan.total_evaluations == 40
        assert plan.savings_fraction == 1.0 - 1.0 / n

    def test_assignment_on_root_path(self):
        ps = generate_synthetic(3, 3, 8, 0.2, seed=5)
        tree = build_tree(ps)
        plan = compile_plan(tree, ScheduleParams(K=15, tau=1.0))
        for pid, nodes in plan.assignment.items():
            path = set(path_to_root(tree, pid))
            assert all(n in path for n in nodes)

    def test_active_sets_match_assignment(self):
        ps = generate_synthetic(2, 4, 8, 0.3, seed=6)
        tree = build_tree(ps)
        plan = compile_plan(tree, ScheduleParams(K=20, tau=0.8))
        for i, step in enumerate(plan.steps):
            expected = {plan.assignment[pid][i] for pid in plan.assignment}
            assert step.active == expected
        assert plan.total_evaluations == sum(len(s.active) for s in plan.steps)

    def test_inherit_sources_are_active_ancestors(self):
        ps = generate_synthetic(4, 4, 8, 0.1, seed=7)
        tree = build_tree(ps)
        plan = compile_plan(tree, ScheduleParams(K=25, tau=1.2))
        prev = None
        for step in plan.steps:
            for node, src in step.inherit.items():
                if step.k == 1:
                    assert src == FRESH
                else:
                    assert src in prev
                    cur = node
                    while cur is not None and cur != src:
                        cur = tree.nodes[cur].parent
                    assert cur == src  # ancestor-or-self
            prev = step.active

    def test_inherit_replay_reaches_fresh(self):
        ps = generate_synthetic(4, 4, 8, 0.1, seed=8)
        tree = build_tree(ps)
        plan = compile_plan(tree, ScheduleParams(K=30, tau=1.0))
        for pid, nodes in plan.assignment.items():
            node = nodes[-1]
            for step in reversed(plan.steps):
                src = step.inherit[node]
                if step.k == 1:
                    assert src == FRESH
                else:
                    node = src

    def test_evaluation_bounds(self):
        for seed in range(5):
            ps = generate_synthetic(3, 4, 8, 0.2, seed=seed)
            tree = build_tree(ps)
            for tau in (0.0, 0.5, 1.0, 2.0):
                plan = compile_plan(tree, ScheduleParams(K=10, tau=tau))
                assert 10 <= plan.total_evaluations <= 10 * len(ps)

    def test_savings_monotone_in_tau(self):
        ps = generate_synthetic(4, 4, 16, 0.15, seed=9)
        tree = build_tree(ps)
        totals = [compile_plan(tree, ScheduleParams(K=40, tau=t)).total_evaluations
                  for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5)]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_ablation_uses_ablation_structure(self):
        ps = generate_synthetic(4, 8, 32, 0.02, seed=2)
        tree = build_tree(ps)
        abl = build_tree(randomize_encodings(ps, seed=0))
        plan_true = compile_plan(tree, ScheduleParams(K=40, tau=1.0))
        plan_abl = compile_plan(reembed(abl, ps), ScheduleParams(K=40, tau=1.0))
        assert plan_abl.savings_fraction < plan_true.savings_fraction
        # the re-embedded tree keeps the random tree's node ids, parents and scores
        assert plan_abl == compile_plan(abl, ScheduleParams(K=40, tau=1.0))
        for pid, nodes in plan_abl.assignment.items():
            path = set(path_to_root(abl, pid))
            assert all(n in path for n in nodes)


class TestReportAndJson:
    def test_report_matches_plan(self):
        ps = generate_synthetic(2, 4, 8, 0.2, seed=4)
        tree = build_tree(ps)
        plan = compile_plan(tree, ScheduleParams(K=10, tau=1.0))
        rep = savings_report(plan)
        assert rep["total"] == plan.total_evaluations
        assert rep["baseline"] == 10 * 8
        assert rep["savings_fraction"] == plan.savings_fraction
        assert len(rep["per_step_active_counts"]) == 10

    def test_tau_zero_report(self):
        ps = generate_synthetic(2, 2, 8, 0.2, seed=4)
        plan = compile_plan(build_tree(ps), ScheduleParams(K=10, tau=0.0))
        assert savings_report(plan)["savings_fraction"] == 0.0

    def test_distinct_nodes_per_prompt(self, chain_tree):
        # Prompt b visits root, inner node and leaf: three nodes, although
        # the tree is only two edges deep.
        plan = compile_plan(chain_tree, ScheduleParams(K=10, tau=1.0))
        assert savings_report(plan)["max_distinct_nodes_per_prompt"] == 3
        assert chain_tree.depth() == 2
        plan = compile_plan(chain_tree, ScheduleParams(K=10, tau=0.0))
        assert savings_report(plan)["max_distinct_nodes_per_prompt"] == 1

    def test_plan_to_json_fields(self, pair_tree):
        plan = compile_plan(pair_tree, ScheduleParams(K=8, tau=1.0))
        doc = json.loads(plan_to_json(plan))
        assert doc["K"] == 8 and doc["tau"] == 1.0 and doc["phi_variant"] == "main"
        assert {rec["id"]: tuple(rec["nodes"]) for rec in doc["assignment"]} == plan.assignment
        assert [s["k"] for s in doc["steps"]] == [s.k for s in plan.steps]
        assert [frozenset(s["active"]) for s in doc["steps"]] == [s.active for s in plan.steps]
        inherit = [{int(n): src for n, src in s["inherit"].items()} for s in doc["steps"]]
        assert inherit == [s.inherit for s in plan.steps]
        assert doc["total_evaluations"] == plan.total_evaluations == 12
        assert doc["baseline_evaluations"] == plan.baseline_evaluations == 16
        assert doc["savings_fraction"] == plan.savings_fraction == 0.25
