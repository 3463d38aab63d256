"""The benchmark's tracer (perfbench/tracing.py) replaces shdiff functions at
the module attributes their callers look them up through, and derives its
counts from the plan, the tree and the executor's result.  A patch point that
no longer exists, or an attribute the tracer reads that changed, fails only a
traced benchmark run, so check both here."""

import importlib.util
from pathlib import Path

from shdiff import cli
from shdiff.embeddings import generate_synthetic, save_prompt_set

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_patch_point_resolves():
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracing.TARGETS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_traced_simulate_counts_each_evaluation_once(tmp_path):
    prompts, tree = str(tmp_path / "p.jsonl"), str(tmp_path / "tree.json")
    save_prompt_set(generate_synthetic(4, 4, 8, 0.1, seed=2), prompts)
    assert cli.main(["tree", "--input", prompts, "--output", tree]) == 0
    tracing = load_tracing()
    tracer, main = tracing.Tracer(), cli.main
    tracer.install()
    try:
        rc = cli.main(["simulate", "--input", prompts, "--tree", tree, "--k", "12",
                       "--variant", "ancestral", "--output", str(tmp_path / "s.jsonl")])
    finally:
        tracer.uninstall()
    assert rc == 0 and cli.main is main
    obs = tracer.observations[tracer.last_root]
    assert obs["tree.trees"] == 1 and obs["tree.depth"] > 0  # _observe_tree ran on the cache
    assert obs[tracing.target_label(tracing.tree_mod, "tree_from_json")] == 1
    assert obs["planner.plans"] == 1 and obs["planner.prompts"] == 16  # _observe_plan ran
    assert obs["planner.fresh_states"] > 0 and obs["planner.active_max"] > 0
    assert 0 < obs["planner.evaluations"] < 12 * 16  # some steps are shared
    assert obs[tracing.DENOISER] == obs["planner.evaluations"] == \
        obs["diffusion.executor_reported_calls"]
