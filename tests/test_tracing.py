"""The benchmark's tracer (perfbench/tracing.py) replaces shdiff functions at
the module attributes their callers look them up through, and derives its
counts from the plan, the tree and the executor's result.  A patch point that
no longer exists, or an attribute the tracer reads that changed, fails only a
traced benchmark run, so check both here.  The benchmark's tau=0 oracle reads
the tree file and the samples rows itself; check that reading path too."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from shdiff import cli, diffusion
from shdiff.embeddings import PromptSet, generate_synthetic, save_prompt_set
from shdiff.tree import tree_from_json

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


@pytest.mark.parametrize("variant", ["deterministic", "ancestral"])
def test_oracle_reading_path(tmp_path, variant):
    # as perfbench's Bench.oracle and Bench.leaf_map read a cached tree and
    # a tau=0 simulate's samples
    prompts, tree_path, out = (str(tmp_path / n) for n in ("p.jsonl", "t.json", "s.jsonl"))
    ps = generate_synthetic(4, 4, 8, 0.1, seed=3)
    save_prompt_set(ps, prompts)
    assert cli.main(["tree", "--input", prompts, "--output", tree_path]) == 0
    assert cli.main(["simulate", "--input", prompts, "--tree", tree_path, "--tau", "0",
                     "--k", "40", "--variant", variant, "--seed", "9", "--output", out]) == 0
    with open(tree_path, encoding="utf-8") as f:
        text = f.read()
    tree = tree_from_json(text)
    nodes = json.loads(text)["nodes"]
    assert {n["members"][0]: n["id"] for n in nodes if not n["children"]} == tree.leaf_of
    world = diffusion.ToyWorld.create(8, 8, 1.0)
    schedule = diffusion.make_schedule(40, variant, diffusion.CURVE_COSINE)
    standard = diffusion.run_standard(tree, world, schedule, 9).outputs
    with open(out, encoding="utf-8") as f:
        rows = [json.loads(line) for line in f]
    assert [r["id"] for r in rows] == list(ps.ids)
    for r in rows:
        assert r["trace"] == [list(t) for t in standard[r["id"]].trace]
        assert np.array_equal(np.array(r["sample"]), standard[r["id"]].sample.astype(np.float32))


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="the tracer's _observe_plan looks up a span for every leaf, "
                          "and a duplicate row's leaf holds none")
def test_traced_simulate_on_duplicate_rows(tmp_path):
    # four 2-d rows, two of them equal: shdiff runs it, the tracer breaks on it
    prompts = str(tmp_path / "p.jsonl")
    rows = np.array([[1.0, 0.0], [0.6, 0.8], [0.6, 0.8], [0.0, 1.0]], dtype=np.float32)
    save_prompt_set(PromptSet(("a", "b", "c", "d"), (None,) * 4, rows), prompts)
    simulate = ["simulate", "--input", prompts, "--k", "10", "--tau", "1",
                "--output", str(tmp_path / "s.jsonl")]
    assert cli.main(simulate) == 0
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(simulate) == 0
    finally:
        tracer.uninstall()
