import base64
import hashlib
import json
import os

import numpy as np
import pytest

from shdiff.cli import main
from shdiff.diffusion import ANCESTRAL, ToyWorld, execute_plan, make_schedule, world_to_json
from shdiff.embeddings import PromptSet, generate_synthetic, load_prompt_set, save_prompt_set
from shdiff.metrics import run_once, sweep_csv
from shdiff.planner import ScheduleParams, compile_plan
from shdiff.tree import build_tree, randomize_encodings, reembed


@pytest.fixture
def prompts_file(tmp_path):
    # two tight but distinct pairs, pairs roughly orthogonal to each other
    emb = np.array(
        [[1.0, 0.0, 0.0], [0.96, 0.28, 0.0],
         [0.0, 1.0, 0.0], [0.0, 0.96, 0.28]],
        dtype=np.float32,
    )
    ps = PromptSet(("a", "b", "c", "d"), (None,) * 4, emb)
    path = tmp_path / "prompts.jsonl"
    save_prompt_set(ps, str(path))
    return str(path)


@pytest.fixture
def duplicate_prompts_file(tmp_path):
    emb = np.array(
        [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]],
        dtype=np.float32,
    )
    ps = PromptSet(("a", "b", "c", "d"), (None,) * 4, emb)
    path = tmp_path / "dups.jsonl"
    save_prompt_set(ps, str(path))
    return str(path)


def write_old_layout(tree_path):
    """Rewrite a tree JSON in the layout before format 2: no format key and
    each node's embedding as a JSON list, written with indent=1."""
    doc = json.loads(tree_path.read_text())
    rows = np.frombuffer(base64.b64decode(doc.pop("embeddings")), dtype="<f8")
    rows = rows.reshape(-1, doc.pop("dimension"))
    del doc["format"]
    for rec, row in zip(doc["nodes"], rows):
        rec["embedding"] = row.tolist()
    tree_path.write_text(json.dumps(doc, indent=1))


class TestTree:
    def test_writes_json_and_reports(self, prompts_file, tmp_path, capsys):
        out = tmp_path / "tree.json"
        assert main(["tree", "--input", prompts_file, "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "N: 4" in text
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 7
        assert doc["ablation"] is False
        assert "input_sha256" in doc

    def test_rerun_byte_identical(self, prompts_file, tmp_path):
        out = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(out)])
        first = out.read_bytes()
        main(["tree", "--input", prompts_file, "--output", str(out)])
        assert out.read_bytes() == first

    def test_ablation_flag(self, prompts_file, tmp_path):
        out = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(out),
              "--ablation", "random-encodings", "--seed", "1"])
        assert json.loads(out.read_text())["ablation"] is True

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert main(["tree", "--input", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, data, where", [
        ("p.jsonl", b'{"id": "a", "embedding": [1, 0]}\n{"id": "\xff"}\n', "p.jsonl:2: not valid UTF-8"),
        ("p.jsonl", b'{"id": "a", "embedding": [1' + b"0" * 400 + b', 0]}\n',
         "p.jsonl:1: bad embedding for id 'a'"),
        ("p.bin", b"SHDF\x01\x00\x04", "p.bin: header holds 7 bytes"),
    ], ids=["not utf-8", "int beyond float64", "short binary header"])
    def test_input_defect_exit_3(self, tmp_path, capsys, name, data, where):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["tree", "--input", str(path)]) == 3
        assert where in capsys.readouterr().err

    def test_malformed_input_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a"}\n')
        assert main(["tree", "--input", str(bad)]) == 3
        assert "error:" in capsys.readouterr().err


class TestPlan:
    def test_duplicate_pairs_always_share(self, duplicate_prompts_file, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = main(["plan", "--input", duplicate_prompts_file, "--output", str(out),
                   "--k", "10", "--tau", "1.0"])
        assert rc == 0
        # identical prompts merge at distance 0 and the root merge distance
        # (1.0) stays above the threshold, so each pair shares every step
        assert "savings: 50.00%" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["baseline_evaluations"] == 40
        assert doc["total_evaluations"] == 20

    def test_tau_zero_prints_no_savings(self, prompts_file, capsys):
        assert main(["plan", "--input", prompts_file, "--k", "10",
                     "--tau", "0.0"]) == 0
        assert "savings: 0.00%" in capsys.readouterr().out

    def test_plan_rerun_byte_identical(self, prompts_file, tmp_path):
        out = tmp_path / "plan.json"
        args = ["plan", "--input", prompts_file, "--output", str(out),
                "--k", "12", "--tau", "0.8"]
        main(args)
        first = out.read_bytes()
        main(args)
        assert out.read_bytes() == first

    def test_tree_cache_used_when_hash_matches(self, prompts_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        rc = main(["plan", "--input", prompts_file, "--tree", str(tree_path),
                   "--k", "10", "--tau", "1.0"])
        assert rc == 0
        assert "rebuilding" not in capsys.readouterr().err

    def test_tree_cache_rebuilt_on_mismatch(self, prompts_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        doc = json.loads(tree_path.read_text())
        doc["input_sha256"] = "0" * 64
        tree_path.write_text(json.dumps(doc))
        rc = main(["plan", "--input", prompts_file, "--tree", str(tree_path),
                   "--k", "10", "--tau", "1.0"])
        assert rc == 0
        assert "rebuilding" in capsys.readouterr().err

    def test_ablation_tree_not_reused(self, prompts_file, tmp_path, capsys):
        plan_args = ["plan", "--input", prompts_file, "--k", "10", "--tau", "1.0"]
        assert main(plan_args) == 0
        fresh = capsys.readouterr().out
        tree_path = tmp_path / "random.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path),
              "--ablation", "random-encodings", "--seed", "1"])
        capsys.readouterr()
        assert main(plan_args + ["--tree", str(tree_path)]) == 0
        captured = capsys.readouterr()
        assert "rebuilding" in captured.err
        assert captured.out == fresh

    def test_tree_cache_rebuilt_on_normalize_mismatch(self, prompts_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        assert json.loads(tree_path.read_text())["normalize"] is False
        capsys.readouterr()
        rc = main(["plan", "--input", prompts_file, "--tree", str(tree_path),
                   "--normalize", "--k", "10", "--tau", "1.0"])
        assert rc == 0
        assert "rebuilding" in capsys.readouterr().err

    def test_old_layout_tree_rebuilt(self, prompts_file, tmp_path, capsys):
        plan_args = ["plan", "--input", prompts_file, "--k", "10", "--tau", "1.0"]
        assert main(plan_args) == 0
        fresh = capsys.readouterr().out
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        write_old_layout(tree_path)
        capsys.readouterr()
        assert main(plan_args + ["--tree", str(tree_path)]) == 0
        captured = capsys.readouterr()
        assert f"warning: {tree_path} does not match input or options, rebuilding" in captured.err
        assert captured.out == fresh

    def test_tree_leaves_not_input_exit_3(self, prompts_file, tmp_path, capsys):
        # input hash and options match, so the file claims to be this input's tree
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        doc = json.loads(tree_path.read_text())
        for rec in doc["nodes"]:
            rec["members"] = sorted("z" if m == "a" else m for m in rec["members"])
        tree_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["plan", "--input", prompts_file, "--tree", str(tree_path)]) == 3
        assert f"error: {tree_path}: tree leaves or dimension do not match" in \
            capsys.readouterr().err

    def test_tree_not_utf8_exit_3(self, prompts_file, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        tree_path.write_bytes(b'{"format": 2, "nodes": "\xff"}')
        assert main(["plan", "--input", prompts_file, "--tree", str(tree_path)]) == 3
        assert f"error: {tree_path}: malformed tree JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"format": 2, "x": ' + "7" * 5_000 + "}",
    ], ids=["nested too deep", "int too long"])
    def test_tree_json_beyond_parser_limits_exit_3(self, prompts_file, tmp_path, capsys, text):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(text)
        assert main(["plan", "--input", prompts_file, "--tree", str(tree_path)]) == 3
        assert f"error: {tree_path}: malformed tree JSON" in capsys.readouterr().err

    def test_bad_tau_exit_2(self, prompts_file):
        assert main(["plan", "--input", prompts_file, "--tau", "-1"]) == 2

    @pytest.mark.parametrize("parents", [{2: 99}, {4: 5, 5: 4}],
                             ids=["parent out of range", "parent cycle"])
    def test_corrupt_tree_exit_3(self, prompts_file, tmp_path, capsys, parents):
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        doc = json.loads(tree_path.read_text())
        assert [n["children"] for n in doc["nodes"][4:]] == [[0, 1], [2, 3], [4, 5]]
        for node, parent in parents.items():
            doc["nodes"][node]["parent"] = parent
        tree_path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["plan", "--input", prompts_file, "--tree", str(tree_path),
                   "--k", "10", "--tau", "1.0"])
        assert rc == 3
        assert f"error: {tree_path}: malformed tree JSON" in capsys.readouterr().err


class TestSimulate:
    def test_writes_samples_and_metrics(self, prompts_file, tmp_path, capsys):
        out = tmp_path / "samples.jsonl"
        met = tmp_path / "m.json"
        rc = main(["simulate", "--input", prompts_file, "--output", str(out),
                   "--metrics", str(met), "--k", "10", "--tau", "1.0",
                   "--target-std", "0.5", "--seed", "3"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "savings:" in text and "quality_mse:" in text
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        rec = json.loads(lines[0])
        assert rec["id"] == "a" and len(rec["sample"]) == 3
        assert len(rec["trace"]) == 10
        mdoc = json.loads(met.read_text())
        assert mdoc["K"] == 10 and mdoc["N"] == 4

    def test_rerun_byte_identical(self, prompts_file, tmp_path):
        out = tmp_path / "samples.jsonl"
        args = ["simulate", "--input", prompts_file, "--output", str(out),
                "--k", "10", "--tau", "0.5", "--seed", "7",
                "--variant", "ancestral"]
        main(args)
        first = out.read_bytes()
        main(args)
        assert out.read_bytes() == first

    def test_samples_are_float32_rounded_values(self, prompts_file, tmp_path):
        out = tmp_path / "samples.jsonl"
        assert main(["simulate", "--input", prompts_file, "--output", str(out),
                     "--k", "10", "--tau", "0.5", "--target-std", "0.5", "--seed", "3",
                     "--variant", "ancestral"]) == 0
        prompts = load_prompt_set(prompts_file)
        tree = build_tree(prompts)
        plan = compile_plan(tree, ScheduleParams(K=10, tau=0.5))
        result = execute_plan(plan, tree, ToyWorld.create(3, 3, 0.5),
                              make_schedule(10, ANCESTRAL), 3)
        expected = "".join(json.dumps({
            "id": pid,
            "sample": [float(np.float32(v)) for v in result.outputs[pid].sample],
            "trace": [[node, k] for node, k in result.outputs[pid].trace],
        }) + "\n" for pid in prompts.ids)
        assert out.read_text() == expected

    def test_default_metrics_path(self, prompts_file, tmp_path):
        out = tmp_path / "run.jsonl"
        main(["simulate", "--input", prompts_file, "--output", str(out),
              "--k", "8", "--tau", "0.0"])
        assert os.path.isfile(str(tmp_path / "run.metrics.json"))

    def test_old_layout_tree_rebuilt(self, prompts_file, tmp_path):
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        write_old_layout(tree_path)
        args = ["simulate", "--input", prompts_file, "--k", "10", "--tau", "0.5", "--seed", "3"]
        assert main(args + ["--output", str(tmp_path / "fresh.jsonl")]) == 0
        assert main(args + ["--tree", str(tree_path), "--output", str(tmp_path / "old.jsonl")]) == 0
        assert (tmp_path / "old.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()

    def test_nan_target_std_flag_exit_2(self, prompts_file, tmp_path):
        assert main(["simulate", "--input", prompts_file, "--target-std", "nan",
                     "--output", str(tmp_path / "s.jsonl")]) == 2

    def test_ablation_runs(self, prompts_file, tmp_path, capsys):
        out = tmp_path / "samples.jsonl"
        rc = main(["simulate", "--input", prompts_file, "--output", str(out),
                   "--k", "10", "--tau", "1.0", "--ablation", "random-encodings",
                   "--seed", "1"])
        assert rc == 0
        assert "savings:" in capsys.readouterr().out

    @pytest.mark.parametrize("synth, simulate, samples_sha, metrics_sha", [
        (["--clusters", "4", "--per-cluster", "8", "--dim", "768", "--jitter", "0.03",
          "--seed", "11"],
         ["--k", "20", "--tau", "0.5", "--target-std", "0.5", "--seed", "5"],
         "eb96012815d8d95b52383cb567d09365b81cc2722ab9751d19e7323e84c1e078",
         "e543321eacfb60bf81d7e77d2811437149a08607344da2cbd77fd9fa2befce46"),
        (["--clusters", "8", "--per-cluster", "8", "--dim", "64", "--jitter", "0.1",
          "--seed", "12"],
         ["--k", "40", "--tau", "1.0", "--variant", "ancestral", "--seed", "6"],
         "64a3a0f005f63bb69cd231dc41277fc09540526de9c4fe23d42e09c700905dcb",
         "d59cd186d3d34c039369a170ba442efbb427009684475a2b624307d6918fc21d"),
    ], ids=["d768-deterministic", "d64-ancestral"])
    def test_outputs_pinned(self, tmp_path, synth, simulate, samples_sha, metrics_sha):
        # Digests written when every target mean was an A @ y mat-vec; the
        # tau=0 oracle cannot see a drift there, since run_standard shares it.
        prompts, out, met = (tmp_path / n for n in ("p.jsonl", "s.jsonl", "m.json"))
        assert main(["synth", *synth, "--output", str(prompts)]) == 0
        assert main(["simulate", "--input", str(prompts), *simulate,
                     "--output", str(out), "--metrics", str(met)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == samples_sha
        assert hashlib.sha256(met.read_bytes()).hexdigest() == metrics_sha

    def test_ablation_outputs_pinned(self, tmp_path):
        prompts, plan, out, met = (tmp_path / n for n in ("p.jsonl", "plan.json",
                                                          "s.jsonl", "m.json"))
        assert main(["synth", "--clusters", "8", "--per-cluster", "8", "--dim", "64",
                     "--jitter", "0.1", "--seed", "13", "--output", str(prompts)]) == 0
        ablation = ["--input", str(prompts), "--k", "40", "--tau", "1.0",
                    "--ablation", "random-encodings", "--seed", "2"]
        assert main(["plan", *ablation, "--output", str(plan)]) == 0
        assert main(["simulate", *ablation, "--target-std", "0.5",
                     "--output", str(out), "--metrics", str(met)]) == 0
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in (plan, out, met)] == [
            "5634d2bd432798f1d320077a7bfda26a241555a238cf21298c6e3d1f6523b81e",
            "9f20984bef3e95717e1ad0ffa71846164d9ca3e4c163b74bb98c0f69e3f8662a",
            "0a3970d7022957824dc7796b8acebc5e0c05885fe8d9ea0be5648244e8cebd36",
        ]


class TestSweep:
    def test_csv_to_stdout(self, prompts_file, capsys):
        rc = main(["sweep", "--input", prompts_file, "--k", "10",
                   "--sweep", "0.0,0.5,1.0", "--target-std", "0.5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("tau,K,N,")
        assert len(lines) == 4
        savings = [float(l.split(",")[5]) for l in lines[1:]]
        assert savings == sorted(savings)
        assert savings[0] == 0.0

    def test_csv_file_output(self, prompts_file, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--input", prompts_file, "--k", "10",
                   "--sweep", "1.0", "--output", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0].startswith("tau,")

    def test_empty_sweep_exit_2(self, prompts_file):
        assert main(["sweep", "--input", prompts_file, "--sweep", ","]) == 2

    def test_bad_sweep_value_exit_2(self, prompts_file):
        assert main(["sweep", "--input", prompts_file, "--sweep", "0.5,zap"]) == 2

    def test_linear_beta_flag(self, prompts_file, capsys):
        rc = main(["sweep", "--input", prompts_file, "--k", "10",
                   "--schedule", "linear-beta", "--sweep", "0.5"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("tau,")

    def test_ablation_sweeps_reembedded_random_tree(self, tmp_path, capsys):
        ps = generate_synthetic(4, 6, 16, 0.05, seed=3)
        prompts = tmp_path / "p.jsonl"
        save_prompt_set(ps, str(prompts))
        argv = ["sweep", "--input", str(prompts), "--k", "20", "--target-std", "0.5",
                "--seed", "4", "--sweep", "0.5,1,2"]
        assert main(argv + ["--ablation", "random-encodings"]) == 0
        ablated = capsys.readouterr().out
        tree = reembed(build_tree(randomize_encodings(ps, 4)), ps)
        world, schedule = ToyWorld.create(16, 16, 0.5), make_schedule(20)
        rows = [(tau, run_once(ps, tree, world, schedule, ScheduleParams(K=20, tau=tau), 4)[2])
                for tau in (0.5, 1.0, 2.0)]
        assert ablated == sweep_csv(rows, 20, len(ps))
        assert main(argv) == 0
        plain = capsys.readouterr().out
        savings = [[row.split(",")[5] for row in text.splitlines()[1:]]
                   for text in (ablated, plain)]
        assert savings[0] != savings[1]


@pytest.mark.parametrize("command", ["plan", "simulate", "sweep"])
@pytest.mark.parametrize("tau", ["inf", "nan"])
def test_non_finite_tau_exit_2(prompts_file, tmp_path, capsys, command, tau):
    flag = "--sweep" if command == "sweep" else "--tau"
    argv = [command, "--input", prompts_file, "--k", "10", flag, tau,
            "--output", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "tau must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_tree_with_ablation_exit_2(prompts_file, tmp_path, capsys, command):
    tree_path = tmp_path / "tree.json"
    main(["tree", "--input", prompts_file, "--output", str(tree_path)])
    capsys.readouterr()
    assert main([command, "--input", prompts_file, "--tree", str(tree_path),
                 "--ablation", "random-encodings", "--output", str(tmp_path / "out")]) == 2
    assert "--tree cannot be combined with --ablation" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "simulate", "sweep"])
@pytest.mark.parametrize("k", [2**31, 2**63])
def test_k_above_bound_exit_2(prompts_file, tmp_path, capsys, command, k):
    # Only rejected values are tried: an accepted K near the bound would
    # allocate K-long arrays.
    argv = [command, "--input", prompts_file, "--k", str(k), "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--sweep", "1"]
    assert main(argv) == 2
    assert "K must be in 1..2147483647" in capsys.readouterr().err


class TestSynth:
    def test_jsonl_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        rc = main(["synth", "--clusters", "3", "--per-cluster", "4",
                   "--dim", "8", "--jitter", "0.1", "--seed", "5",
                   "--output", str(out)])
        assert rc == 0
        assert "wrote 12 embeddings (d=8)" in capsys.readouterr().out
        assert main(["tree", "--input", str(out)]) == 0

    def test_binary_output(self, tmp_path):
        out = tmp_path / "synth.bin"
        main(["synth", "--clusters", "2", "--per-cluster", "2",
              "--dim", "4", "--output", str(out)])
        assert out.read_bytes()[:4] == b"SHDF"
        assert main(["tree", "--input", str(out)]) == 0

    def test_world_json_roundtrip_through_simulate(self, prompts_file, tmp_path):
        from shdiff.diffusion import ToyWorld, make_schedule, world_to_json
        world_path = tmp_path / "world.json"
        world_path.write_text(
            world_to_json(ToyWorld.create(3, 3, 0.5), make_schedule(12), 4))
        out = tmp_path / "samples.jsonl"
        rc = main(["simulate", "--input", prompts_file, "--world", str(world_path),
                   "--output", str(out), "--tau", "1.0"])
        assert rc == 0
        assert len(json.loads(out.read_text().splitlines()[0])["trace"]) == 12


def _world_set(*path_and_value):
    *path, key, value = path_and_value

    def corrupt(doc):
        node = doc
        for step in path:
            node = node[step]
        node[key] = value
        return doc
    return corrupt


WORLD_DEFECTS = {
    "data_dimension -1": _world_set("data_dimension", -1),
    "data_dimension float": _world_set("data_dimension", 3.0),
    "schedule.K a list": _world_set("schedule", "K", [5]),
    "schedule.K 2**31": _world_set("schedule", "K", 2**31),
    "schedule variant unknown": _world_set("schedule", "variant", "euler"),
    "condition_map a list": _world_set("condition_map", [1, 2]),
    "condition_map seed missing": _world_set("condition_map", {}),
    "target_std nan": _world_set("target_std", float("nan")),
    "target_std inf": _world_set("target_std", float("inf")),
    "target_std negative": _world_set("target_std", -0.5),
    "master_seed a string": _world_set("master_seed", "4"),
    "not an object": lambda doc: [doc],
}


class TestWorldFile:
    @pytest.mark.parametrize("defect", sorted(WORLD_DEFECTS))
    def test_defect_exit_3(self, prompts_file, tmp_path, capsys, defect):
        doc = json.loads(world_to_json(ToyWorld.create(3, 3, 0.5), make_schedule(12), 4))
        world_path = tmp_path / "world.json"
        world_path.write_text(json.dumps(WORLD_DEFECTS[defect](doc)))
        out = tmp_path / "samples.jsonl"
        rc = main(["simulate", "--input", prompts_file, "--world", str(world_path),
                   "--output", str(out), "--tau", "1.0"])
        assert rc == 3
        assert "error: malformed world JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_nested_too_deep_exit_3(self, prompts_file, tmp_path, capsys):
        world_path = tmp_path / "world.json"
        world_path.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "samples.jsonl"
        assert main(["simulate", "--input", prompts_file, "--world", str(world_path),
                     "--output", str(out)]) == 3
        assert "error: malformed world JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_not_utf8_exit_3(self, prompts_file, tmp_path, capsys):
        world_path = tmp_path / "world.json"
        world_path.write_bytes(b'{"data_dimension": "\xff"}')
        assert main(["sweep", "--input", prompts_file, "--world", str(world_path),
                     "--sweep", "1.0"]) == 3
        assert "error: malformed world JSON" in capsys.readouterr().err
