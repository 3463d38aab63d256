import base64
import contextlib
import errno
import hashlib
import io
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import expand_plan_json
from shdiff import cli, diffusion
from shdiff.cli import main
from shdiff.diffusion import ANCESTRAL, MAX_DATA_DIMENSION, ToyWorld, execute_plan, make_schedule
from shdiff.embeddings import (MAX_PROMPTS, MAX_SYNTH_ENTRIES, TEXT_BLOCK_VALUES, PromptSet,
                               generate_synthetic, load_prompt_set, save_prompt_set)
from shdiff.metrics import run_once, sweep_csv
from shdiff.planner import MAX_K, ScheduleParams, SharePlan, compile_plan
from shdiff.tree import build_tree, randomize_encodings, reembed, tree_from_json, tree_to_json


# A world file for the 3-d prompt sets below: identity map, K=12, seed 4.
WORLD_TEXT = ('{"data_dimension": 3, "target_std": 0.5, "condition_map": "identity", '
              '"schedule": {"K": 12, "curve": "cosine", "variant": "deterministic"}, '
              '"master_seed": 4}')


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


def node_embeddings(doc):
    """Every node's embedding of a format-5 tree document, derived on load."""
    return tree_from_json(json.dumps(doc)).means


def write_format_2(tree_path, **extra):
    """Rewrite a tree JSON in format 2: every node embedding in one base64
    block of float64 rows instead of the float32 leaf rows."""
    doc = json.loads(tree_path.read_text())
    rows = node_embeddings(doc)
    del doc["leaves"]
    doc.update(format=2, embeddings=base64.b64encode(rows.astype("<f8").tobytes()).decode(),
               **extra)
    tree_path.write_text(json.dumps(doc))


def write_old_layout(tree_path):
    """Rewrite a tree JSON in the layout before format 2: no format key and
    each node's embedding as a JSON list, written with indent=1."""
    doc = json.loads(tree_path.read_text())
    rows = node_embeddings(doc)
    del doc["format"], doc["leaves"]
    for rec, row in zip(doc["nodes"], rows):
        rec["embedding"] = row.tolist()
    tree_path.write_text(json.dumps(doc, indent=1))


def edit_leaf_value(doc):
    """Move one leaf value of a format-5 document up by one float32 ulp."""
    rows = np.frombuffer(base64.b64decode(doc["leaves"]), dtype="<f4").copy()
    rows[1] = np.nextafter(rows[1], np.float32(np.inf))
    doc["leaves"] = base64.b64encode(rows.tobytes()).decode()


def ulp_up(key):
    def edit(doc):
        rec = next(r for r in doc["nodes"] if r["children"])
        rec[key] = float(np.nextafter(rec[key], np.inf))
    return edit


class TestTree:
    def test_writes_json_and_reports(self, prompts_file, tmp_path, capsys):
        out = tmp_path / "tree.json"
        assert main(["tree", "--input", prompts_file, "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "N: 4" in text
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 7
        assert doc.keys() == {"format", "nodes", "leaves"}  # no record of how it was built

    def test_rerun_byte_identical(self, prompts_file, tmp_path):
        out = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(out)])
        first = out.read_bytes()
        main(["tree", "--input", prompts_file, "--output", str(out)])
        assert out.read_bytes() == first

    def test_ablation_flag(self, prompts_file, tmp_path, capsys):
        # an ablation tree file could never be read back, so none is written
        out = tmp_path / "tree.json"
        ablation = ["tree", "--input", prompts_file, "--ablation", "random-encodings",
                    "--seed", "1"]
        assert main(ablation + ["--output", str(out)]) == 2
        assert "--output cannot be combined with --ablation" in capsys.readouterr().err
        assert not out.exists()
        assert main(ablation) == 0
        assert "N: 4 (ablation: random encodings)" in capsys.readouterr().out

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert main(["tree", "--input", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, data, where", [
        ("p.jsonl", b'{"id": "a", "embedding": [1, 0]}\n{"id": "\xff"}\n', "p.jsonl:2: not valid UTF-8"),
        ("p.jsonl", b'{"id": "a", "embedding": [1' + b"0" * 400 + b', 0]}\n',
         "p.jsonl:1: bad embedding for id 'a'"),
        ("p.bin", b"SHDF\x01\x00\x04", "p.bin: header holds 7 bytes"),
        ("p.jsonl", b'{"id": "a", "embedding": [1, 0]}\n{"id": {"a": 1}, "embedding": [0, 1]}\n',
         "p.jsonl:2: id {'a': 1} is not a string or an integer"),
        ("p.jsonl", b'{"id": "a", "embedding": [1e39, 1.0]}\n', "p.jsonl:1: bad embedding for id 'a'"),
        ("p.bin", b"SHDF\x01\x00" + (1).to_bytes(8, "little") + (2).to_bytes(4, "little")
         + np.array([1.0, np.inf], dtype="<f4").tobytes(),
         "p.bin: non-finite embedding entries"),
        ("p.jsonl", b'{"id": "a", "embedding": [1, 0]}\n{"id": "b", "embedding": [0, -0.0]}\n',
         "p.jsonl:2: zero-norm embedding for id 'b'"),
        ("p.bin", b"SHDF\x01\x00" + (2).to_bytes(8, "little") + (2).to_bytes(4, "little")
         + np.array([1.0, 0.0, 0.0, -0.0], dtype="<f4").tobytes(),
         "p.bin: zero-norm embedding for id '1'"),
        ("p.bin", b"SHDF\x01\x00" + (0).to_bytes(8, "little") + (2).to_bytes(4, "little"),
         "p.bin: prompt set is empty"),
    ], ids=["not utf-8", "int beyond float64", "short binary header", "id object",
            "beyond float32", "binary not finite", "zero norm", "binary zero norm",
            "binary empty"])
    def test_input_defect_exit_3(self, tmp_path, capsys, name, data, where):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["tree", "--input", str(path)]) == 3
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["p.jsonl", "p.bin"])
    def test_prompt_cap_exit_3(self, tmp_path, capsys, name):
        # A set one record over the cap and one four times over are rejected
        # alike: the JSONL file at its first record past the cap, the SHDF
        # file at its header, before the 8 MiB payload of the larger one.
        path = tmp_path / name
        d = 64 if name == "p.bin" else 1
        for n in (MAX_PROMPTS + 1, 4 * MAX_PROMPTS):
            if name == "p.bin":
                path.write_bytes(b"SHDF\x01\x00" + n.to_bytes(8, "little")
                                 + d.to_bytes(4, "little") + np.ones(n * d, dtype="<f4").tobytes())
                where = f"{name}: prompt set holds {n} prompts, more than {MAX_PROMPTS}"
            else:
                path.write_text("".join('{"id": %d, "embedding": [1]}\n' % i for i in range(n)))
                where = f"{name}:{MAX_PROMPTS + 1}: prompt set holds more than {MAX_PROMPTS}"
            tracemalloc.start()
            try:
                rc = main(["tree", "--input", str(path)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 3
            assert where in capsys.readouterr().err
            assert peak < (2**22 if name == "p.jsonl" else 2**20), n

    def test_unreadable_input_exit_3(self, prompts_file, monkeypatch, capsys):
        def unreadable(path):
            raise PermissionError(13, "Permission denied", path)
        monkeypatch.setattr(cli, "load_prompt_set", unreadable)
        assert main(["tree", "--input", prompts_file]) == 3
        assert f"error: cannot read {prompts_file}: [Errno 13] Permission denied" in \
            capsys.readouterr().err

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

    def test_plan_file_reads_no_per_step_view(self, prompts_file, tmp_path, monkeypatch):
        def per_step_view(plan):
            raise AssertionError("the plan file was written from a per-step view")

        for view in ("steps", "assignment"):
            monkeypatch.setattr(SharePlan, view, property(per_step_view))
        out = tmp_path / "plan.json"
        assert main(["plan", "--input", prompts_file, "--output", str(out),
                     "--k", "10", "--tau", "1.0"]) == 0
        doc = json.loads(out.read_text())
        assert doc["format"] == 2 and len(doc["paths"]) == 4

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

    def test_normalized_tree_cache_used(self, prompts_file, tmp_path, capsys):
        # leaves hold the normalised rows, which the normalised input matches
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--normalize", "--output", str(tree_path)])
        capsys.readouterr()
        plan_args = ["plan", "--input", prompts_file, "--normalize", "--k", "10"]
        assert main(plan_args) == 0
        fresh = capsys.readouterr().out
        assert main(plan_args + ["--tree", str(tree_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out == fresh

    def test_tree_cache_rebuilt_on_mismatch(self, prompts_file, duplicate_prompts_file,
                                            tmp_path, capsys):
        # the same ids a..d with other rows
        plan_args = ["plan", "--input", duplicate_prompts_file, "--k", "10", "--tau", "1.0"]
        assert main(plan_args) == 0
        fresh = capsys.readouterr().out
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        capsys.readouterr()
        assert main(plan_args + ["--tree", str(tree_path)]) == 0
        captured = capsys.readouterr()
        assert f"warning: {tree_path} does not match input or options, rebuilding" in captured.err
        assert captured.out == fresh

    def test_tree_from_older_version_reused(self, prompts_file, tmp_path, capsys):
        # earlier versions also wrote input_sha256 and normalize; the rows decide
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        doc = json.loads(tree_path.read_text())
        doc.update(input_sha256="0" * 64, normalize=True)
        tree_path.write_text(json.dumps(doc))
        args = ["simulate", "--input", prompts_file, "--k", "10", "--tau", "1.0"]
        assert main(args + ["--output", str(tmp_path / "fresh.jsonl")]) == 0
        capsys.readouterr()
        assert main(args + ["--tree", str(tree_path), "--output", str(tmp_path / "old.jsonl")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "old.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()

    def test_ablation_tree_not_reused(self, prompts_file, tmp_path, capsys):
        # a random-encodings tree file written before --output was refused
        # with --ablation: format 2, so it is rebuilt
        plan_args = ["plan", "--input", prompts_file, "--k", "10", "--tau", "1.0"]
        assert main(plan_args) == 0
        fresh = capsys.readouterr().out
        ps = load_prompt_set(prompts_file)
        tree_path = tmp_path / "random.json"
        tree_path.write_text(tree_to_json(build_tree(randomize_encodings(ps, 1))))
        write_format_2(tree_path, ablation=True)
        assert main(plan_args + ["--tree", str(tree_path)]) == 0
        captured = capsys.readouterr()
        assert "rebuilding" in captured.err
        assert captured.out == fresh

    def test_tree_cache_rebuilt_on_normalize_mismatch(self, tmp_path, capsys):
        # rows of norm 2 and 3, which --normalize changes
        ps = PromptSet(("a", "b", "c"), (None,) * 3,
                       np.array([[2, 0, 0], [0, 3, 0], [2, 2, 1]], dtype=np.float32))
        prompts = str(tmp_path / "p.jsonl")
        save_prompt_set(ps, prompts)
        tree_path = tmp_path / "tree.json"
        plan_args = ["plan", "--input", prompts, "--k", "10", "--tau", "1.0"]
        for built, run in (([], ["--normalize"]), (["--normalize"], [])):
            main(["tree", "--input", prompts, "--output", str(tree_path)] + built)
            capsys.readouterr()
            assert main(plan_args + run) == 0
            fresh = capsys.readouterr().out
            assert main(plan_args + run + ["--tree", str(tree_path)]) == 0
            captured = capsys.readouterr()
            assert "rebuilding" in captured.err and captured.out == fresh

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

    def test_format_2_tree_rebuilt(self, prompts_file, tmp_path, capsys):
        plan_args = ["plan", "--input", prompts_file, "--k", "10", "--tau", "1.0"]
        assert main(plan_args) == 0
        fresh = capsys.readouterr().out
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        write_format_2(tree_path)
        capsys.readouterr()
        assert main(plan_args + ["--tree", str(tree_path)]) == 0
        captured = capsys.readouterr()
        assert f"warning: {tree_path} does not match input or options, rebuilding" in captured.err
        assert captured.out == fresh

    def test_tree_leaves_not_input_rebuilt(self, prompts_file, tmp_path, capsys):
        # a valid tree of this input's rows, one of whose leaves names another prompt
        plan_args = ["plan", "--input", prompts_file, "--k", "10", "--tau", "1.0"]
        assert main(plan_args) == 0
        fresh = capsys.readouterr().out
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        doc = json.loads(tree_path.read_text())
        leaf = next(rec for rec in doc["nodes"] if rec.get("members") == ["a"])
        leaf["members"] = ["z"]
        tree_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(plan_args + ["--tree", str(tree_path)]) == 0
        captured = capsys.readouterr()
        assert f"warning: {tree_path} does not match input or options, rebuilding" in captured.err
        assert captured.out == fresh

    def test_tree_leaf_rows_not_input_rebuilt(self, prompts_file, tmp_path, capsys):
        # a valid tree of this input's ids, one row an ulp off
        plan_args = ["plan", "--input", prompts_file, "--k", "10", "--tau", "1.0"]
        assert main(plan_args) == 0
        fresh = capsys.readouterr().out
        ps = load_prompt_set(prompts_file)
        rows = ps.embeddings.copy()
        rows[2, 1] = np.nextafter(rows[2, 1], np.float32(0))
        other = build_tree(PromptSet(ps.ids, ps.prompts, rows))
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(tree_to_json(other))
        assert main(plan_args + ["--tree", str(tree_path)]) == 0
        captured = capsys.readouterr()
        assert f"warning: {tree_path} does not match input or options, rebuilding" in captured.err
        assert captured.out == fresh

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_tree_path_not_a_file_rebuilt(self, prompts_file, tmp_path, capsys, command, kind):
        tree_path = tmp_path / "tree.json"
        if kind == "directory":
            tree_path.mkdir()
        out = tmp_path / "out"
        args = [command, "--input", prompts_file, "--k", "10", "--output", str(out)]
        assert main(args) == 0
        fresh = capsys.readouterr().out, out.read_bytes()
        assert main(args + ["--tree", str(tree_path)]) == 0
        captured = capsys.readouterr()
        assert f"warning: {tree_path} does not match input or options, rebuilding" in captured.err
        assert (captured.out, out.read_bytes()) == fresh

    @pytest.mark.parametrize("text", ["[]", "null", '"x"'])
    def test_tree_json_not_an_object_exit_3(self, prompts_file, tmp_path, capsys, text):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(text)
        assert main(["plan", "--input", prompts_file, "--tree", str(tree_path)]) == 3
        assert f"error: {tree_path}: malformed tree JSON: not an object" in \
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

    @pytest.mark.parametrize("links", [{4: [0, 99]}, {4: [0, 5], 5: [2, 4]}],
                             ids=["child out of range", "child cycle"])
    def test_corrupt_tree_exit_3(self, prompts_file, tmp_path, capsys, links):
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        doc = json.loads(tree_path.read_text())
        assert [n["children"] for n in doc["nodes"][4:]] == [[0, 1], [2, 3], [4, 5]]
        for node, children in links.items():
            doc["nodes"][node]["children"] = children
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

    @pytest.mark.parametrize("existing", [None, b"old samples\n"], ids=["new", "existing"])
    def test_failed_write_leaves_no_file(self, prompts_file, tmp_path, monkeypatch, existing):
        # the third samples line fails, as a full disk would, after two were written
        out = tmp_path / "samples.jsonl"
        if existing is not None:
            out.write_bytes(existing)
        written = []
        real_write = cli.atomic_write

        def atomic_write(path, data):
            if path != str(out):
                return real_write(path, data)

            def lines():  # fail when the third line is taken, however it was encoded
                for line in data:
                    if len(written) == 2:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    written.append(json.loads(line)["id"])
                    yield line
            return real_write(path, lines())

        monkeypatch.setattr(cli, "atomic_write", atomic_write)
        assert main(["simulate", "--input", prompts_file, "--output", str(out),
                     "--metrics", str(tmp_path / "m.json"), "--k", "10"]) == 3
        assert written == ["a", "b"]
        left = {"prompts.jsonl"} | ({"samples.jsonl"} if existing is not None else set())
        assert {p.name for p in tmp_path.iterdir()} == left
        if existing is not None:
            assert out.read_bytes() == existing

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

    def test_sample_beyond_float32_exit_3(self, tmp_path, capsys):
        # finite float32 inputs whose samples overflow float32, which strict
        # JSON cannot hold as Infinity
        prompts = tmp_path / "big.jsonl"
        prompts.write_text("".join('{"id": "p%d", "embedding": [3e38, 3e38, 3e38, 3e38]}\n' % i
                                   for i in range(4)))
        world = tmp_path / "world.json"
        world.write_text('{"data_dimension": 2, "target_std": 0.5, "condition_map": {"seed": 1}, '
                         '"schedule": {"K": 10, "curve": "cosine", "variant": "deterministic"}, '
                         '"master_seed": 0}')
        out = tmp_path / "samples.jsonl"
        assert main(["simulate", "--input", str(prompts), "--world", str(world),
                     "--output", str(out)]) == 3
        assert "error: sample of prompt 'p0' is not finite in float32" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.jsonl", "world.json"]

    def test_sample_not_finite_in_later_block_exit_3(self, tmp_path, capsys):
        # 4,097 values a row, so each row is a text block of its own and the
        # overflowing sample is the second block
        m = TEXT_BLOCK_VALUES // 2 + 1
        prompts = tmp_path / "p.jsonl"
        prompts.write_text('{"id": "small", "embedding": [1, 0, 0, 0]}\n'
                           '{"id": "big", "embedding": [3e38, 3e38, 3e38, 3e38]}\n')
        world = tmp_path / "world.json"
        world.write_text('{"data_dimension": %d, "target_std": 0.5, "condition_map": {"seed": 1}, '
                         '"schedule": {"K": 10, "curve": "cosine", "variant": "deterministic"}, '
                         '"master_seed": 0}' % m)
        out = tmp_path / "samples.jsonl"
        assert main(["simulate", "--input", str(prompts), "--world", str(world),
                     "--output", str(out)]) == 3
        assert "error: sample of prompt 'big' is not finite in float32" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.jsonl", "world.json"]

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

    def test_one_ulp_leaf_edit_rebuilt(self, prompts_file, tmp_path, capsys):
        # the edited file is a valid tree of other rows
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        doc = json.loads(tree_path.read_text())
        edit_leaf_value(doc)
        tree_path.write_text(json.dumps(doc))
        args = ["simulate", "--input", prompts_file, "--k", "10"]
        assert main(args + ["--output", str(tmp_path / "fresh.jsonl")]) == 0
        capsys.readouterr()
        assert main(args + ["--tree", str(tree_path), "--output", str(tmp_path / "old.jsonl")]) == 0
        assert f"warning: {tree_path} does not match input or options, rebuilding" in \
            capsys.readouterr().err
        assert (tmp_path / "old.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()

    @pytest.mark.parametrize("edit", [ulp_up("raw_score")], ids=["raw_score"])
    def test_one_ulp_tree_edit_exit_3(self, prompts_file, tmp_path, capsys, edit):
        tree_path = tmp_path / "tree.json"
        main(["tree", "--input", prompts_file, "--output", str(tree_path)])
        doc = json.loads(tree_path.read_text())
        edit(doc)
        tree_path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "samples.jsonl"
        assert main(["simulate", "--input", prompts_file, "--tree", str(tree_path),
                     "--k", "10", "--output", str(out)]) == 3
        assert f"error: {tree_path}: " in capsys.readouterr().err
        assert not out.exists()

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
        # the plan digest is of the format-1 file, rebuilt from the format-2 one
        plan_text = expand_plan_json(plan.read_text()).encode()
        assert [hashlib.sha256(b).hexdigest()
                for b in (plan_text, out.read_bytes(), met.read_bytes())] == [
            "5634d2bd432798f1d320077a7bfda26a241555a238cf21298c6e3d1f6523b81e",
            "9f20984bef3e95717e1ad0ffa71846164d9ca3e4c163b74bb98c0f69e3f8662a",
            "0a3970d7022957824dc7796b8acebc5e0c05885fe8d9ea0be5648244e8cebd36",
        ]
        assert hashlib.sha256(plan.read_bytes()).hexdigest() == \
            "da071868a2ebd6a040756d643c69434f5e2f1fcdbde1839ecb633651695d2866"  # format 2


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
@pytest.mark.parametrize("k", [MAX_K + 1, 2**31, 2**63])
def test_k_above_bound_exit_2(prompts_file, tmp_path, capsys, command, k):
    # Only rejected values are tried: an accepted K at the bound would
    # allocate K-long arrays.
    argv = [command, "--input", prompts_file, "--k", str(k), "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--sweep", "1"]
    assert main(argv) == 2
    assert f"K must be in 1..{MAX_K}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_overflowing_target_std_exit_2(prompts_file, tmp_path, capsys, command):
    # 1e200 is finite, but its square, which every step uses, is not
    argv = [command, "--input", prompts_file, "--k", "10", "--target-std", "1e200",
            "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--sweep", "1"]
    assert main(argv) == 2
    assert "target_std must be >= 0 with a finite square" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestOutputsOverwriteInputs:
    """An output path that names an input, or the other output, is a usage
    error before anything is read or written, however the path is spelled."""

    CASES = [
        ("tree", "--output", "input"),
        ("plan", "--output", "input"),
        ("plan", "--output", "tree"),
        ("simulate", "--output", "input"),
        ("simulate", "--output", "tree"),
        ("simulate", "--output", "world"),
        ("simulate", "--metrics", "input"),
        ("simulate", "--metrics", "tree"),
        ("simulate", "--metrics", "world"),
        ("simulate", "--metrics", "samples"),
        ("sweep", "--output", "input"),
        ("sweep", "--output", "world"),
    ]

    @pytest.mark.parametrize("via_link", [False, True], ids=["same path", "directory link"])
    @pytest.mark.parametrize("command, option, target", CASES,
                             ids=[" ".join(case) for case in CASES])
    def test_exit_2_inputs_unchanged(self, prompts_file, tmp_path, capsys,
                                     command, option, target, via_link):
        files = {"input": Path(prompts_file), "tree": tmp_path / "tree.json",
                 "world": tmp_path / "world.json", "samples": tmp_path / "samples.jsonl"}
        assert main(["tree", "--input", prompts_file, "--output", str(files["tree"])]) == 0
        files["world"].write_text(WORLD_TEXT)
        before = {name: files[name].read_bytes() for name in ("input", "tree", "world")}
        path = files[target]
        if via_link:  # the same file, reached through a linked directory
            (tmp_path / "alias").symlink_to(tmp_path, target_is_directory=True)
            path = tmp_path / "alias" / path.name
        argv = [command, "--input", prompts_file]
        if target in ("tree", "world"):
            argv += [f"--{target}", str(files[target])]
        if option == "--metrics":
            argv += ["--output", str(files["samples"])]
        argv += [option, str(path)] + (["--sweep", "1"] if command == "sweep" else [])
        capsys.readouterr()
        assert main(argv) == 2
        assert "is the same file as" in capsys.readouterr().err
        assert {name: files[name].read_bytes() for name in before} == before
        assert not files["samples"].exists()


class TestSynth:
    @pytest.mark.parametrize("jitter", ["nan", "inf", "-1"])
    def test_bad_jitter_exit_2(self, tmp_path, capsys, jitter):
        out = tmp_path / "synth.jsonl"
        assert main(["synth", "--clusters", "2", "--per-cluster", "2", "--dim", "4",
                     "--jitter", jitter, "--output", str(out)]) == 2
        assert "jitter must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("per_cluster, dim", [
        (MAX_PROMPTS, 1), (2**6, MAX_SYNTH_ENTRIES // 2**6)], ids=["records", "entries"])
    def test_size_cap_accepted(self, tmp_path, capsys, per_cluster, dim):
        out = tmp_path / "synth.bin"
        assert main(["synth", "--clusters", "1", "--per-cluster", str(per_cluster),
                     "--dim", str(dim), "--jitter", "0", "--output", str(out)]) == 0
        assert f"wrote {per_cluster} embeddings (d={dim})" in capsys.readouterr().out

    @pytest.mark.parametrize("clusters, per_cluster, dim", [
        (1, MAX_PROMPTS + 1, 1), (2, MAX_PROMPTS // 2 + 1, 1),
        (1, 1, MAX_SYNTH_ENTRIES + 1), (2**6, 1, MAX_SYNTH_ENTRIES // 2**6 + 1),
        (1, 1, 2 * 10**12),
    ], ids=["records", "records-2-clusters", "entries", "entries-64-clusters", "dim-2e12"])
    def test_size_above_cap_exit_2(self, tmp_path, capsys, clusters, per_cluster, dim):
        out = tmp_path / "synth.bin"
        tracemalloc.start()
        try:
            rc = main(["synth", "--clusters", str(clusters), "--per-cluster", str(per_cluster),
                       "--dim", str(dim), "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "a synthetic set holds at most" in capsys.readouterr().err
        assert peak < 2**20  # rejected before any record is made
        assert not out.exists()

    @pytest.mark.parametrize("name, jitter, digest", [
        ("synth.jsonl", "0", "c6525bd65e96d1f34170216a4008bcdd02bcfecee2ff29be8efad2ea0350340e"),
        ("synth.jsonl", "0.1", "19d7ae0ecedf4e23de5bbb275e647e818fe7f651e66ca69834361afb339afc77"),
        ("synth.bin", "0", "85336a1653401af0c90482f3b95f4092f4d89354a0654c2c6cad55a09a50d9ee"),
        ("synth.bin", "0.1", "c223ea3624adbc304aaac252b19d5dd2df8d7889309a4161a9fab308c679608c"),
    ], ids=["jsonl-jitter-0", "jsonl-jitter-0.1", "bin-jitter-0", "bin-jitter-0.1"])
    def test_output_pinned(self, tmp_path, name, jitter, digest):
        # 4,101 records, so the record draws span more than one key chunk
        out = tmp_path / name
        assert main(["synth", "--clusters", "3", "--per-cluster", "1367", "--dim", "8",
                     "--jitter", jitter, "--seed", "21", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_jsonl_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "synth.jsonl"
        rc = main(["synth", "--clusters", "3", "--per-cluster", "4",
                   "--dim", "8", "--jitter", "0.1", "--seed", "5",
                   "--output", str(out)])
        assert rc == 0
        assert "wrote 12 embeddings (d=8)" in capsys.readouterr().out
        assert main(["tree", "--input", str(out)]) == 0

    @pytest.mark.parametrize("name, via", [
        ("synth.jsonl", "cli"), ("synth.bin", "cli"),
        ("synth.jsonl", "save_prompt_set"), ("synth.bin", "save_prompt_set"),
    ], ids=["synth.jsonl", "synth.bin", "synth.jsonl-save_prompt_set", "synth.bin-save_prompt_set"])
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch, name, via):
        # the write fails, as a full disk would, after part of the set went out
        out = tmp_path / name
        out.write_bytes(b"old set\n")
        fdopen = os.fdopen

        class Failing:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def writelines(self, chunks):
                self.f.write(next(iter(chunks))[:5])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: Failing(fdopen(fd, mode)))
        if via == "cli":
            assert main(["synth", "--clusters", "2", "--per-cluster", "3", "--dim", "4",
                         "--output", str(out)]) == 3
        else:
            fmt = "binary" if name.endswith(".bin") else "jsonl"
            with pytest.raises(OSError):
                save_prompt_set(generate_synthetic(2, 3, 4, 0.05, 0), str(out), fmt)
        assert out.read_bytes() == b"old set\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_binary_output(self, tmp_path):
        out = tmp_path / "synth.bin"
        main(["synth", "--clusters", "2", "--per-cluster", "2",
              "--dim", "4", "--output", str(out)])
        assert out.read_bytes()[:4] == b"SHDF"
        assert main(["tree", "--input", str(out)]) == 0

    def test_world_json_roundtrip_through_simulate(self, prompts_file, tmp_path):
        world_path = tmp_path / "world.json"
        world_path.write_text(WORLD_TEXT)
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
    "data_dimension above MAX_DATA_DIMENSION":
        lambda doc: {**doc, "data_dimension": MAX_DATA_DIMENSION + 1, "condition_map": {"seed": 3}},
    "schedule.K a list": _world_set("schedule", "K", [5]),
    "schedule.K 2**31": _world_set("schedule", "K", 2**31),
    "schedule.K above MAX_K": _world_set("schedule", "K", MAX_K + 1),
    "schedule variant unknown": _world_set("schedule", "variant", "euler"),
    "condition_map a list": _world_set("condition_map", [1, 2]),
    "condition_map seed missing": _world_set("condition_map", {}),
    "target_std nan": _world_set("target_std", float("nan")),
    "target_std inf": _world_set("target_std", float("inf")),
    "target_std negative": _world_set("target_std", -0.5),
    "target_std 1e200": _world_set("target_std", 1e200),
    "master_seed a string": _world_set("master_seed", "4"),
    "not an object": lambda doc: [doc],
}


class TestWorldFile:
    @pytest.mark.parametrize("defect", sorted(WORLD_DEFECTS))
    def test_defect_exit_3(self, prompts_file, tmp_path, capsys, defect):
        doc = json.loads(WORLD_TEXT)
        world_path = tmp_path / "world.json"
        world_path.write_text(json.dumps(WORLD_DEFECTS[defect](doc)))
        out = tmp_path / "samples.jsonl"
        rc = main(["simulate", "--input", prompts_file, "--world", str(world_path),
                   "--output", str(out), "--tau", "1.0"])
        assert rc == 3
        assert "error: malformed world JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_square_seeded_map_is_not_identity(self, tmp_path):
        path = tmp_path / "p.jsonl"
        save_prompt_set(generate_synthetic(2, 2, 4, 0.1, seed=5), str(path))
        samples = []
        for cmap in ("identity", {"seed": 7}):
            world_path = tmp_path / "world.json"
            world_path.write_text(json.dumps({**json.loads(WORLD_TEXT), "data_dimension": 4,
                                              "condition_map": cmap}))
            out = tmp_path / "samples.jsonl"
            assert main(["simulate", "--input", str(path), "--world", str(world_path),
                         "--output", str(out)]) == 0
            samples.append([json.loads(line)["sample"] for line in out.read_text().splitlines()])
        identity, seeded = samples
        assert identity != seeded

    def test_data_dimension_cap_accepted(self, prompts_file, tmp_path):
        doc = json.loads(WORLD_TEXT)
        world_path = tmp_path / "world.json"
        world_path.write_text(json.dumps(
            {**doc, "data_dimension": MAX_DATA_DIMENSION, "condition_map": {"seed": 3}}))
        out = tmp_path / "samples.jsonl"
        assert main(["simulate", "--input", prompts_file, "--world", str(world_path),
                     "--output", str(out)]) == 0
        assert len(json.loads(out.read_text().splitlines()[0])["sample"]) == MAX_DATA_DIMENSION

    def test_flags_override_file(self, prompts_file, tmp_path, monkeypatch):
        # each flag given replaces the file's value, as if the file held it
        def run(std, *flags):
            world_path = tmp_path / f"world-{std}.json"
            world_path.write_text(json.dumps({**json.loads(WORLD_TEXT), "target_std": std}))
            out = tmp_path / "samples.jsonl"
            assert main(["simulate", "--input", prompts_file, "--world", str(world_path),
                         "--output", str(out), "--variant", "ancestral", *flags]) == 0
            return out.read_bytes()

        assert run(0.5, "--target-std", "3.0") == run(3.0) != run(0.5)
        assert run(3.0, "--target-std", "0.5") == run(0.5)
        calls = []
        real = diffusion.make_schedule
        monkeypatch.setattr(diffusion, "make_schedule", lambda *a: calls.append(a) or real(*a))
        samples = run(0.5, "--k", "10")
        assert calls == [(10, ANCESTRAL, "cosine")]  # the file's K=12 is never built
        assert len(json.loads(samples.splitlines()[0])["trace"]) == 10

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


@st.composite
def cache_cases(draw):
    """A set of up to 6 rows drawn from at most 3 centres, so rows repeat,
    and the set a cached tree was built from: the same set, a permuted copy,
    a copy with prompt text or a copy with one row an ulp off.  Each side
    may run with --normalize; no row is zero, which it cannot scale."""
    d = draw(st.integers(1, 4), label="d")
    element = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 3.0])
    centres = draw(st.lists(st.lists(element, min_size=d, max_size=d).filter(any),
                            min_size=1, max_size=3), label="centres")
    picks = draw(st.lists(st.integers(0, len(centres) - 1), min_size=1, max_size=6),
                 label="picks")
    n = len(picks)
    ps = PromptSet(tuple(f"p{i}" for i in range(n)), (None,) * n,
                   np.array([centres[i] for i in picks], dtype=np.float32))
    source = draw(st.sampled_from(["same", "permuted", "text", "nudged"]), label="source")
    rows = ps.embeddings.copy()
    if source == "permuted":
        order = list(draw(st.permutations(range(n)), label="order"))
        cached = PromptSet(tuple(ps.ids[i] for i in order), ps.prompts, rows[order])
    elif source == "text":
        cached = PromptSet(ps.ids, tuple(f"prompt {i}" for i in range(n)), rows)
    elif source == "nudged":
        rows[-1, 0] = np.nextafter(rows[-1, 0], np.float32(np.inf))
        cached = PromptSet(ps.ids, ps.prompts, rows)
    else:
        cached = ps
    normalize = draw(st.tuples(st.booleans(), st.booleans()), label="normalize (tree, run)")
    return ps, cached, normalize


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cache")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=cache_cases(), tau=st.sampled_from(["0.5", "1.5"]))
def test_cached_tree_writes_fresh_bytes(cache_dir, case, tau):
    """simulate --tree writes the bytes of a fresh simulate, and warns
    exactly when the tree's leaf ids, their order or a leaf row (after
    --normalize on each side) differ from the run's."""
    ps, cached, (tree_norm, run_norm) = case
    paths = {name: str(cache_dir / name)
             for name in ("p.jsonl", "c.jsonl", "t.json", "fresh.jsonl", "hit.jsonl")}
    save_prompt_set(ps, paths["p.jsonl"])
    save_prompt_set(cached, paths["c.jsonl"])
    normalize = {True: ["--normalize"], False: []}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["tree", "--input", paths["c.jsonl"], "--output", paths["t.json"]]
                    + normalize[tree_norm]) == 0
        run = ["simulate", "--input", paths["p.jsonl"], "--k", "6", "--tau", tau,
               "--metrics", str(cache_dir / "m.json")] + normalize[run_norm]
        assert main(run + ["--output", paths["fresh.jsonl"]]) == 0
        assert main(run + ["--tree", paths["t.json"], "--output", paths["hit.jsonl"]]) == 0
    tree_rows = (cached.normalized() if tree_norm else cached).embeddings
    run_rows = (ps.normalized() if run_norm else ps).embeddings
    differ = cached.ids != ps.ids or tree_rows.tobytes() != run_rows.tobytes()
    assert ("rebuilding" in err.getvalue()) == differ
    assert Path(paths["hit.jsonl"]).read_bytes() == Path(paths["fresh.jsonl"]).read_bytes()
