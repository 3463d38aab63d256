"""Corrupted prompt sets, tree and world files: the CLI exits 0, 2 or 3 and
never raises.

Each example takes a valid file, corrupts it one way and runs a subcommand on
it.  Every file may be truncated or have one byte flipped.  A tree or world
file may also lose a key or have a value replaced by one of another type; a
prompt set may get a wrong dimension or a NaN, and a JSONL set a duplicate id.
A stale or mismatching tree is rebuilt (exit 0); a malformed file is a data
error (exit 3).  Replacement integers stay below 1000 or at the extremes: a
world may ask for a data dimension up to 2**31 - 1 and a K up to 100,000, and
mid-sized ones cost real memory and time rather than exposing a check.
"""

import json
import struct
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shdiff.cli import main
from shdiff.diffusion import ANCESTRAL, ToyWorld, make_schedule, world_to_json
from shdiff.embeddings import PromptSet, save_prompt_set

FUZZ = settings(max_examples=150, deadline=timedelta(seconds=2), derandomize=True,
                database=None)

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 1000),
    st.sampled_from([2**31, 2**63, -(2**63), 10**30]),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 20), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 20), max_size=2),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    emb = np.array([[1.0, 0.0, 0.0], [0.96, 0.28, 0.0], [0.0, 1.0, 0.0], [0.0, 0.96, 0.28]],
                   dtype=np.float32)
    prompts = str(d / "prompts.jsonl")
    binary = d / "prompts.bin"
    ps = PromptSet(("a", "b", "c", "d"), (None,) * 4, emb)
    save_prompt_set(ps, prompts)
    save_prompt_set(ps, str(binary), "binary")
    tree = d / "tree.json"
    assert main(["tree", "--input", prompts, "--output", str(tree)]) == 0
    world = world_to_json(ToyWorld.create(3, 3, 0.5), make_schedule(6, ANCESTRAL), 1)
    return {"dir": d, "prompts": prompts, "tree": tree.read_bytes(), "world": world.encode(),
            "jsonl": (d / "prompts.jsonl").read_bytes(), "binary": binary.read_bytes()}


def _paths(value, prefix=()):
    """Every (key or index) path to a value inside a JSON document."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def corrupt_bytes(data, text: bytes, kind: str) -> bytes:
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1), label="length")]
    i = data.draw(st.integers(0, len(text) - 1), label="offset")
    return text[:i] + bytes([text[i] ^ data.draw(st.integers(1, 255), label="mask")]) + text[i + 1:]


def corrupt(data, text: bytes) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "flip", "delete", "swap"]), label="kind")
    if kind in ("truncate", "flip"):
        return corrupt_bytes(data, text, kind)
    doc = json.loads(text)
    paths = [p for p in _paths(doc) if kind == "swap" or isinstance(p[-1], str)]
    *path, key = data.draw(st.sampled_from(paths), label="path")
    node = doc
    for step in path:
        node = node[step]
    if kind == "delete":
        del node[key]
    else:
        node[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(node[key])),
                              label="value")
    return json.dumps(doc).encode()


def corrupt_jsonl(data, text: bytes) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "flip", "dimension", "nan", "duplicate"]),
                     label="kind")
    if kind in ("truncate", "flip"):
        return corrupt_bytes(data, text, kind)
    records = [json.loads(line) for line in text.splitlines()]
    rec = data.draw(st.sampled_from(records), label="record")
    vec = rec["embedding"]
    if kind == "dimension":
        if data.draw(st.booleans(), label="longer"):
            vec.append(0.5)
        else:
            vec.pop()
    elif kind == "nan":
        vec[data.draw(st.integers(0, len(vec) - 1), label="element")] = float("nan")
    else:
        rec["id"] = data.draw(st.sampled_from([r["id"] for r in records if r is not rec]),
                              label="id")
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def corrupt_binary(data, text: bytes) -> bytes:
    # 18-byte header: magic, version u16, count u64, dimension u32; then float32 rows
    kind = data.draw(st.sampled_from(["truncate", "flip", "dimension", "nan"]), label="kind")
    if kind in ("truncate", "flip"):
        return corrupt_bytes(data, text, kind)
    if kind == "dimension":
        d = data.draw(st.sampled_from([0, 1, 2, 4, 6, 12, 2**32 - 1]), label="dimension")
        return text[:14] + struct.pack("<I", d) + text[18:]
    i = 18 + 4 * data.draw(st.integers(0, (len(text) - 18) // 4 - 1), label="element")
    return text[:i] + struct.pack("<f", float("nan")) + text[i + 4:]


@FUZZ
@given(data=st.data(), fmt=st.sampled_from(["jsonl", "binary"]),
       command=st.sampled_from(["tree", "plan"]))
def test_corrupt_prompt_set(files, data, fmt, command):
    path = files["dir"] / f"corrupt.{fmt}"
    corrupt_set = corrupt_jsonl if fmt == "jsonl" else corrupt_binary
    path.write_bytes(corrupt_set(data, files[fmt]))
    argv = [command, "--input", str(path)] + (["--k", "6"] if command == "plan" else [])
    assert main(argv) in (0, 2, 3)


@FUZZ
@given(data=st.data(), command=st.sampled_from(["plan", "simulate"]))
def test_corrupt_tree(files, data, command):
    path = files["dir"] / "corrupt.tree.json"
    path.write_bytes(corrupt(data, files["tree"]))
    argv = [command, "--input", files["prompts"], "--tree", str(path), "--k", "6"]
    if command == "simulate":
        argv += ["--output", str(files["dir"] / "samples.jsonl")]
    assert main(argv) in (0, 2, 3)


@FUZZ
@given(data=st.data(), command=st.sampled_from(["simulate", "sweep"]))
def test_corrupt_world(files, data, command):
    path = files["dir"] / "corrupt.world.json"
    path.write_bytes(corrupt(data, files["world"]))
    argv = [command, "--input", files["prompts"], "--world", str(path)]
    argv += ["--output", str(files["dir"] / "out")]
    if command == "sweep":
        argv += ["--sweep", "0,1"]
    assert main(argv) in (0, 2, 3)
