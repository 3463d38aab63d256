"""Corrupted tree and world files: the CLI exits 0, 2 or 3 and never raises.

Each example takes a valid file, corrupts it one way (truncate it, flip one
byte, delete a key, or replace a value with one of another type) and runs a
subcommand on it.  A stale or mismatching tree is rebuilt (exit 0); a
malformed file is a data error (exit 3).  Replacement integers stay below
1000 or at the extremes: a world may ask for any size up to 2**31 - 1, and
mid-sized ones cost real memory and time rather than exposing a check.
"""

import json
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
    save_prompt_set(PromptSet(("a", "b", "c", "d"), (None,) * 4, emb), prompts)
    tree = d / "tree.json"
    assert main(["tree", "--input", prompts, "--output", str(tree)]) == 0
    world = world_to_json(ToyWorld.create(3, 3, 0.5), make_schedule(6, ANCESTRAL), 1)
    return {"dir": d, "prompts": prompts, "tree": tree.read_bytes(), "world": world.encode()}


def _paths(value, prefix=()):
    """Every (key or index) path to a value inside a JSON document."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def corrupt(data, text: bytes) -> bytes:
    kind = data.draw(st.sampled_from(["truncate", "flip", "delete", "swap"]), label="kind")
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1), label="length")]
    if kind == "flip":
        i = data.draw(st.integers(0, len(text) - 1), label="offset")
        return text[:i] + bytes([text[i] ^ data.draw(st.integers(1, 255), label="mask")]) + \
            text[i + 1:]
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
