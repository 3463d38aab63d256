import json

import numpy as np
import pytest

from shdiff.tree import _finalize


def manual_tree(leaf_ids, children, scores, means):
    """A tree whose node N+i (N leaves) merges children[i] at score scores[i];
    ``means`` holds every node's row."""
    return _finalize(leaf_ids, children, scores, np.asarray(means, dtype=np.float64))


@pytest.fixture
def pair_tree():
    """Two leaves under a root with score 0.49 (shares exactly K/2 steps at tau=1)."""
    return manual_tree(["a", "b"], [(0, 1)], [0.49], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])


@pytest.fixture
def chain_tree():
    """Three leaves; scores 0.8 at the root and 0.3 at the inner node."""
    return manual_tree(
        ["a", "b", "c"], [(1, 2), (0, 3)], [0.3, 0.8],
        [[1.0, 0.0], [0.0, 1.0], [0.1, 0.9], [0.05, 0.95], [0.36666, 0.63333]],
    )


def expand_plan_json(text):
    """The plan JSON that format 2 replaced, rebuilt from a format-2 document:
    per prompt its node at every step, and per step the active nodes and the
    state each one starts from."""
    doc = json.loads(text)
    assert doc["format"] == 2
    spans = {n: (start, stop, source) for n, start, stop, source in doc["spans"]}
    inherit = [{} for _ in range(doc["K"])]
    for n, (start, stop, source) in spans.items():
        for k in range(start, stop):
            inherit[k - 1][n] = source if k == start else n
    return json.dumps({
        "K": doc["K"],
        "tau": doc["tau"],
        "phi_variant": doc["phi_variant"],
        "assignment": [{"id": rec["id"], "nodes": [n for n in rec["nodes"]
                                                   for _ in range(*spans[n][:2])]}
                       for rec in doc["paths"]],
        "steps": [{"k": k, "active": sorted(d),
                   "inherit": {str(n): src for n, src in sorted(d.items())}}
                  for k, d in enumerate(inherit, 1)],
        "total_evaluations": doc["total_evaluations"],
        "baseline_evaluations": doc["baseline_evaluations"],
        "savings_fraction": doc["savings_fraction"],
    }, indent=1)
