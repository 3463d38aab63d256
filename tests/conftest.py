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
