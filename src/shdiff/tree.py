"""Agglomerative embedding tree with heterogeneity scores.

Clusters are merged greedily by cosine distance between cluster mean
embeddings (centroid linkage).  ``build_tree`` keeps one matrix of distances
between live clusters and updates one row per merge;
``reference_build_tree`` recomputes every cluster mean and pair distance
each round and serves as the brute-force oracle.  Both take means from
``embeddings.mean_embedding`` over member rows in sorted-id order and
distances from the one cosine kernel in ``embeddings``; the tests require
their trees to be ``structurally_equal``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .embeddings import PromptSet, cosine_distance, mean_embedding, unit_distances, unit_rows
from .errors import DataError, UsageError
from .rng import TAG_RANDENC, stream

REFERENCE_MAX_N = 64


@dataclass
class TreeNode:
    node_id: int
    parent: int | None
    children: tuple[int, int] | None
    members: frozenset[str]
    embedding: np.ndarray = field(repr=False)  # float64 mean of member leaves
    raw_score: float
    score: float

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass
class EmbeddingTree:
    nodes: list[TreeNode]  # indexed by node_id; leaves first, merges after
    root: int
    leaf_of: dict[str, int]
    c_max: float
    inversion_count: int

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        best = 0
        for leaf in self.leaf_of.values():
            best = max(best, len(path_to_root_ids(self, leaf)) - 1)
        return best


def path_to_root_ids(tree: EmbeddingTree, node_id: int) -> list[int]:
    path = [node_id]
    while tree.nodes[path[-1]].parent is not None:
        path.append(tree.nodes[path[-1]].parent)
    return path


def path_to_root(tree: EmbeddingTree, prompt_id: str) -> list[int]:
    """Node ids from the prompt's leaf up to the root (leaf first)."""
    if prompt_id not in tree.leaf_of:
        raise UsageError(f"unknown prompt id {prompt_id!r}")
    return path_to_root_ids(tree, tree.leaf_of[prompt_id])


def _cluster_mean(prompts: PromptSet, members: list[int]) -> np.ndarray:
    """Mean of the member rows taken in sorted-id order.

    One summation order everywhere keeps every builder's means, and so their
    merge decisions, bitwise identical.
    """
    return mean_embedding(prompts.embeddings[sorted(members, key=prompts.ids.__getitem__)])


def _tie_key(min_a: str, min_b: str) -> tuple[str, str]:
    # Deterministic order for equal distances: lexicographically smallest
    # (min member id, max member id) over the two clusters' representatives.
    return (min(min_a, min_b), max(min_a, min_b))


def _finalize(
    prompts: PromptSet,
    merges: list[tuple[int, int, float, np.ndarray]],
) -> EmbeddingTree:
    """Assemble nodes from leaf order plus a merge sequence, then clamp scores.

    Each merge is (child a, child b, distance, mean embedding of the union).
    """
    nodes: list[TreeNode] = []
    for i, pid in enumerate(prompts.ids):
        nodes.append(
            TreeNode(
                node_id=i,
                parent=None,
                children=None,
                members=frozenset([pid]),
                embedding=prompts.embeddings[i].astype(np.float64),
                raw_score=0.0,
                score=0.0,
            )
        )
    for a, b, dist, emb in merges:
        nid = len(nodes)
        nodes.append(
            TreeNode(
                node_id=nid,
                parent=None,
                children=(a, b),
                members=nodes[a].members | nodes[b].members,
                embedding=emb,
                raw_score=dist,
                score=dist,
            )
        )
        nodes[a].parent = nid
        nodes[b].parent = nid
    root = len(nodes) - 1
    # Centroid linkage admits score inversions; clamp top-down so that
    # heterogeneity is monotone non-increasing toward the leaves, and count
    # how many nodes the clamp actually changed.
    inversions = 0
    order = [root]
    while order:
        nid = order.pop()
        node = nodes[nid]
        if node.parent is not None and node.raw_score > nodes[node.parent].score:
            node.score = nodes[node.parent].score
            if not node.is_leaf:
                inversions += 1
        if node.children is not None:
            order.extend(node.children)
    leaf_of = {pid: i for i, pid in enumerate(prompts.ids)}
    return EmbeddingTree(
        nodes=nodes,
        root=root,
        leaf_of=leaf_of,
        c_max=nodes[root].score,
        inversion_count=inversions,
    )


def build_tree(prompts: PromptSet) -> EmbeddingTree:
    """Agglomerative clustering over cosine distance of cluster means.

    Holds one N x N float64 matrix of distances between live clusters, so
    memory is O(N^2).  Each of the N - 1 merges computes the new cluster's
    mean and one O(N d) row of distances, then scans the whole matrix for
    the next pair: O(N^3) time in numpy scans plus O(N^2 d) arithmetic.
    Children are listed with the cluster holding the smaller id first.
    """
    n = len(prompts)
    # Slot s holds the cluster whose smallest member id is the s-th smallest
    # id, and a merge keeps the lower slot.  The first minimum of the
    # symmetric matrix in row-major order is then the pair with the smallest
    # (min member id, max member id) among those at the minimal distance.
    order = sorted(range(n), key=prompts.ids.__getitem__)
    node_of = list(order)
    members = [[i] for i in order]
    units = unit_rows(prompts.embeddings[order])
    dist = np.empty((n, n))
    for s in range(n):
        dist[s] = unit_distances(units[s], units)
    np.fill_diagonal(dist, np.inf)
    live = np.ones(n, dtype=bool)
    merges: list[tuple[int, int, float, np.ndarray]] = []
    for nid in range(n, 2 * n - 1):
        i, j = divmod(int(np.argmin(dist)), n)
        members[i] += members[j]
        mean = _cluster_mean(prompts, members[i])
        merges.append((node_of[i], node_of[j], float(dist[i, j]), mean))
        node_of[i] = nid
        live[j] = False
        dist[j, :] = dist[:, j] = np.inf
        if nid < 2 * n - 2:  # the root is never compared, so its mean may be zero
            units[i] = unit_rows(mean[None])[0]
            row = np.where(live, unit_distances(units[i], units), np.inf)
            row[i] = np.inf
            dist[i, :] = dist[:, i] = row
    return _finalize(prompts, merges)


def reference_build_tree(prompts: PromptSet) -> EmbeddingTree:
    """Brute-force oracle: full distance matrix recomputed every round."""
    n = len(prompts)
    if n > REFERENCE_MAX_N:
        raise UsageError(f"reference_build_tree is capped at N={REFERENCE_MAX_N}")
    member_idx = {i: [i] for i in range(n)}
    minid = {i: prompts.ids[i] for i in range(n)}
    alive = list(range(n))
    merges: list[tuple[int, int, float]] = []
    next_id = n
    while len(alive) > 1:
        best = None
        for x in range(len(alive)):
            for y in range(x + 1, len(alive)):
                a, b = alive[x], alive[y]
                ma = _cluster_mean(prompts, member_idx[a])
                mb = _cluster_mean(prompts, member_idx[b])
                d = cosine_distance(ma, mb)
                cand = (d, _tie_key(minid[a], minid[b]), a, b)
                if best is None or cand < best:
                    best = cand
        d, _, a, b = best
        member_idx[next_id] = member_idx[a] + member_idx[b]
        merges.append((a, b, d, _cluster_mean(prompts, member_idx[next_id])))
        minid[next_id] = min(minid[a], minid[b])
        alive = [c for c in alive if c not in (a, b)] + [next_id]
        next_id += 1
    return _finalize(prompts, merges)


def structurally_equal(t1: EmbeddingTree, t2: EmbeddingTree, score_tol: float = 1e-9) -> bool:
    """True if the trees agree up to node renumbering."""
    if len(t1) != len(t2) or t1.leaf_of.keys() != t2.leaf_of.keys():
        return False
    s1 = {n.members: n.score for n in t1.nodes}
    s2 = {n.members: n.score for n in t2.nodes}
    if s1.keys() != s2.keys():
        return False
    return all(abs(s1[m] - s2[m]) <= score_tol for m in s1)


def randomize_encodings(prompts: PromptSet, seed: int) -> PromptSet:
    """Same ids, embeddings replaced by independent random unit vectors.

    Used to build the random-clustering ablation tree; leaf generation keeps
    using the true embeddings via shared membership.
    """
    d = prompts.dimension
    rows = np.empty((len(prompts), d), dtype=np.float64)
    for i in range(len(prompts)):
        v = stream(seed, TAG_RANDENC, i).standard_normal(d)
        rows[i] = v / np.linalg.norm(v)
    return PromptSet(prompts.ids, prompts.prompts, rows.astype(np.float32))


def reembed(tree: EmbeddingTree, prompts: PromptSet) -> EmbeddingTree:
    """Copy of the tree with node embeddings recomputed from ``prompts``.

    Structure and scores are preserved; used in ablation mode where selection
    runs on a random-encoding tree but generation conditions on real means.
    """
    if set(tree.leaf_of) != set(prompts.ids):
        raise UsageError("prompt ids do not match tree leaves")
    nodes = []
    for n in tree.nodes:
        idx = [prompts.index_of(pid) for pid in n.members]
        nodes.append(replace(n, embedding=_cluster_mean(prompts, idx)))
    return EmbeddingTree(nodes, tree.root, dict(tree.leaf_of), tree.c_max, tree.inversion_count)


def tree_to_json(tree: EmbeddingTree, extra: dict | None = None) -> str:
    doc = {
        "nodes": [
            {
                "id": n.node_id,
                "parent": n.parent,
                "children": list(n.children) if n.children else [],
                "members": sorted(n.members),
                "score": n.score,
                "raw_score": n.raw_score,
                "embedding": [float(v) for v in n.embedding],
            }
            for n in tree.nodes
        ],
        "root": tree.root,
        "c_max": tree.c_max,
        "inversion_count": tree.inversion_count,
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=1)


def tree_from_json(text: str) -> EmbeddingTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"malformed tree JSON: {e}") from e
    try:
        nodes = [None] * len(doc["nodes"])
        for rec in doc["nodes"]:
            node = TreeNode(
                node_id=int(rec["id"]),
                parent=rec["parent"],
                children=tuple(rec["children"]) if rec["children"] else None,
                members=frozenset(rec["members"]),
                embedding=np.asarray(rec["embedding"], dtype=np.float64),
                raw_score=float(rec["raw_score"]),
                score=float(rec["score"]),
            )
            nodes[node.node_id] = node
        leaf_of = {next(iter(n.members)): n.node_id for n in nodes if n.is_leaf}
        return EmbeddingTree(
            nodes=nodes,
            root=int(doc["root"]),
            leaf_of=leaf_of,
            c_max=float(doc["c_max"]),
            inversion_count=int(doc["inversion_count"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed tree JSON: {e}") from e
