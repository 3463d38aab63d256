"""Agglomerative embedding tree with heterogeneity scores.

Clusters are merged greedily by cosine distance between cluster mean
embeddings (centroid linkage).  ``build_tree`` keeps the upper triangle of a
matrix of distances between live clusters plus each cluster's nearest
neighbour, computes one row per merge and rescans only the clusters whose
neighbour changed: O(N^2 d) in all.  ``reference_build_tree`` recomputes
every cluster mean and pair distance each round and serves as the
brute-force oracle.  Both take means from
``embeddings.mean_embedding`` over member rows in sorted-id order and
distances from the one cosine kernel in ``embeddings``; the tests require
their trees to be ``structurally_equal``.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .embeddings import PromptSet, cosine_distance, mean_embedding, unit_distances, unit_rows
from .errors import DataError, UsageError
from .rng import TAG_RANDENC, stream

REFERENCE_MAX_N = 64

# Version of the tree JSON layout; a document in any other layout is stale.
TREE_FORMAT = 2


class TreeFormatError(DataError):
    """A tree JSON document whose ``format`` is missing or not TREE_FORMAT."""


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
    # Top-level keys of the tree JSON it was read from beyond the tree itself
    # (input_sha256, ablation, normalize, ...); empty for a built tree.
    provenance: dict = field(default_factory=dict)

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

    Slot s holds the cluster whose smallest member id is the s-th smallest
    id, and a merge keeps the lower slot.  Only the upper triangle of one
    N x N float64 distance matrix is filled or read.  Each live slot s
    caches ``nn[s]``, the first argmin of ``dist[s, s+1:]``, and that
    distance; the next pair is (i, nn[i]) for the first minimum i of the
    cached distances.  That is the first minimum of the symmetric matrix in
    row-major order: the pair with the smallest (min member id, max member
    id) among those at the minimal distance, the same tie rule as
    ``reference_build_tree``.

    After merging i < j the builder computes the new mean and one O(N d) row
    against the live slots, rescans slot i and every slot whose ``nn`` was i
    or j, and lets every other slot below i take i if i is now nearer (or
    equally near and below its ``nn``).  Rescans average about four per
    merge, so a build costs O(N^2 d) arithmetic plus O(N^2) numpy scans, in
    O(N^2) memory (Muellner's generic algorithm, arXiv:1109.2378).  Children
    are listed with the cluster holding the smaller id first.
    """
    n = len(prompts)
    order = sorted(range(n), key=prompts.ids.__getitem__)
    node_of = list(order)
    members = [[s] for s in range(n)]  # slots, which sort in id order
    rows = prompts.embeddings[order]
    units = unit_rows(rows)
    dist = np.empty((n, n))
    nn = np.full(n, n)  # n: no slot above
    nn_dist = np.full(n, np.inf)
    for s in range(n - 1):
        dist[s, s + 1:] = unit_distances(units[s], units[s + 1:])
        _rescan(dist, nn, nn_dist, s)
    live = np.ones(n, dtype=bool)
    merges: list[tuple[int, int, float, np.ndarray]] = []
    for nid in range(n, 2 * n - 1):
        i = int(np.argmin(nn_dist))
        j = int(nn[i])
        members[i] = sorted(members[i] + members[j])
        mean = mean_embedding(rows[members[i]])
        merges.append((node_of[i], node_of[j], float(nn_dist[i]), mean))
        node_of[i] = nid
        live[j] = False
        nn[j], nn_dist[j] = n, np.inf
        if nid == 2 * n - 2:  # the root is never compared, so its mean may be zero
            break
        units[i] = unit_rows(mean[None])[0]
        stale = np.flatnonzero((nn == i) | (nn == j))  # i itself: its nn was j
        dist[:j, j] = np.inf
        slots = np.flatnonzero(live)
        row = unit_distances(units[i], units[slots])
        at = int(np.searchsorted(slots, i))
        dist[i, slots[at + 1:]] = row[at + 1:]
        below, row = slots[:at], row[:at]
        dist[below, i] = row
        nearer = (row < nn_dist[below]) | ((row == nn_dist[below]) & (i < nn[below]))
        nn[below[nearer]] = i
        nn_dist[below[nearer]] = row[nearer]
        for s in stale.tolist():
            _rescan(dist, nn, nn_dist, s)
    return _finalize(prompts, merges)


def _rescan(dist: np.ndarray, nn: np.ndarray, nn_dist: np.ndarray, s: int) -> None:
    """Point slot s (never the last) at the first minimum of its row right of
    the diagonal."""
    row = dist[s, s + 1:]
    k = int(np.argmin(row))
    nn[s], nn_dist[s] = s + 1 + k, row[k]


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
    """Tree JSON, format ``TREE_FORMAT``: one record per node without its
    embedding, and every node embedding in one ``embeddings`` block, the
    base64 of little-endian float64 rows in node-id order."""
    block = np.stack([n.embedding for n in tree.nodes]).astype("<f8", copy=False)
    doc = {
        "format": TREE_FORMAT,
        "dimension": block.shape[1],
        "nodes": [
            {
                "id": n.node_id,
                "parent": n.parent,
                "children": list(n.children) if n.children else [],
                "members": sorted(n.members),
                "score": n.score,
                "raw_score": n.raw_score,
            }
            for n in tree.nodes
        ],
        "root": tree.root,
        "c_max": tree.c_max,
        "inversion_count": tree.inversion_count,
        "embeddings": base64.b64encode(block.tobytes()).decode("ascii"),
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc)  # without indent, so that the C encoder runs


_TREE_KEYS = ("format", "dimension", "nodes", "root", "c_max", "inversion_count", "embeddings")


def _node_index(value, n: int, what: str) -> int:
    if type(value) is not int or not 0 <= value < n:  # bool is not int here
        raise DataError(f"malformed tree JSON: {what} {value!r} is not a node id in 0..{n - 1}")
    return value


def _check_tree(nodes: list[TreeNode], root: int) -> None:
    """Raise DataError unless the nodes form one tree as ``build_tree`` makes it.

    Parent and child links must agree, the root must be the one node without
    a parent, every node must hang under it, each internal node's members must
    be the disjoint union of its two children's, and scores must not rise
    from parent to child.  Costs O(nodes + members).
    """
    for node in nodes:
        where = f"malformed tree JSON: node {node.node_id}"
        if not (math.isfinite(node.score) and math.isfinite(node.raw_score)):
            raise DataError(f"{where}: score is not finite")
        if node.parent is None:
            if node.node_id != root:
                raise DataError(f"{where}: has no parent but the root is {root}")
        else:
            parent = nodes[node.parent]
            if parent.children is None or node.node_id not in parent.children:
                raise DataError(f"{where}: parent {node.parent} does not list it as a child")
            if node.score > parent.score:
                raise DataError(f"{where}: score exceeds its parent's")
        if node.children is None:
            if len(node.members) != 1:
                raise DataError(f"{where}: a leaf needs exactly one member")
            continue
        a, b = (nodes[c] for c in node.children)
        if a.parent != node.node_id or b.parent != node.node_id:
            raise DataError(f"{where}: a child does not name it as parent")
        # Subsets of equal total size are the union exactly when disjoint.
        if len(a.members) + len(b.members) != len(node.members) or \
                not (a.members <= node.members and b.members <= node.members) or \
                not a.members.isdisjoint(b.members):
            raise DataError(f"{where}: members are not the disjoint union of its children's")
    if nodes[root].parent is not None:
        raise DataError(f"malformed tree JSON: root {root} has a parent")
    # With the links agreeing, a walk down from the root is a tree walk; it
    # misses exactly the nodes that never reach the root (a parent cycle).
    reached = 0
    order = [root]
    while order:
        reached += 1
        children = nodes[order.pop()].children
        if children is not None:
            order.extend(children)
    if reached != len(nodes):
        raise DataError(f"malformed tree JSON: {len(nodes) - reached} of {len(nodes)} nodes "
                        "do not reach the root")


def _embedding_block(doc: dict, n: int) -> np.ndarray:
    """The (n, dimension) float64 rows of the document's ``embeddings`` block,
    a read-only view of the decoded bytes.  The base64 text is popped from
    the document, so it is freed once decoded."""
    d = doc["dimension"]
    if type(d) is not int or d < 1:
        raise DataError(f"malformed tree JSON: dimension {d!r} is not a positive int")
    raw = base64.b64decode(doc.pop("embeddings"), validate=True)
    if len(raw) != n * d * 8:
        raise DataError(f"malformed tree JSON: embeddings block holds {len(raw)} bytes, "
                        f"not {n} x {d} float64 values")
    block = np.frombuffer(raw, dtype="<f8").reshape(n, d)
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise DataError(f"malformed tree JSON: node {int(np.argmin(finite))} embedding "
                        "is not finite")
    return block


def tree_from_json(text: str | bytes) -> EmbeddingTree:
    """Parse a tree JSON document, raising DataError unless it is one valid tree.

    A document in another layout raises TreeFormatError, before anything
    else is checked.  Node embeddings are read-only rows of one block.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too many digits or too deep
        raise DataError(f"malformed tree JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DataError("malformed tree JSON: not an object")
    if doc.get("format") != TREE_FORMAT:
        raise TreeFormatError(f"tree JSON format {doc.get('format')!r} is not {TREE_FORMAT}")
    try:
        n = len(doc["nodes"])
        if n == 0:
            raise DataError("malformed tree JSON: no nodes")
        block = _embedding_block(doc, n)
        nodes: list = [None] * n
        for rec in doc["nodes"]:
            nid = _node_index(rec["id"], n, "id")
            if nodes[nid] is not None:
                raise DataError(f"malformed tree JSON: node id {nid} repeats")
            parent = rec["parent"]
            children = rec["children"]
            if children and len(children) != 2:
                raise DataError(f"malformed tree JSON: node {nid} has {len(children)} children")
            nodes[nid] = TreeNode(
                node_id=nid,
                parent=None if parent is None else _node_index(parent, n, "parent"),
                children=(_node_index(children[0], n, "child"),
                          _node_index(children[1], n, "child")) if children else None,
                members=frozenset(rec["members"]),
                embedding=block[nid],
                raw_score=float(rec["raw_score"]),
                score=float(rec["score"]),
            )
        root = _node_index(doc["root"], n, "root")
        _check_tree(nodes, root)
        c_max = doc["c_max"]
        if type(c_max) not in (int, float) or c_max != nodes[root].score:
            raise DataError(f"malformed tree JSON: c_max {c_max!r} is not the root's score")
        # A clamped node is one whose score fell below its merge distance.
        inversions = doc["inversion_count"]
        if type(inversions) is not int or \
                inversions != sum(node.score < node.raw_score for node in nodes):
            raise DataError(f"malformed tree JSON: inversion_count {inversions!r} is not "
                            "the number of clamped scores")
        leaf_of = {next(iter(node.members)): node.node_id for node in nodes if node.is_leaf}
        return EmbeddingTree(
            nodes=nodes,
            root=root,
            leaf_of=leaf_of,
            c_max=nodes[root].score,
            inversion_count=inversions,
            provenance={k: v for k, v in doc.items() if k not in _TREE_KEYS},
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"malformed tree JSON: {e}") from e
