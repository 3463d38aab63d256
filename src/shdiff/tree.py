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
from dataclasses import dataclass, field, replace

import numpy as np

from .embeddings import PromptSet, cosine_distance, mean_embedding, unit_distances, unit_rows
from .errors import DataError, UsageError
from .rng import TAG_RANDENC, stream

REFERENCE_MAX_N = 64

# Version of the tree JSON layout; a document in any other layout is stale.
TREE_FORMAT = 3


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
    # (input_sha256, normalize, ...); empty for a built tree.
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
    inversions = _clamp(nodes, root)
    leaf_of = {pid: i for i, pid in enumerate(prompts.ids)}
    return EmbeddingTree(
        nodes=nodes,
        root=root,
        leaf_of=leaf_of,
        c_max=nodes[root].score,
        inversion_count=inversions,
    )


def _clamp(nodes: list[TreeNode], root: int) -> int:
    """Clamp scores top-down and return how many internal nodes changed.

    Centroid linkage admits score inversions; after the clamp heterogeneity
    is monotone non-increasing toward the leaves.
    """
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
    return inversions


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
    The tree is numbered as ``build_tree`` numbers it.
    """
    if set(tree.leaf_of) != set(prompts.ids):
        raise UsageError("prompt ids do not match tree leaves")
    leaves = [prompts.index_of(next(iter(n.members))) for n in tree.nodes[:len(tree.leaf_of)]]
    block = _node_means(tree.nodes, prompts.embeddings[leaves])
    nodes = [replace(n, embedding=block[n.node_id]) for n in tree.nodes]
    return EmbeddingTree(nodes, tree.root, dict(tree.leaf_of), tree.c_max, tree.inversion_count)


def _node_means(nodes: list[TreeNode], leaf_rows: np.ndarray) -> np.ndarray:
    """Every node's mean by the builder's rule, as one read-only (nodes, d)
    float64 block.

    The nodes are numbered as ``build_tree`` numbers them: ``leaf_rows`` are
    the rows of the leaves, nodes 0..L-1, and each later node comes after its
    children.  As in ``mean_embedding`` over the member rows in sorted-id
    order, a node whose rows are all equal takes the first of them and any
    other node sums them in that order.  Each node merges its children's
    sorted lists of member ranks, as ``build_tree`` does, and its rows are
    all equal exactly when both children's are and the two children's means
    are equal, so no member row is compared or sorted again.
    """
    n, n_leaves = len(nodes), len(leaf_rows)
    block = np.empty((n, leaf_rows.shape[1]))
    block[:n_leaves] = leaf_rows
    leaf_at = sorted(range(n_leaves), key=lambda nid: next(iter(nodes[nid].members)))
    ranks: list = [None] * n  # a node's member ranks; dropped once its parent has them
    for rank, nid in enumerate(leaf_at):
        ranks[nid] = [rank]
    leaf_at = np.array(leaf_at, dtype=np.intp)
    equal = [True] * n
    for node in nodes[n_leaves:]:
        nid, (a, b) = node.node_id, node.children
        members = sorted(ranks[a] + ranks[b])
        ranks[nid], ranks[a], ranks[b] = members, None, None
        equal[nid] = equal[a] and equal[b] and bool((block[a] == block[b]).all())
        if equal[nid]:
            block[nid] = block[leaf_at[members[0]]]
        else:  # np.sum's reduction without its wrapper; the gathered rows are freed at once
            np.divide(np.add.reduce(block.take(leaf_at.take(members), axis=0), axis=0),
                      len(members), out=block[nid])
    block.flags.writeable = False
    return block


def _merge_distances(block: np.ndarray, internal: list[TreeNode]) -> np.ndarray:
    """Each internal node's distance between its children's unit means, by
    the kernel ``build_tree`` merges with.  Unit rows are made for about
    256 KB of rows at a time, never for the whole block."""
    children = np.array([node.children for node in internal], dtype=np.intp)
    out = np.empty(len(internal))
    step = max(1, (1 << 18) // (8 * block.shape[1]))
    for s in range(0, len(internal), step):
        a, b = children[s:s + step].T
        out[s:s + step] = unit_distances(unit_rows(block[a]), unit_rows(block[b]))
    return out


def tree_to_json(tree: EmbeddingTree, extra: dict | None = None) -> str:
    """Tree JSON, format ``TREE_FORMAT``: one record per node without its
    embedding, and the leaf rows in one ``leaves`` block, the base64 of
    little-endian float32 rows in node-id order.  A built tree's leaves are
    float32 rows, so the block is exact; ``tree_from_json`` derives every
    other mean from it."""
    leaves = np.array([n.embedding for n in tree.nodes if n.is_leaf], dtype="<f4")
    doc = {
        "format": TREE_FORMAT,
        "dimension": leaves.shape[1],
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
        "leaves": base64.b64encode(leaves.tobytes()).decode("ascii"),
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc)  # without indent, so that the C encoder runs


_TREE_KEYS = ("format", "dimension", "nodes", "root", "c_max", "inversion_count", "leaves")


def _node_index(value, n: int, what: str) -> int:
    if type(value) is not int or not 0 <= value < n:  # bool is not int here
        raise DataError(f"malformed tree JSON: {what} {value!r} is not a node id in 0..{n - 1}")
    return value


def _check_tree(nodes: list[TreeNode], root: int) -> None:
    """Raise DataError unless the nodes form one tree numbered as
    ``build_tree`` numbers it.

    The leaves must come first and the root last, as the one node without a
    parent; every child's id must be below its parent's, parent and child
    links must agree, and each internal node's members must be the disjoint
    union of its two children's.  Parent ids then rise along every path, so
    each path ends at the root.  Costs O(nodes + members).
    """
    if root != len(nodes) - 1:
        raise DataError(f"malformed tree JSON: root {root} is not the last node")
    n_leaves = (len(nodes) + 1) // 2  # of a binary tree with this many nodes
    for node in nodes:
        where = f"malformed tree JSON: node {node.node_id}"
        if (node.children is None) != (node.node_id < n_leaves):
            raise DataError(f"{where}: the {n_leaves} leaves do not come first")
        if node.parent is None:
            if node.node_id != root:
                raise DataError(f"{where}: has no parent but the root is {root}")
        else:
            parent = nodes[node.parent]
            if parent.children is None or node.node_id not in parent.children:
                raise DataError(f"{where}: parent {node.parent} does not list it as a child")
        if node.children is None:
            if len(node.members) != 1:
                raise DataError(f"{where}: a leaf needs exactly one member")
            continue
        if max(node.children) >= node.node_id:
            raise DataError(f"{where}: a child's id is not below its own")
        a, b = (nodes[c] for c in node.children)
        if a.parent != node.node_id or b.parent != node.node_id:
            raise DataError(f"{where}: a child does not name it as parent")
        # Subsets of equal total size are the union exactly when disjoint.
        if len(a.members) + len(b.members) != len(node.members) or \
                not (a.members <= node.members and b.members <= node.members) or \
                not a.members.isdisjoint(b.members):
            raise DataError(f"{where}: members are not the disjoint union of its children's")


def _leaf_rows(doc: dict, n_leaves: int) -> np.ndarray:
    """The (leaves, dimension) float32 rows of the document's ``leaves``
    block, a view of the decoded bytes.  The base64 text is popped from the
    document, so it is freed once decoded."""
    d = doc["dimension"]
    if type(d) is not int or d < 1:
        raise DataError(f"malformed tree JSON: dimension {d!r} is not a positive int")
    raw = base64.b64decode(doc.pop("leaves"), validate=True)
    if len(raw) != n_leaves * d * 4:
        raise DataError(f"malformed tree JSON: leaves block holds {len(raw)} bytes, "
                        f"not {n_leaves} x {d} float32 values")
    rows = np.frombuffer(raw, dtype="<f4").reshape(n_leaves, d)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise DataError(f"malformed tree JSON: leaf {int(np.argmin(finite))} is not finite")
    return rows


def tree_from_json(text: str | bytes) -> EmbeddingTree:
    """Parse a tree JSON document, raising DataError unless it is one valid tree.

    A document in another layout raises TreeFormatError, before anything
    else is checked.  Internal means are derived from the leaf rows by the
    builder's rule, into one read-only block whose rows are the node
    embeddings; merge distances are recomputed from them and clamped again,
    and every stored score, ``c_max`` and ``inversion_count`` must equal the
    derived value.
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
                embedding=None,
                raw_score=float(rec["raw_score"]),
                score=float(rec["score"]),
            )
        root = _node_index(doc["root"], n, "root")
        _check_tree(nodes, root)
        n_leaves = (n + 1) // 2
        block = _node_means(nodes, _leaf_rows(doc, n_leaves))
        derived = [0.0] * n_leaves + _merge_distances(block, nodes[n_leaves:]).tolist()
        stored = [(node.raw_score, node.score) for node in nodes]
        for node, raw_score in zip(nodes, derived):
            node.embedding = block[node.node_id]
            node.raw_score = node.score = raw_score
        inversions = _clamp(nodes, root)
        for node, (raw_score, score) in zip(nodes, stored):
            if raw_score != node.raw_score or score != node.score:
                raise DataError(f"malformed tree JSON: node {node.node_id} scores "
                                f"{raw_score!r}/{score!r} are not the derived "
                                f"{node.raw_score!r}/{node.score!r}")
        c_max = doc["c_max"]
        if type(c_max) not in (int, float) or c_max != nodes[root].score:
            raise DataError(f"malformed tree JSON: c_max {c_max!r} is not the root's score")
        count = doc["inversion_count"]
        if type(count) is not int or count != inversions:
            raise DataError(f"malformed tree JSON: inversion_count {count!r} is not "
                            "the number of clamped scores")
        leaf_of = {next(iter(node.members)): node.node_id for node in nodes[:n_leaves]}
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
