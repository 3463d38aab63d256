"""Agglomerative embedding tree with heterogeneity scores.

Clusters are merged greedily by cosine distance between cluster mean
embeddings (centroid linkage).  ``build_tree`` keeps the upper triangle of a
matrix of distances between live clusters plus each cluster's nearest
neighbour, computes one row per merge and rescans only the clusters whose
neighbour changed: O(N^2 d) in all.  A node's mean is its member rows'
sum in sorted-id order over their count (``_mean_merger``, which the loader
and ``reembed`` run too), and every distance comes from the one cosine
kernel in ``embeddings``.  The tests check the builder against a
brute-force oracle, ``reference_build_tree`` in ``tests/oracles.py``.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .embeddings import MAX_PROMPTS, PromptSet, all_finite, unit_distances, unit_rows
from .errors import DataError, UsageError
from .rng import TAG_RANDENC, normal_rows

# Version of the tree JSON layout; a document in any other layout is stale.
TREE_FORMAT = 5


class TreeFormatError(DataError):
    """A tree JSON document whose ``format`` is missing or not TREE_FORMAT."""


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class EmbeddingTree:
    """A binary tree over N prompts as read-only arrays indexed by node id.

    Leaves are nodes 0..N-1, leaf i holding prompt ``leaf_ids[i]``; each
    merge comes after its children and the root is the last node, so every
    parent's id is above its children's.  A built and a loaded tree are
    made by the same ``_finalize``.
    """

    parent: np.ndarray  # (2N-1,) intp, -1 at the root
    children: np.ndarray  # (N-1, 2) intp: row i holds node N+i's children
    raw_score: np.ndarray  # (2N-1,) float64 merge distance, 0 at leaves
    score: np.ndarray  # (2N-1,) float64 raw_score clamped to the parent's score
    leaf_ids: tuple[str, ...]
    means: np.ndarray = field(repr=False)  # (2N-1, d) float64 mean of each node's leaves
    inversion_count: int
    leaf_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        for arr in (self.parent, self.children, self.raw_score, self.score, self.means):
            arr.flags.writeable = False
        object.__setattr__(self, "leaf_of", {pid: i for i, pid in enumerate(self.leaf_ids)})

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return len(self.parent) - 1

    @property
    def c_max(self) -> float:
        return self.score.item(-1)

    def depth(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        parent = self.parent.tolist()
        depth = [0] * len(parent)
        for nid in range(len(parent) - 2, -1, -1):
            depth[nid] = depth[parent[nid]] + 1
        return max(depth)


def _finalize(leaf_ids, children, raw_scores, means: np.ndarray) -> EmbeddingTree:
    """Assemble the tree from its leaves plus a merge sequence, then clamp scores.

    Merge i makes node N+i from ``children[i]`` at distance ``raw_scores[i]``;
    ``means`` holds every node's mean.
    """
    n_leaves = len(leaf_ids)
    n = 2 * n_leaves - 1
    children = np.array(children, dtype=np.intp).reshape(n_leaves - 1, 2)
    parent = np.full(n, -1, dtype=np.intp)
    parent[children] = np.arange(n_leaves, n)[:, None]
    raw = np.zeros(n)
    raw[n_leaves:] = raw_scores
    score, inversions = _clamp(parent, raw, n_leaves)
    return EmbeddingTree(parent, children, raw, score, tuple(leaf_ids), means, inversions)


def _clamp(parent: np.ndarray, raw: np.ndarray, n_leaves: int) -> tuple[np.ndarray, int]:
    """Scores clamped top-down, and how many internal nodes changed.

    Centroid linkage admits score inversions; after the clamp heterogeneity
    is monotone non-increasing toward the leaves.  Parents come after their
    children, so one pass in reverse id order sees each parent first.
    """
    parent, score = parent.tolist(), raw.tolist()
    inversions = 0
    for nid in range(len(score) - 2, -1, -1):
        cap = score[parent[nid]]
        if score[nid] > cap:
            score[nid] = cap
            inversions += nid >= n_leaves
    return np.array(score), inversions


def build_tree(prompts: PromptSet) -> EmbeddingTree:
    """Agglomerative clustering over cosine distance of cluster means.

    Slot s holds the cluster whose smallest member id is the s-th smallest
    id, and a merge keeps the lower slot.  Only the upper triangle of one
    N x N float64 distance matrix is filled or read.  Each live slot s
    caches ``nn[s]``, the first argmin of ``dist[s, s+1:]``, and that
    distance; the next pair is (i, nn[i]) for the first minimum i of the
    cached distances.  That is the first minimum of the symmetric matrix in
    row-major order: the pair with the smallest (min member id, max member
    id) among those at the minimal distance.

    After merging i < j the builder computes the new mean and one O(N d) row
    against the live slots, rescans slot i and every slot whose ``nn`` was i
    or j, and lets every other slot below i take i if i is now nearer (or
    equally near and below its ``nn``).  Rescans average about four per
    merge, so a build costs O(N^2 d) arithmetic plus O(N^2) numpy scans, in
    O(N^2) memory (Muellner's generic algorithm, arXiv:1109.2378).  Children
    are listed with the cluster holding the smaller id first, and each
    merge's mean goes straight into the tree's mean block.
    """
    n = len(prompts)
    order = sorted(range(n), key=prompts.ids.__getitem__)
    node_of = list(order)
    units = unit_rows(prompts.embeddings[order])
    dist = np.empty((n, n))
    nn = np.full(n, n)  # n: no slot above
    nn_dist = np.full(n, np.inf)
    for s in range(n - 1):
        dist[s, s + 1:] = unit_distances(units[s], units[s + 1:])
        _rescan(dist, nn, nn_dist, s)
    live = np.ones(n, dtype=bool)
    means, merge = _mean_merger(prompts.ids, prompts.embeddings, n - 1)
    children: list[tuple[int, int]] = []
    distances: list[float] = []
    for nid in range(n, 2 * n - 1):
        i = int(np.argmin(nn_dist))
        j = int(nn[i])
        merge(nid, node_of[i], node_of[j])
        children.append((node_of[i], node_of[j]))
        distances.append(float(nn_dist[i]))
        node_of[i] = nid
        live[j] = False
        nn[j], nn_dist[j] = n, np.inf
        if nid == 2 * n - 2:  # the root is never compared, so its mean may be zero
            break
        units[i] = unit_rows(means[nid][None])[0]
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
    return _finalize(prompts.ids, children, distances, means)


def _rescan(dist: np.ndarray, nn: np.ndarray, nn_dist: np.ndarray, s: int) -> None:
    """Point slot s (never the last) at the first minimum of its row right of
    the diagonal."""
    row = dist[s, s + 1:]
    k = int(np.argmin(row))
    nn[s], nn_dist[s] = s + 1 + k, row[k]


def randomize_encodings(prompts: PromptSet, seed: int) -> PromptSet:
    """Same ids, embeddings replaced by independent random unit vectors.

    Used to build the random-clustering ablation tree; leaf generation keeps
    using the true embeddings via shared membership.
    """
    d, n = prompts.dimension, len(prompts)
    draws = normal_rows(d, seed, TAG_RANDENC, np.arange(n))
    rows = unit_rows(np.fromiter(draws, np.dtype((np.float64, (d,))), n))
    return PromptSet(prompts.ids, prompts.prompts, rows.astype(np.float32))


def reembed(tree: EmbeddingTree, prompts: PromptSet) -> EmbeddingTree:
    """Copy of the tree with node means recomputed from ``prompts``.

    Structure and scores are preserved; used in ablation mode where selection
    runs on a random-encoding tree but generation conditions on real means.
    Leaf i must hold prompt i, as in every tree ``build_tree`` makes.
    """
    if tree.leaf_ids != prompts.ids:
        raise UsageError("tree leaves are not the prompt ids in input order")
    return replace(tree, means=_node_means(tree.children, tree.leaf_ids, prompts.embeddings))


def _mean_merger(leaf_ids, leaf_rows: np.ndarray, n_merges: int):
    """A (leaves + n_merges, d) float64 block holding the leaf rows, and
    ``merge(nid, a, b)``, which writes node nid's mean from its children a
    and b by the builder's rule.

    Leaf i has prompt id ``leaf_ids[i]`` and row ``leaf_rows[i]``; each merge
    comes after its children's and merges their sorted lists of member ranks.
    A mean is the member rows' sum in sorted-id order, started from -0.0
    (-0.0 + v is v for every v; numpy's default +0.0 is not), over their
    count, so k <= MAX_PROMPTS copies of a float32 row x have mean x: every
    partial sum j x has at most 37 significant bits.
    """
    n_leaves = len(leaf_ids)
    n = n_leaves + n_merges
    block = np.empty((n, leaf_rows.shape[1]))
    block[:n_leaves] = leaf_rows
    leaf_at = sorted(range(n_leaves), key=leaf_ids.__getitem__)
    ranks: list = [None] * n  # a node's member ranks; dropped once its parent has them
    for rank, nid in enumerate(leaf_at):
        ranks[nid] = [rank]
    leaf_at = np.array(leaf_at, dtype=np.intp)

    def merge(nid: int, a: int, b: int) -> None:
        members = sorted(ranks[a] + ranks[b])
        ranks[nid], ranks[a], ranks[b] = members, None, None
        # np.sum's reduction without its wrapper; the gathered rows are freed at once
        np.divide(np.add.reduce(block.take(leaf_at.take(members), axis=0), axis=0,
                                initial=-0.0), len(members), out=block[nid])
    return block, merge


def _node_means(children: np.ndarray, leaf_ids, leaf_rows: np.ndarray) -> np.ndarray:
    """Every node's mean by the builder's rule, as one (nodes, d) float64
    block; row k of ``children`` holds node N+k's children."""
    block, merge = _mean_merger(leaf_ids, leaf_rows, len(children))
    for nid, (a, b) in enumerate(children.tolist(), len(leaf_ids)):
        merge(nid, a, b)
    return block


def _merge_distances(block: np.ndarray, children: np.ndarray) -> np.ndarray:
    """Each internal node's distance between its children's unit means, by
    the kernel ``build_tree`` merges with.  Unit rows are made for about
    256 KB of rows at a time, never for the whole block."""
    out = np.empty(len(children))
    step = max(1, (1 << 18) // (8 * block.shape[1]))
    for s in range(0, len(children), step):
        a, b = children[s:s + step].T
        out[s:s + step] = unit_distances(unit_rows(block[a]), unit_rows(block[b]))
    return out


def tree_to_json(tree: EmbeddingTree) -> str:
    """Tree JSON, format ``TREE_FORMAT``: one record per node with its
    children, and the leaf rows in one ``leaves`` block, the base64 of
    little-endian float32 rows in node-id order.  A leaf record names its
    prompt (``members``) and an internal record its merge distance
    (``raw_score``); everything else follows from the links and the rows.
    A built tree's leaves are float32 rows, so the block is exact;
    ``tree_from_json`` derives every other mean from it."""
    n_leaves = len(tree.leaf_ids)
    nodes = [{"id": nid, "children": [], "members": [pid]}
             for nid, pid in enumerate(tree.leaf_ids)]
    nodes += [{"id": nid, "children": pair, "raw_score": raw}
              for nid, (pair, raw) in enumerate(zip(tree.children.tolist(),
                                                    tree.raw_score[n_leaves:].tolist()), n_leaves)]
    leaves = tree.means[:n_leaves].astype("<f4")
    return json.dumps({  # without indent, so that the C encoder runs
        "format": TREE_FORMAT,
        "nodes": nodes,
        "leaves": base64.b64encode(leaves.tobytes()).decode("ascii"),
    })


def _column(records: list, key: str, first: int, valid, what: str) -> list:
    """The ``key`` value of each record, the records being nodes ``first``,
    ``first`` + 1, ...; DataError names the first node whose ``valid(node,
    value)`` is false."""
    values = [rec[key] for rec in records]
    nids = range(first, first + len(values))
    if not all(map(valid, nids, values)):
        nid, value = next((nid, v) for nid, v in zip(nids, values) if not valid(nid, v))
        raise DataError(f"malformed tree JSON: node {nid} {key} {value!r} is not {what}")
    return values


def _check_tree(children: np.ndarray, n: int) -> None:
    """Raise DataError unless the links form one tree of n nodes numbered as
    ``build_tree`` numbers it, given that the leaves come first.

    Every child's id must be below its parent's, and every node but the
    last must be the child of exactly one node.  Parent ids then rise along
    every path, so each path ends at the last node, the root.  Costs
    O(nodes).
    """
    ids = np.arange(n - len(children), n)
    below = children.max(axis=1, initial=-1) < ids
    if not below.all():
        raise DataError(f"malformed tree JSON: node {ids[np.argmin(below)]}: "
                        "a child's id is not below its own")
    count = np.bincount(children.ravel(), minlength=n)[:-1]
    if (count != 1).any():
        nid = int(np.argmax(count != 1))
        raise DataError(f"malformed tree JSON: node {nid} is listed as a child "
                        f"{count[nid]} times, not once")


def _leaf_rows(doc: dict, n_leaves: int) -> np.ndarray:
    """The (leaves, d) float32 rows of the document's ``leaves`` block, a
    view of the decoded bytes; d is the block's length over 4 N.  The base64
    text is popped from the document, so it is freed once decoded."""
    raw = base64.b64decode(doc.pop("leaves"), validate=True)
    d, rest = divmod(len(raw), 4 * n_leaves)
    if d < 1 or rest:
        raise DataError(f"malformed tree JSON: leaves block holds {len(raw)} bytes, "
                        f"not {n_leaves} rows of one or more float32 values")
    rows = np.frombuffer(raw, dtype="<f4").reshape(n_leaves, d)
    if not all_finite(rows):
        bad = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise DataError(f"malformed tree JSON: leaf {bad} is not finite")
    return rows


def tree_from_json(text: str | bytes) -> EmbeddingTree:
    """Parse a tree JSON document, raising DataError unless it is one valid tree.

    A document in another layout raises TreeFormatError, before anything
    else is checked.  Record i must be node i (``id`` i), leaves first, as
    ``tree_to_json`` writes it; each leaf names one prompt, and no two the
    same.  Internal means are derived from the leaf rows by the builder's
    rule, into one read-only block; merge distances are recomputed from
    them, and every stored ``raw_score`` must equal the derived value.
    Parents, clamped scores and the inversion count are derived as for a
    built tree.  A tree of more than ``MAX_PROMPTS`` leaves is rejected
    before any record is read.  Other top-level keys, such as the
    ``input_sha256`` and ``normalize`` that earlier versions wrote, are
    ignored.
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
        nodes = doc["nodes"]
        n = len(nodes)
        if n == 0:
            raise DataError("malformed tree JSON: no nodes")
        n_leaves = (n + 1) // 2  # of a binary tree with this many nodes
        if n_leaves > MAX_PROMPTS:
            raise DataError(f"malformed tree JSON: {n_leaves} leaves, more than {MAX_PROMPTS}")
        _column(nodes, "id", 0, lambda nid, v: type(v) is int and v == nid, "its position")
        leaves, merges = nodes[:n_leaves], nodes[n_leaves:]
        _column(leaves, "children", 0, lambda _, pair: pair == [],
                f"[]: the first {n_leaves} nodes are leaves")
        children = _column(merges, "children", n_leaves,
                           lambda _, pair: type(pair) is list and len(pair) == 2
                           and type(pair[0]) is type(pair[1]) is int  # nor bool
                           and 0 <= pair[0] < n and 0 <= pair[1] < n,
                           f"two node ids in 0..{n - 1}")
        members = _column(leaves, "members", 0,
                          lambda _, m: type(m) is list and len(m) == 1 and type(m[0]) is str,
                          "a list of one prompt id")
        leaf_ids = [m[0] for m in members]
        raw_scores = _column(merges, "raw_score", n_leaves,
                             lambda _, raw: type(raw) in (int, float), "a number")  # nor bool
        if len(set(leaf_ids)) != n_leaves:
            raise DataError("malformed tree JSON: two leaves hold one prompt id")
        children = np.array(children, dtype=np.intp).reshape(-1, 2)
        _check_tree(children, n)
        block = _node_means(children, leaf_ids, _leaf_rows(doc, n_leaves))
        tree = _finalize(leaf_ids, children, _merge_distances(block, children), block)
        wrong = np.flatnonzero(np.array(raw_scores, dtype=np.float64) != tree.raw_score[n_leaves:])
        if wrong.size:
            nid = n_leaves + int(wrong[0])
            raise DataError(f"malformed tree JSON: node {nid} raw_score "
                            f"{raw_scores[wrong[0]]!r} is not the derived "
                            f"{tree.raw_score.item(nid)!r}")
        return tree
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"malformed tree JSON: {e}") from e
