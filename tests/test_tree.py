import base64
import hashlib
import json
from collections import deque
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import path_to_root, reference_build_tree, same_tree
from shdiff.cli import main
from shdiff.diffusion import ToyWorld, make_schedule, run_standard
from shdiff.embeddings import MAX_PROMPTS, PromptSet, generate_synthetic, save_prompt_set
from shdiff.errors import DataError, UsageError
from shdiff.tree import (
    TREE_FORMAT,
    TreeFormatError,
    build_tree,
    randomize_encodings,
    reembed,
    tree_from_json,
    tree_to_json,
)


def prompt_set(vectors, ids=None):
    vectors = np.asarray(vectors, dtype=np.float32)
    ids = tuple(ids) if ids else tuple(f"p{i}" for i in range(len(vectors)))
    return PromptSet(ids, (None,) * len(vectors), vectors)


def random_prompt_set(n, d, seed):
    rng = np.random.default_rng(seed)
    return prompt_set(rng.standard_normal((n, d)))


def clustered_prompt_set(clusters, per_cluster, d, jitter, seed):
    """Unit rows around random centres with ids p0, p1, ..., shaped like the
    benchmark's sets.  Norms are taken over axis=1, which does not call BLAS."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((clusters, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    rows = np.repeat(centers, per_cluster, axis=0)
    rows += jitter * rng.standard_normal(rows.shape)
    return prompt_set(rows / np.linalg.norm(rows, axis=1, keepdims=True))


def chain_prompt_set(n):
    """Row i is e0 plus a growing offset along its own axis e(i+1), so each
    merge adds the next prompt to one cluster: a chain of depth n - 1."""
    rows = np.zeros((n, n + 1))
    rows[:, 0] = 1.0
    rows[np.arange(n), np.arange(1, n + 1)] = 0.5 + np.arange(n) / n
    return prompt_set(rows)


def member_sets(tree):
    """Each node's prompt ids, gathered by walking up from every leaf."""
    sets = [set() for _ in range(len(tree))]
    for pid, node in tree.leaf_of.items():
        while node != -1:
            sets[node].add(pid)
            node = tree.parent[node]
    return sets


ARRAYS = ("parent", "children", "raw_score", "score", "means")


def assert_same_tree(t1, t2):
    """Bit-for-bit equal arrays of the same dtype and shape, all read-only,
    and the same leaves."""
    for name in ARRAYS:
        a1, a2 = getattr(t1, name), getattr(t2, name)
        assert (a1.dtype, a1.shape) == (a2.dtype, a2.shape), name
        assert a1.tobytes() == a2.tobytes(), name
        assert not a1.flags.writeable and not a2.flags.writeable, name
    assert t1.leaf_ids == t2.leaf_ids and t1.leaf_of == t2.leaf_of
    assert (t1.c_max, t1.inversion_count) == (t2.c_max, t2.inversion_count)


class TestBuildTree:
    def test_single_prompt(self):
        t = build_tree(prompt_set([[1.0, 0.0]]))
        assert len(t) == 1 and t.root == 0 and t.depth() == 0
        assert t.c_max == 0.0 and t.score[0] == 0.0

    def test_two_identical(self):
        t = build_tree(prompt_set([[0.6, 0.8], [0.6, 0.8]]))
        assert len(t) == 3
        assert t.score[t.root] == 0.0
        assert t.inversion_count == 0

    def test_four_point_structure(self):
        vecs = np.array([[1.0, 0.0], [0.99, 0.141], [0.0, 1.0], [0.141, 0.99]])
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        t = build_tree(prompt_set(vecs))
        members = member_sets(t)[4:]
        assert {"p0", "p1"} in members
        assert {"p2", "p3"} in members
        for child in t.children[-1]:
            assert t.score[child] <= t.score[t.root]
        assert same_tree(t, reference_build_tree(prompt_set(vecs)))

    def test_zero_norm_root_mean_allowed(self):
        # The root's mean is never compared with anything, so antipodal
        # prompts still build.
        t = build_tree(prompt_set([[1.0, 0.0], [-1.0, 0.0]]))
        assert t.c_max == 2.0
        assert not np.any(t.means[t.root])

    def test_duplicated_set_all_zero(self):
        t = build_tree(prompt_set([[0.3, 0.4, 0.5]] * 6))
        assert t.c_max == 0.0
        assert not t.score.any()

    def test_node_counts_and_partitions(self):
        ps = random_prompt_set(9, 5, seed=3)
        t = build_tree(ps)
        assert len(t) == 2 * 9 - 1
        assert t.children.shape == (8, 2)
        members = member_sets(t)
        for nid, (a, b) in enumerate(t.children, 9):
            assert members[a] | members[b] == members[nid]
            assert not (members[a] & members[b])
        assert members[t.root] == set(ps.ids)

    def test_score_monotone_after_clamp(self):
        for seed in range(10):
            t = build_tree(random_prompt_set(12, 4, seed=seed))
            assert (t.score[:-1] <= t.score[t.parent[:-1]]).all()

    def test_internal_embedding_is_member_mean(self):
        for seed in range(5):
            ps = random_prompt_set(10, 6, seed=100 + seed)
            t = build_tree(ps)
            for nid, members in enumerate(member_sets(t)):
                idx = [ps.ids.index(pid) for pid in members]
                mean = ps.embeddings[idx].astype(np.float64).mean(axis=0)
                assert np.allclose(t.means[nid], mean, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("shape, digest", [
        ((16, 32, 64, 0.1, 7), "f7239957f2ea2c27f3aaf8320beef57208f5f4e9e319fc1885cb7839f3c5f1da"),
        ((16, 16, 768, 0.03, 8), "c3be4eb729912d31f5d351aba68bb627ce631201a447c0d0cc3db99e607fb10f"),
    ], ids=["N512-d64", "N256-d768"])
    def test_tree_json_pinned(self, shape, digest):
        # Format-5 digests of the trees the full-matrix argmin builder made;
        # every faster builder must write the same bytes.  They are the
        # format-4 files (66633e3d..., 56078ae4...) with "format" 5 and
        # without "parent", "score", the leaves' "raw_score", "dimension",
        # "root", "c_max" and "inversion_count".
        text = tree_to_json(build_tree(clustered_prompt_set(*shape)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_raw_score_is_merge_distance(self):
        ps = random_prompt_set(6, 3, seed=8)
        t = build_tree(ps)
        a, b = t.means[t.children[-1]]
        expected = 1.0 - a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert t.raw_score[t.root] == pytest.approx(expected, rel=1e-12)


def binade_values():
    """One float32 from every binade, both signs: the largest significand
    of each exponent 0..254 (the largest subnormal, ..., FLT_MAX), the
    smallest subnormal and 0."""
    bits = np.concatenate([(np.arange(255, dtype=np.uint32) << 23) | 0x7FFFFF, [1, 0]])
    values = bits.astype(np.uint32).view(np.float32)
    return np.concatenate([values, -values])


def copies_tree_json(row, k):
    """Tree JSON over k leaves that all hold ``row``, merged pairwise level
    by level, each merge at distance 0."""
    nodes = [{"id": i, "children": [], "members": [f"p{i:05d}"]} for i in range(k)]
    queue = deque(range(k))
    while len(queue) > 1:
        queue.append(len(nodes))
        nodes.append({"id": len(nodes), "children": [queue.popleft(), queue.popleft()],
                      "raw_score": 0.0})
    leaves = np.tile(row.astype("<f4"), (k, 1))
    return json.dumps({"format": TREE_FORMAT, "nodes": nodes,
                       "leaves": base64.b64encode(leaves.tobytes()).decode()})


class TestFloat32Means:
    """Every mean is a sum over a count, with no special case for equal
    rows: on float32 rows that is exact for up to MAX_PROMPTS copies."""

    COLUMNS = 64  # values a row holds, so the k = 8,192 block stays near 8 MiB

    @pytest.mark.parametrize("k", [1, 2, 3, 7, MAX_PROMPTS - 1, MAX_PROMPTS])
    def test_copies_mean_is_the_row(self, k):
        values = binade_values()
        for start in range(0, values.size, self.COLUMNS):
            row = values[start:start + self.COLUMNS]
            want = row.astype(np.float64).tobytes()  # bit for bit, zero signs included
            means = tree_from_json(copies_tree_json(row, k)).means
            assert all(node.tobytes() == want for node in means), start

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_built_copies_mean_is_the_row(self, k):
        # k is small: a build holds a k x k distance matrix
        row = binade_values()
        t = build_tree(prompt_set([row] * k))
        assert all(node.tobytes() == row.astype(np.float64).tobytes() for node in t.means)

    def test_zero_sign_copies_builder_matches_oracle(self):
        # rows equal under == that differ only in the sign of a zero; the
        # sum gives +0 where the signs differ, in the builder, the loader
        # and the oracle alike
        z = -0.0
        rows = [[1, 0, z, 2], [1, z, 0, 2], [1, z, z, 2], [0.5, 1, 0, -1], [1, 0, 0, 2],
                [-1, 2, 0.25, 0], [0.5, 1, z, -1]]
        ps = prompt_set(rows)
        built = build_tree(ps)
        assert same_tree(built, reference_build_tree(ps))
        assert same_tree(built, tree_from_json(tree_to_json(built)))
        pair = member_sets(built).index({"p0", "p1"})
        assert built.means[pair].tobytes() == np.array([1, 0, 0, 2], dtype=np.float64).tobytes()


class TestReference:
    def test_guard_rail(self):
        with pytest.raises(ValueError, match="capped at N=64"):
            reference_build_tree(random_prompt_set(65, 2, seed=0))

    def test_two_prompts(self):
        ps = random_prompt_set(2, 4, seed=1)
        assert same_tree(build_tree(ps), reference_build_tree(ps))

    def test_three_collinear_merge_order(self):
        # angles 0, 0.3, 0.9 rad: closest pair (p0, p1) merges first
        angles = [0.0, 0.3, 0.9]
        vecs = [[np.cos(a), np.sin(a)] for a in angles]
        t = reference_build_tree(prompt_set(vecs))
        assert member_sets(t)[3] == {"p0", "p1"}

    def test_matches_production_on_exact_ties(self):
        # Repeats of a few sign vectors under shuffled, non-sequential ids
        # give exact-zero distances and exact ties, so the tie rule on
        # (min member id, max member id) decides most merges.  Sets of up to
        # 30 prompts make the cached builder rescan slots whose nearest
        # neighbour merged away and update slots at equal distance.
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 31))
            base = rng.choice([-1.0, 1.0], size=(int(rng.integers(1, 5)), 3))
            vecs = base[rng.integers(0, len(base), size=n)]
            ids = [f"q{v}" for v in rng.choice(1000, size=n, replace=False)]
            ps = prompt_set(vecs, ids)
            # the two means come from independent code: merged member lists
            # in the builder, a sum over each member set in the oracle
            assert same_tree(build_tree(ps), reference_build_tree(ps))

    def test_equal_distance_goes_to_lower_slot(self):
        # p1 and p2 merge first into a mean along (1, 0, 2).  That mean is as
        # far from p0 as p3 = (1, 2, 0) is, bit for bit (the coordinates are
        # permuted), so p0 must now pair with the merged cluster, whose
        # smallest id p1 is below p3.
        ps = prompt_set([[1, 0, 0], [1, 1, 2], [1, -1, 2], [1, 2, 0]])
        t = build_tree(ps)
        assert member_sets(t)[4:6] == [{"p1", "p2"}, {"p0", "p1", "p2"}]
        assert same_tree(t, reference_build_tree(ps))

    def test_matches_production_on_random_sets(self):
        for seed in range(40):
            n = 2 + seed % 7
            ps = random_prompt_set(n, 4, seed=seed)
            assert same_tree(build_tree(ps), reference_build_tree(ps))


class TestPaths:
    def test_single(self):
        t = build_tree(prompt_set([[1.0, 0.0]]))
        assert path_to_root(t, "p0") == [0]

    def test_pair(self):
        t = build_tree(random_prompt_set(2, 3, seed=2))
        p = path_to_root(t, "p0")
        assert len(p) == 2 and p[-1] == t.root

    def test_balanced_four(self):
        vecs = np.array([[1.0, 0.0], [0.99, 0.141], [0.0, 1.0], [0.141, 0.99]])
        t = build_tree(prompt_set(vecs))
        for pid in ("p0", "p1", "p2", "p3"):
            assert len(path_to_root(t, pid)) == 3

    def test_unknown_prompt(self):
        t = build_tree(random_prompt_set(3, 3, seed=5))
        with pytest.raises(KeyError):
            path_to_root(t, "nope")


class TestRandomizeEncodings:
    def test_deterministic(self):
        ps = random_prompt_set(5, 4, seed=7)
        a = randomize_encodings(ps, seed=1)
        b = randomize_encodings(ps, seed=1)
        assert np.array_equal(a.embeddings, b.embeddings)
        assert a.ids == ps.ids

    def test_near_orthogonal_in_high_dim(self):
        ps = random_prompt_set(100, 256, seed=0)
        r = randomize_encodings(ps, seed=3)
        emb = r.embeddings.astype(np.float64)
        gram = emb @ emb.T
        n = len(ps)
        mean_dist = np.mean(1.0 - gram[np.triu_indices(n, k=1)])
        assert abs(mean_dist - 1.0) < 0.05


    def test_rows_pinned(self):
        # 4,099 rows, so the draws span more than one key chunk
        r = randomize_encodings(random_prompt_set(4099, 8, seed=0), seed=-5)
        assert hashlib.sha256(r.embeddings.tobytes()).hexdigest() == \
            "8434a04f862bcc7a0416cd05956ac63f4e3070bb362950eebad267183893f16c"

class TestReembed:
    def test_replaces_embeddings_keeps_scores(self):
        ps = random_prompt_set(6, 4, seed=11)
        abl = build_tree(randomize_encodings(ps, seed=2))
        hybrid = reembed(abl, ps)
        assert np.array_equal(hybrid.score, abl.score)
        assert np.array_equal(hybrid.children, abl.children)
        for nid, members in enumerate(member_sets(hybrid)):
            idx = [ps.ids.index(pid) for pid in members]
            mean = ps.embeddings[idx].astype(np.float64).mean(axis=0)
            assert np.allclose(hybrid.means[nid], mean, rtol=1e-12, atol=1e-15)
        assert not hybrid.means.flags.writeable

    def test_permuted_prompts(self):
        # the same ids in another order: leaf i must be prompt i
        ps = random_prompt_set(4, 4, seed=11)
        t = build_tree(ps)
        order = [2, 0, 3, 1]
        permuted = PromptSet(tuple(ps.ids[i] for i in order), ps.prompts, ps.embeddings[order])
        with pytest.raises(UsageError, match="input order"):
            reembed(t, permuted)

    def test_id_mismatch(self):
        ps = random_prompt_set(4, 4, seed=11)
        other = random_prompt_set(4, 4, seed=12)
        other = PromptSet(tuple(f"q{i}" for i in range(4)), other.prompts, other.embeddings)
        t = build_tree(ps)
        with pytest.raises(UsageError):
            reembed(t, other)


class TestTreeJson:
    def test_roundtrip(self):
        ps = random_prompt_set(7, 3, seed=4)
        t = build_tree(ps)
        back = tree_from_json(tree_to_json(t))
        assert back.root == t.root
        assert_same_tree(t, back)
        assert tree_to_json(back) == tree_to_json(t)

    def test_embeddings_roundtrip_bit_exact(self):
        # float32 edge values: -0.0, the smallest subnormal and the largest finite
        tiny, big = np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max
        t = build_tree(prompt_set([[-0.0, tiny, big], [0.1, -tiny, 1.0 / 3.0],
                                   [-0.0, tiny, big], [big, -0.0, -big], [1.0, 2.0, 3.0]]))
        back = tree_from_json(tree_to_json(t))
        assert np.array_equal(t.means.view(np.uint64), back.means.view(np.uint64))
        assert back.means.dtype == np.float64 and not back.means.flags.writeable
        assert_same_tree(t, back)

    def test_inversions_survive_reload(self):
        trees = [build_tree(random_prompt_set(12, 3, seed=s)) for s in range(40)]
        assert any(t.inversion_count for t in trees)
        for t in trees:
            back = tree_from_json(tree_to_json(t))
            assert (back.c_max, back.inversion_count) == (t.c_max, t.inversion_count)

    def test_layout(self):
        t = build_tree(random_prompt_set(4, 3, seed=1))
        text = tree_to_json(t)
        assert "\n" not in text
        doc = json.loads(text)
        assert doc.keys() == {"format", "nodes", "leaves"} and doc["format"] == TREE_FORMAT == 5
        # only leaves name their prompt, which the benchmark's leaf map reads,
        # and only internal nodes their merge distance
        assert [rec.keys() for rec in doc["nodes"]] == \
            [{"id", "children", "members"}] * 4 + [{"id", "children", "raw_score"}] * 3
        assert [rec.get("members") for rec in doc["nodes"]] == \
            [["p0"], ["p1"], ["p2"], ["p3"], None, None, None]
        assert [rec.get("raw_score") for rec in doc["nodes"][4:]] == t.raw_score[4:].tolist()
        raw = base64.b64decode(doc["leaves"])
        assert raw == t.means[:4].astype("<f4").tobytes()

    @pytest.mark.parametrize("fmt", [{}, {"format": None}, {"format": 1}, {"format": 2},
                                     {"format": "2"}, {"format": 3}, {"format": 4}],
                             ids=["missing", "null", "1", "2", "'2'", "3", "4"])
    def test_other_format_is_stale(self, fmt):
        # checked first: nothing else in the document is looked at
        doc = json.loads(tree_to_json(build_tree(random_prompt_set(4, 3, seed=1))))
        del doc["format"]
        doc.update(fmt, nodes="not checked")
        with pytest.raises(TreeFormatError):
            tree_from_json(json.dumps(doc))

    def test_leaf_cap_checked_first(self):
        # the records are empty, so reading any of them would fail differently
        nodes = [{}] * (2 * MAX_PROMPTS + 1)
        with pytest.raises(DataError, match=f"{MAX_PROMPTS + 1} leaves, more than {MAX_PROMPTS}"):
            tree_from_json(json.dumps({"format": TREE_FORMAT, "nodes": nodes}))

    def test_extra_top_level_keys_ignored(self):
        t = build_tree(random_prompt_set(5, 3, seed=2))
        doc = json.loads(tree_to_json(t))
        doc.update(input_sha256="ab" * 32, normalize=False, note=[1, None])
        back = tree_from_json(json.dumps(doc))
        assert_same_tree(t, back)
        assert tree_to_json(back) == tree_to_json(t)


class TestChainTree:
    """A chain-shaped set, the deepest tree N prompts can make.  Files and
    loaded trees hold each prompt id once, so they stay linear in N."""

    N = 128

    @pytest.fixture(scope="class")
    def chain(self):
        ps = chain_prompt_set(self.N)
        tree = build_tree(ps)
        return ps, tree, tree_to_json(tree)

    def test_depth(self, chain):
        assert chain[1].depth() == self.N - 1

    def test_roundtrip_bit_for_bit(self, chain):
        _, tree, text = chain
        back = tree_from_json(text)
        assert_same_tree(tree, back)
        assert tree_to_json(back) == text

    def test_file_holds_each_prompt_once(self, chain):
        nodes = json.loads(chain[2])["nodes"]
        assert sum(len(rec.get("members", ())) for rec in nodes) == self.N

    def test_benchmark_leaf_map(self, chain):
        # how the benchmark maps a prompt to its leaf, from the file alone
        nodes = json.loads(chain[2])["nodes"]
        assert {r["members"][0]: r["id"] for r in nodes if not r["children"]} == chain[1].leaf_of

    def test_arrays_read_only(self, chain):
        for tree in (chain[1], tree_from_json(chain[2])):
            for name in ARRAYS:
                with pytest.raises(ValueError):
                    getattr(tree, name)[0] = 0
            with pytest.raises(FrozenInstanceError):
                tree.parent = tree.parent.copy()

    def test_simulate_tau_zero_is_standard(self, chain, tmp_path, capsys):
        ps, _, _ = chain
        prompts, tree_path, out = (tmp_path / n for n in ("p.jsonl", "t.json", "s.jsonl"))
        save_prompt_set(ps, str(prompts))
        assert main(["tree", "--input", str(prompts), "--output", str(tree_path)]) == 0
        assert main(["simulate", "--input", str(prompts), "--tree", str(tree_path), "--k", "10",
                     "--tau", "0", "--seed", "5", "--output", str(out)]) == 0
        assert "rebuilding" not in capsys.readouterr().err
        tree = tree_from_json(tree_path.read_bytes())
        world = ToyWorld.create(self.N + 1, self.N + 1, 1.0)
        standard = run_standard(tree, world, make_schedule(10), 5).outputs
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == list(ps.ids)
        for r in rows:
            assert r["trace"] == [list(t) for t in standard[r["id"]].trace]
            assert r["sample"] == standard[r["id"]].sample.astype(np.float32).tolist()


@st.composite
def small_sets(draw):
    """Up to 12 rows in d 1..6 around at most 3 centres: N=1 and N=2, exact
    duplicates, -0.0 and near-ties; normalised like ``--normalize`` or not."""
    d = draw(st.integers(1, 6), label="d")
    n = draw(st.integers(1, 12), label="n")
    element = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0])
    centres = draw(st.lists(st.lists(element, min_size=d, max_size=d).filter(any),
                            min_size=1, max_size=3), label="centres")
    picks = draw(st.lists(st.integers(0, len(centres) - 1), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**16), label="seed")
    jitter = draw(st.sampled_from([0.0, 1e-7, 0.05]), label="jitter")
    rows = np.array([centres[i] for i in picks]) + \
        jitter * np.random.default_rng(seed).standard_normal((n, d))
    ps = prompt_set(rows)
    return ps.normalized() if draw(st.booleans(), label="normalize") else ps


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ps=small_sets())
def test_roundtrip_property(ps):
    t = build_tree(ps)
    back = tree_from_json(tree_to_json(t))
    assert_same_tree(t, back)
    assert back.means.shape == (len(t), ps.dimension)


def six_prompt_tree_doc():
    """JSON document of a built 6-prompt tree: leaves 0-5, merges 6-10, root 10.

    Links: 6 = (1, 2), 7 = (6, 4), 8 = (0, 3), 9 = (7, 5), 10 = (8, 9).
    """
    rng = np.random.default_rng(3)
    doc = json.loads(tree_to_json(build_tree(prompt_set(rng.standard_normal((6, 3))))))
    assert [n["children"] for n in doc["nodes"][6:]] == [[1, 2], [6, 4], [0, 3], [7, 5], [8, 9]]
    return doc


def _leaves(doc):
    rows = np.frombuffer(base64.b64decode(doc["leaves"]), dtype="<f4")
    return rows.reshape(sum(not rec["children"] for rec in doc["nodes"]), -1).copy()


def _set_leaves(edit):
    def corrupt(doc):
        doc["leaves"] = base64.b64encode(edit(_leaves(doc)).astype("<f4").tobytes()).decode()
    return corrupt


def _nan_in_row(rows):
    rows[4, 1] = np.nan
    return rows


def _moved_leaf(rows):
    rows[1] += 0.5
    return rows


def _ulp_up(node, key):
    def corrupt(doc):
        doc["nodes"][node][key] = float(np.nextafter(doc["nodes"][node][key], np.inf))
    return corrupt


def _renumber(swap):
    """Swap the ids of two nodes everywhere they appear, leaving the tree
    intact but numbered differently."""
    def relabel(nid):
        return swap.get(nid, nid)

    def corrupt(doc):
        for rec in doc["nodes"]:
            rec["id"], rec["children"] = relabel(rec["id"]), [relabel(c) for c in rec["children"]]
        doc["nodes"].sort(key=lambda rec: rec["id"])
    return corrupt


def _swap_records(i, j):
    """Swap two records' places in the list, each keeping its id."""
    def corrupt(doc):
        nodes = doc["nodes"]
        nodes[i], nodes[j] = nodes[j], nodes[i]
    return corrupt


def _set(node, key, value):
    def corrupt(doc):
        doc["nodes"][node][key] = value
    return corrupt


def _self_loop(doc):
    # links agree locally (parent and both children are itself); its
    # children are not below it and it comes after the root
    doc["nodes"].append(dict(doc["nodes"][6], id=11, parent=11, children=[11, 11]))


def _as_text(node, key):
    # the stored value exactly, as a JSON string
    def corrupt(doc):
        doc["nodes"][node][key] = repr(doc["nodes"][node][key])
    return corrupt


CORRUPTIONS = {
    "consistent parent cycle": _self_loop,
    "child out of range": _set(6, "children", [1, 99]),
    "repeated id": _set(0, "id", 1),
    "id not an int": _set(0, "id", "0"),
    "id true for node 1": _set(1, "id", True),
    # record i must be node i, even where the ids would place every record
    "leaf records swapped": _swap_records(1, 2),
    "merge records swapped": _swap_records(6, 8),
    "links disagree": _set(6, "children", [1, 3]),
    "child listed twice": _set(6, "children", [1, 1]),
    "three children": _set(6, "children", [1, 2, 3]),
    "leaf with two members": _set(0, "members", ["p0", "p3"]),
    "leaf with its member twice": _set(0, "members", ["p0", "p0"]),
    "leaf member an int": _set(0, "members", [0]),
    "leaf members a string": _set(0, "members", "p0"),
    "leaf without members": lambda doc: doc["nodes"][0].pop("members"),
    "two leaves hold one prompt": _set(3, "members", ["p0"]),
    "raw score infinite": _set(6, "raw_score", float("inf")),
    "raw score missing": lambda doc: doc["nodes"][6].pop("raw_score"),
    "raw score one ulp up": _ulp_up(6, "raw_score"),
    "raw score a string": _as_text(6, "raw_score"),
    "child id above its parent": _renumber({6: 7, 7: 6}),
    "root not the last node": _renumber({9: 10, 10: 9}),
    "leaf after a merge": _renumber({5: 6, 6: 5}),
    "leaf moved": _set_leaves(_moved_leaf),
    # a valid tree with other links, which only the stored raw_score ties to the rows
    "children swapped between nodes": lambda doc: (_set(6, "children", [0, 2])(doc),
                                                   _set(8, "children", [1, 3])(doc)),
    "embedding not finite": _set_leaves(_nan_in_row),
    "embedding dimension": _set_leaves(lambda rows: rows.ravel()[:-1]),
    "embeddings block too long": _set_leaves(lambda rows: np.append(rows, 0.0)),
    "embeddings not base64": lambda doc: doc.update(leaves="AAAA!AAA"),
    "embeddings not a string": lambda doc: doc.update(leaves=[0.0] * 18),
    "embeddings missing": lambda doc: doc.pop("leaves"),
    "leaves block empty": lambda doc: doc.update(leaves=""),
    "no nodes": lambda doc: doc.update(nodes=[], root=0),
    # a leaf's children must be the list []
    "leaf children null": _set(2, "children", None),
    "leaf children 0": _set(2, "children", 0),
    "leaf children an object": _set(2, "children", {}),
    "leaf children a string": _set(2, "children", ""),
    "leaf children false": _set(2, "children", False),
}


class TestTreeJsonValidation:
    def test_built_tree_passes(self):
        doc = six_prompt_tree_doc()
        assert len(tree_from_json(json.dumps(doc))) == 11

    @pytest.mark.parametrize("defect", sorted(CORRUPTIONS))
    def test_defect_is_data_error(self, defect):
        doc = six_prompt_tree_doc()
        CORRUPTIONS[defect](doc)
        with pytest.raises(DataError):
            tree_from_json(json.dumps(doc))

    @pytest.mark.parametrize("defect", sorted(CORRUPTIONS))
    def test_defect_exits_3_through_simulate(self, defect, tmp_path, capsys):
        doc = six_prompt_tree_doc()
        CORRUPTIONS[defect](doc)
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps(doc))
        prompts = tmp_path / "p.jsonl"
        save_prompt_set(prompt_set(np.random.default_rng(3).standard_normal((6, 3))), str(prompts))
        assert main(["simulate", "--input", str(prompts), "--tree", str(tree_path),
                     "--k", "5", "--output", str(tmp_path / "s.jsonl")]) == 3
        assert "malformed tree JSON" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()
