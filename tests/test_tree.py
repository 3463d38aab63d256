import numpy as np
import pytest

from shdiff.embeddings import PromptSet, generate_synthetic, cosine_distance
from shdiff.errors import UsageError
from shdiff.tree import (
    build_tree,
    path_to_root,
    randomize_encodings,
    reembed,
    reference_build_tree,
    structurally_equal,
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


class TestBuildTree:
    def test_single_prompt(self):
        t = build_tree(prompt_set([[1.0, 0.0]]))
        assert len(t) == 1 and t.root == 0
        assert t.c_max == 0.0 and t.nodes[0].score == 0.0

    def test_two_identical(self):
        t = build_tree(prompt_set([[0.6, 0.8], [0.6, 0.8]]))
        assert len(t) == 3
        assert t.nodes[t.root].score == 0.0
        assert t.inversion_count == 0

    def test_four_point_structure(self):
        vecs = np.array([[1.0, 0.0], [0.99, 0.141], [0.0, 1.0], [0.141, 0.99]])
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        t = build_tree(prompt_set(vecs))
        members = {n.members for n in t.nodes if not n.is_leaf}
        assert frozenset({"p0", "p1"}) in members
        assert frozenset({"p2", "p3"}) in members
        root = t.nodes[t.root]
        for child in root.children:
            assert t.nodes[child].score <= root.score
        assert structurally_equal(t, reference_build_tree(prompt_set(vecs)))

    def test_zero_norm_root_mean_allowed(self):
        # The root's mean is never compared with anything, so antipodal
        # prompts still build.
        t = build_tree(prompt_set([[1.0, 0.0], [-1.0, 0.0]]))
        assert t.c_max == 2.0
        assert not np.any(t.nodes[t.root].embedding)

    def test_duplicated_set_all_zero(self):
        t = build_tree(prompt_set([[0.3, 0.4, 0.5]] * 6))
        assert t.c_max == 0.0
        assert all(n.score == 0.0 for n in t.nodes)

    def test_node_counts_and_partitions(self):
        ps = random_prompt_set(9, 5, seed=3)
        t = build_tree(ps)
        assert len(t) == 2 * 9 - 1
        internal = [n for n in t.nodes if not n.is_leaf]
        assert len(internal) == 8
        for n in internal:
            a, b = n.children
            assert t.nodes[a].members | t.nodes[b].members == n.members
            assert not (t.nodes[a].members & t.nodes[b].members)
        assert t.nodes[t.root].members == set(ps.ids)

    def test_score_monotone_after_clamp(self):
        for seed in range(10):
            t = build_tree(random_prompt_set(12, 4, seed=seed))
            for n in t.nodes:
                if n.parent is not None:
                    assert n.score <= t.nodes[n.parent].score

    def test_internal_embedding_is_member_mean(self):
        for seed in range(5):
            ps = random_prompt_set(10, 6, seed=100 + seed)
            t = build_tree(ps)
            for n in t.nodes:
                idx = [ps.index_of(pid) for pid in n.members]
                mean = ps.embeddings[idx].astype(np.float64).mean(axis=0)
                assert np.allclose(n.embedding, mean, rtol=1e-12, atol=1e-15)

    def test_raw_score_is_merge_distance(self):
        ps = random_prompt_set(6, 3, seed=8)
        t = build_tree(ps)
        root = t.nodes[t.root]
        a, b = root.children
        expected = cosine_distance(t.nodes[a].embedding, t.nodes[b].embedding)
        assert root.raw_score == pytest.approx(expected, rel=1e-12)


class TestReference:
    def test_guard_rail(self):
        with pytest.raises(UsageError):
            reference_build_tree(random_prompt_set(65, 2, seed=0))

    def test_two_prompts(self):
        ps = random_prompt_set(2, 4, seed=1)
        assert structurally_equal(build_tree(ps), reference_build_tree(ps))

    def test_three_collinear_merge_order(self):
        # angles 0, 0.3, 0.9 rad: closest pair (p0, p1) merges first
        angles = [0.0, 0.3, 0.9]
        vecs = [[np.cos(a), np.sin(a)] for a in angles]
        t = reference_build_tree(prompt_set(vecs))
        first_merge = t.nodes[3]
        assert first_merge.members == {"p0", "p1"}

    def test_matches_production_on_exact_ties(self):
        # Repeats of a few sign vectors under shuffled, non-sequential ids
        # give exact-zero distances and exact ties, so the tie rule on
        # (min member id, max member id) decides most merges.
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            base = rng.choice([-1.0, 1.0], size=(int(rng.integers(1, 5)), 3))
            vecs = base[rng.integers(0, len(base), size=n)]
            ids = [f"q{v}" for v in rng.choice(1000, size=n, replace=False)]
            ps = prompt_set(vecs, ids)
            assert structurally_equal(build_tree(ps), reference_build_tree(ps), score_tol=0.0)

    def test_matches_production_on_random_sets(self):
        for seed in range(40):
            n = 2 + seed % 7
            ps = random_prompt_set(n, 4, seed=seed)
            assert structurally_equal(build_tree(ps), reference_build_tree(ps))


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
        with pytest.raises(UsageError):
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


class TestReembed:
    def test_replaces_embeddings_keeps_scores(self):
        ps = random_prompt_set(6, 4, seed=11)
        abl = build_tree(randomize_encodings(ps, seed=2))
        hybrid = reembed(abl, ps)
        assert [n.score for n in hybrid.nodes] == [n.score for n in abl.nodes]
        for n in hybrid.nodes:
            idx = [ps.index_of(pid) for pid in n.members]
            mean = ps.embeddings[idx].astype(np.float64).mean(axis=0)
            assert np.allclose(n.embedding, mean, rtol=1e-12, atol=1e-15)

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
        assert structurally_equal(t, back, score_tol=0.0)
        assert back.root == t.root
        assert back.c_max == t.c_max
        assert back.inversion_count == t.inversion_count
        for n, n2 in zip(t.nodes, back.nodes):
            assert np.array_equal(n.embedding, n2.embedding)
