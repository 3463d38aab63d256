import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shdiff.embeddings import (
    PromptSet,
    cosine_distance,
    generate_synthetic,
    load_prompt_set,
    mean_embedding,
    save_prompt_set,
)
from shdiff.errors import DataError, UsageError


class TestCosineDistance:
    def test_identical(self):
        assert cosine_distance([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_antipodal(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DataError):
            cosine_distance([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=8),
           st.lists(st.floats(-10, 10), min_size=2, max_size=8))
    def test_symmetric_and_bounded(self, a, b):
        a, b = np.array(a), np.array(b[: len(a)] + a[len(b):])
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        d1 = cosine_distance(a, b)
        d2 = cosine_distance(b, a)
        assert d1 == d2
        assert 0.0 <= d1 <= 2.0

    @given(st.lists(st.floats(0.1, 10), min_size=2, max_size=8),
           st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_zero_for_power_of_two_multiples(self, a, c):
        # Power-of-two scalars keep the scaled vector exactly parallel in
        # floating point, where "zero iff positive multiple" is testable.
        a = np.array(a)
        assert cosine_distance(a, c * a) == 0.0

    def test_positive_for_nonparallel(self):
        assert cosine_distance([1.0, 0.1], [1.0, 0.2]) > 0.0


class TestMeanEmbedding:
    def test_singleton(self):
        assert np.array_equal(mean_embedding([[1.0, 0.0]]), [1.0, 0.0])

    def test_two_point(self):
        assert np.array_equal(mean_embedding([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])

    def test_symmetric_triple(self):
        assert np.array_equal(
            mean_embedding([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]]), [1.0, 1.0]
        )

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            mean_embedding([])

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6),
           st.integers(min_value=1, max_value=7))
    def test_copies_identity(self, v, k):
        v = np.array(v)
        assert np.array_equal(mean_embedding([v] * k), v)


class TestIO:
    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        ps = generate_synthetic(2, 3, 5, 0.1, seed=1)
        save_prompt_set(ps, path, "jsonl")
        back = load_prompt_set(path)
        assert back.ids == ps.ids
        assert np.array_equal(back.embeddings, ps.embeddings)
        # save -> load -> save is byte stable
        path2 = str(tmp_path / "p2.jsonl")
        save_prompt_set(back, path2, "jsonl")
        assert (tmp_path / "p.jsonl").read_bytes() == (tmp_path / "p2.jsonl").read_bytes()

    def test_jsonl_small(self, tmp_path):
        path = tmp_path / "two.jsonl"
        path.write_text(
            '{"id": "x", "embedding": [1, 2, 3]}\n'
            '{"id": "y", "prompt": "hello", "embedding": [4, 5, 6]}\n'
        )
        ps = load_prompt_set(str(path))
        assert len(ps) == 2 and ps.dimension == 3
        assert ps.prompts == (None, "hello")

    def test_jsonl_duplicate_id_named(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id": "x", "embedding": [1, 0]}\n{"id": "x", "embedding": [0, 1]}\n'
        )
        with pytest.raises(DataError, match=r"dup\.jsonl:2: duplicate id 'x'"):
            load_prompt_set(str(path))

    def test_jsonl_dimension_mismatch_named(self, tmp_path):
        path = tmp_path / "dim.jsonl"
        path.write_text(
            '{"id": "x", "embedding": [1, 0]}\n{"id": "y", "embedding": [1, 0, 0]}\n'
        )
        with pytest.raises(DataError, match="'y'"):
            load_prompt_set(str(path))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_jsonl_not_utf8_named(self, tmp_path, newline):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(newline.join(['{"id": "x", "embedding": [1, 0]}', "",
                                       '{"id": "\xff", "embedding": [0, 1]}', ""]).encode("latin-1"))
        with pytest.raises(DataError, match=r"bad\.jsonl:3: not valid UTF-8"):
            load_prompt_set(str(path))

    @pytest.mark.parametrize("record, message", [
        ('{"id": "y", "embedding": [1%s, 0]}' % ("0" * 400), "bad embedding for id 'y'"),
        ('{"id": "y", "embedding": [1%s, 0]}' % ("0" * 5000), "malformed JSON"),
        ('{"id": "y", "embedding": %s}' % ("[" * 100_000), "malformed JSON"),
    ], ids=["int beyond float64", "int too long to parse", "nested too deep"])
    def test_jsonl_number_defects_named(self, tmp_path, record, message):
        path = tmp_path / "big.jsonl"
        path.write_text('{"id": "x", "embedding": [1, 0]}\n' + record + "\n")
        with pytest.raises(DataError, match=rf"big\.jsonl:2: {message}"):
            load_prompt_set(str(path))

    @pytest.mark.parametrize("embedding", ['["1", 0]', "[null, 1]", "[[1], 0]", "[NaN, 1]",
                                           "[Infinity, 1]", "[1e400, 1]", "[]", '"1, 0"'])
    def test_jsonl_bad_embedding_named(self, tmp_path, embedding):
        path = tmp_path / "e.jsonl"
        path.write_text('{"id": "y", "embedding": %s}\n' % embedding)
        with pytest.raises(DataError, match=r"e\.jsonl:1: bad embedding for id 'y'"):
            load_prompt_set(str(path))

    def test_jsonl_bools_and_ints_are_numbers(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('{"id": "y", "embedding": [true, false, 2, 0.5]}\n')
        assert load_prompt_set(str(path)).embeddings.tolist() == [[1.0, 0.0, 2.0, 0.5]]

    @pytest.mark.parametrize("second, message", [
        ('{"id": "x", "embedding": [NaN]}', "duplicate id 'x'"),
        ('{"id": "y", "embedding": [NaN]}', "bad embedding for id 'y'"),
        ('{"embedding": [NaN]}', "record must have 'id' and 'embedding'"),
    ], ids=["duplicate before embedding", "embedding before dimension", "keys first"])
    def test_jsonl_first_defect_reported(self, tmp_path, second, message):
        path = tmp_path / "o.jsonl"
        path.write_text('{"id": "x", "embedding": [1, 0]}\n' + second + "\n")
        with pytest.raises(DataError, match=rf"o\.jsonl:2: {message}"):
            load_prompt_set(str(path))

    def test_binary_roundtrip(self, tmp_path):
        path = str(tmp_path / "p.bin")
        ps = generate_synthetic(2, 2, 8, 0.2, seed=4)
        save_prompt_set(ps, path, "binary")
        back = load_prompt_set(path)
        assert len(back) == 4 and back.dimension == 8
        assert np.array_equal(back.embeddings, ps.embeddings)
        path2 = str(tmp_path / "p2.bin")
        save_prompt_set(back, path2, "binary")
        assert (tmp_path / "p.bin").read_bytes() == (tmp_path / "p2.bin").read_bytes()

    def test_binary_header(self, tmp_path):
        path = tmp_path / "h.bin"
        data = np.arange(32, dtype="<f4") + 1.0
        path.write_bytes(b"SHDF" + (1).to_bytes(2, "little")
                         + (4).to_bytes(8, "little") + (8).to_bytes(4, "little")
                         + data.tobytes())
        ps = load_prompt_set(str(path))
        assert len(ps) == 4 and ps.dimension == 8

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataError, match="magic"):
            load_prompt_set(str(path), "binary")

    def test_binary_truncated(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"SHDF" + (1).to_bytes(2, "little")
                         + (4).to_bytes(8, "little") + (8).to_bytes(4, "little") + b"\x00" * 8)
        with pytest.raises(DataError):
            load_prompt_set(str(path))

    @pytest.mark.parametrize("length", [4, 5, 13, 17])
    def test_binary_short_header_named(self, tmp_path, length):
        path = tmp_path / "short.bin"
        header = b"SHDF" + (1).to_bytes(2, "little") + (4).to_bytes(8, "little") + \
            (8).to_bytes(4, "little")
        path.write_bytes(header[:length])
        with pytest.raises(DataError, match=rf"short\.bin: header holds {length} bytes, not 18"):
            load_prompt_set(str(path))

    def test_binary_dimension_zero(self, tmp_path):
        # empty rows would fit any count, so a huge count must not be reached
        path = tmp_path / "flat.bin"
        path.write_bytes(b"SHDF" + (1).to_bytes(2, "little") + (2**40).to_bytes(8, "little")
                         + (0).to_bytes(4, "little"))
        with pytest.raises(DataError, match=r"flat\.bin: dimension 0"):
            load_prompt_set(str(path))


class TestSynthetic:
    def test_zero_jitter_equals_center(self):
        ps = generate_synthetic(3, 4, 6, 0.0, seed=9)
        emb = ps.embeddings
        for c in range(3):
            block = emb[c * 4:(c + 1) * 4]
            assert np.all(block == block[0])

    def test_deterministic(self):
        a = generate_synthetic(2, 3, 8, 0.3, seed=5)
        b = generate_synthetic(2, 3, 8, 0.3, seed=5)
        assert a.ids == b.ids
        assert np.array_equal(a.embeddings, b.embeddings)
        c = generate_synthetic(2, 3, 8, 0.3, seed=6)
        assert not np.array_equal(a.embeddings, c.embeddings)

    def test_unit_norm(self):
        ps = generate_synthetic(2, 2, 16, 0.2, seed=0)
        norms = np.linalg.norm(ps.embeddings.astype(np.float64), axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_bad_arguments(self):
        with pytest.raises(UsageError):
            generate_synthetic(0, 1, 4, 0.1, seed=0)
        with pytest.raises(UsageError):
            generate_synthetic(1, 1, 4, -0.1, seed=0)


class TestPromptSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            PromptSet(("a", "a"), (None, None), np.ones((2, 3), dtype=np.float32))

    def test_zero_embedding_rejected(self):
        with pytest.raises(DataError, match="'b'"):
            PromptSet(("a", "b"), (None, None),
                      np.array([[1, 0], [0, 0]], dtype=np.float32))

    def test_normalized(self):
        ps = PromptSet(("a",), (None,), np.array([[3.0, 4.0]], dtype=np.float32))
        assert np.allclose(ps.normalized().embeddings, [[0.6, 0.8]])

    def test_unknown_id(self):
        ps = PromptSet(("a",), (None,), np.array([[1.0, 0.0]], dtype=np.float32))
        with pytest.raises(UsageError):
            ps.embedding_of("zzz")
