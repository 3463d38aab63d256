import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shdiff.embeddings import (
    MAX_PROMPTS,
    MAX_SYNTH_ENTRIES,
    MAX_TREE_WORK,
    TEXT_BLOCK_VALUES,
    PromptSet,
    float32_rows_text,
    generate_synthetic,
    load_prompt_set,
    save_prompt_set,
    unit_distances,
    unit_rows,
)
from shdiff.errors import DataError, UsageError
from shdiff.rng import TAG_CENTER, TAG_RECORD, stream
from shdiff.tree import build_tree


def kernel_distance(a, b):
    """1 - cos(a, b) through the one kernel the tree builder and its oracle use."""
    return float(unit_distances(unit_rows([a])[0], unit_rows([b]))[0])


class TestCosineDistance:
    def test_identical(self):
        assert kernel_distance([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_orthogonal(self):
        assert kernel_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_antipodal(self):
        assert kernel_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DataError):
            kernel_distance([0.0, 0.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_distance([1.0, 0.0], [1.0, 0.0, 0.0])

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=8),
           st.lists(st.floats(-10, 10), min_size=2, max_size=8))
    def test_symmetric_and_bounded(self, a, b):
        a, b = np.array(a), np.array(b[: len(a)] + a[len(b):])
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        d1 = kernel_distance(a, b)
        d2 = kernel_distance(b, a)
        assert d1 == d2
        assert 0.0 <= d1 <= 2.0

    @given(st.lists(st.floats(0.1, 10), min_size=2, max_size=8),
           st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    def test_zero_for_power_of_two_multiples(self, a, c):
        # Power-of-two scalars keep the scaled vector exactly parallel in
        # floating point, where "zero iff positive multiple" is testable.
        a = np.array(a)
        assert kernel_distance(a, c * a) == 0.0

    def test_positive_for_nonparallel(self):
        assert kernel_distance([1.0, 0.1], [1.0, 0.2]) > 0.0


def built_means(rows):
    """Every node's mean in the tree built over the rows, as float32 prompts."""
    n = len(rows)
    return build_tree(PromptSet(tuple(f"p{i}" for i in range(n)), (None,) * n,
                                np.asarray(rows, dtype=np.float32))).means


class TestMeanEmbedding:
    def test_singleton(self):
        assert np.array_equal(built_means([[1.0, 0.0]])[-1], [1.0, 0.0])

    def test_two_point(self):
        assert np.array_equal(built_means([[1.0, 0.0], [0.0, 1.0]])[-1], [0.5, 0.5])

    def test_symmetric_triple(self):
        assert np.array_equal(
            built_means([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0]])[-1], [1.0, 1.0]
        )

    def test_empty_rejected(self):
        # no mean is ever taken over no rows: a prompt set holds at least one
        with pytest.raises(DataError, match="prompt set is empty"):
            PromptSet((), (), np.empty((0, 2), dtype=np.float32))

    @given(st.lists(st.floats(-5, 5, width=32), min_size=2, max_size=6),
           st.integers(min_value=1, max_value=7))
    def test_copies_identity(self, v, k):
        # exact for copies of a float32 vector, the dtype every mean is taken over
        v = np.array(v, dtype=np.float32)
        assume(v.any())
        assert all(np.array_equal(mean, v) for mean in built_means([v] * k))


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
                                           "[Infinity, 1]", "[1e400, 1]", "[]", '"1, 0"',
                                           "[1e39, 1]", "[0, -3.5e38]", "[%d, 1]" % 10**39])
    def test_jsonl_bad_embedding_named(self, tmp_path, embedding):
        path = tmp_path / "e.jsonl"
        path.write_text('{"id": "y", "embedding": %s}\n' % embedding)
        with pytest.raises(DataError, match=r"e\.jsonl:1: bad embedding for id 'y'"):
            load_prompt_set(str(path))

    def test_jsonl_float32_max_accepted(self, tmp_path):
        # 3.4028235e38 rounds to the largest float32, which is finite
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "y", "embedding": [3.4028235e38, -3.4028235e38]}\n')
        big = float(np.finfo(np.float32).max)
        assert load_prompt_set(str(path)).embeddings.tolist() == [[big, -big]]

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

    @pytest.mark.parametrize("record, message", [
        ('{"id": {"a": 1}, "embedding": [1, 0]}', r"id \{'a': 1\} is not a string or an integer"),
        ('{"id": null, "embedding": [1, 0]}', "id None is not a string or an integer"),
        ('{"id": true, "embedding": [1, 0]}', "id True is not a string or an integer"),
        ('{"id": 1.5, "embedding": [1, 0]}', "id 1.5 is not a string or an integer"),
        ('{"id": ["y"], "embedding": [1, 0]}', r"id \['y'\] is not a string or an integer"),
        ('{"id": "y", "prompt": 5, "embedding": [1, 0]}',
         "prompt of id 'y' is not a string or null"),
        ('{"id": "y", "prompt": ["a"], "embedding": [1, 0]}',
         "prompt of id 'y' is not a string or null"),
        ('{"id": "y", "prompt": false, "embedding": [1, 0]}',
         "prompt of id 'y' is not a string or null"),
    ], ids=["id object", "id null", "id true", "id float", "id list", "prompt int",
            "prompt list", "prompt false"])
    def test_jsonl_field_types_named(self, tmp_path, record, message):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "x", "embedding": [1, 0]}\n' + record + "\n")
        with pytest.raises(DataError, match=rf"t\.jsonl:2: {message}"):
            load_prompt_set(str(path))

    def test_jsonl_int_ids_and_null_prompts(self, tmp_path):
        path = tmp_path / "i.jsonl"
        path.write_text('{"id": 7, "prompt": null, "embedding": [1, 0]}\n'
                        '{"id": -2, "prompt": "p", "embedding": [0, 1]}\n')
        ps = load_prompt_set(str(path))
        assert ps.ids == ("7", "-2") and ps.prompts == (None, "p")

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

    @staticmethod
    def binary_load_peak(tmp_path):
        """A 4,096 x 256 SHDF set (a 4 MiB payload), its rows as loaded and
        the load's tracemalloc peak."""
        path = str(tmp_path / "p.bin")
        rows = np.random.default_rng(3).standard_normal((4096, 256)).astype(np.float32)
        save_prompt_set(PromptSet(tuple(map(str, range(4096))), (None,) * 4096, rows),
                        path, "binary")
        tracemalloc.start()
        try:
            back = load_prompt_set(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return rows, back.embeddings, peak

    def test_binary_rows_used_as_read(self, tmp_path):
        # the payload is read into one bytes object and the set keeps a view
        # of it: no joined read buffer, no float32 copy, no float64 norm pass
        rows, loaded, peak = self.binary_load_peak(tmp_path)
        assert np.array_equal(loaded, rows) and not loaded.flags.writeable
        assert peak < 2 * rows.nbytes

    def test_binary_load_holds_little_beyond_payload(self, tmp_path):
        # finiteness is checked by one sum, not through an N x d bool mask,
        # which alone is a quarter of the payload
        rows, _, peak = self.binary_load_peak(tmp_path)
        assert peak < 1.2 * rows.nbytes

    def test_unknown_format(self, tmp_path):
        ps = generate_synthetic(1, 2, 3, 0.1, seed=0)
        with pytest.raises(UsageError, match="unknown format 'csv'"):
            save_prompt_set(ps, str(tmp_path / "p.csv"), "csv")
        assert not list(tmp_path.iterdir())

    def test_binary_bad_magic(self, tmp_path):
        # without the magic bytes the file is read as JSONL
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataError, match=r"bad\.bin:1: malformed JSON"):
            load_prompt_set(str(path))

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

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_prompt_cap_files(self, tmp_path, fmt):
        path = tmp_path / "cap"
        for n in (MAX_PROMPTS, MAX_PROMPTS + 1):
            if fmt == "binary":
                path.write_bytes(b"SHDF\x01\x00" + n.to_bytes(8, "little")
                                 + (1).to_bytes(4, "little") + np.ones(n, dtype="<f4").tobytes())
            else:
                path.write_text("".join('{"id": %d, "embedding": [1]}\n' % i for i in range(n)))
            tracemalloc.start()
            try:
                if n == MAX_PROMPTS:
                    assert len(load_prompt_set(str(path))) == n
                else:
                    where = (f"cap: prompt set holds {n} prompts, more than {MAX_PROMPTS}"
                             if fmt == "binary" else
                             f"cap:{n}: prompt set holds more than {MAX_PROMPTS} prompts")
                    with pytest.raises(DataError, match=where):
                        load_prompt_set(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**22, n

    @pytest.mark.parametrize("fmt", ["jsonl", "binary"])
    def test_tree_work_cap_files(self, tmp_path, fmt):
        # at d=65 the bound admits at most 8,128 prompts, fewer than
        # MAX_PROMPTS: one more is rejected, the JSONL file before its last
        # line is parsed and the SHDF file at its header
        path, d = tmp_path / "work", 65
        assert 8128**2 * d <= MAX_TREE_WORK < 8129**2 * d and 8129 < MAX_PROMPTS
        for n in (8128, 8129):
            if fmt == "binary":
                path.write_bytes(b"SHDF\x01\x00" + n.to_bytes(8, "little")
                                 + d.to_bytes(4, "little") + np.ones(n * d, dtype="<f4").tobytes())
            else:
                record = '{"id": %d, "embedding": [' + ",".join("1" * d) + "]}\n"
                path.write_text("".join(record % i for i in range(n)))
            tracemalloc.start()
            try:
                if n == 8128:
                    assert load_prompt_set(str(path)).embeddings.shape == (n, d)
                else:
                    where = "work" if fmt == "binary" else "work:8129"
                    with pytest.raises(DataError, match=rf"{where}: 8129 prompts of dimension 65 "
                                       rf"are more tree work than N\^2 d = {MAX_TREE_WORK}$"):
                        load_prompt_set(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # far below the 504 MiB of one 8,128 x 8,128 float64 matrix, and
            # nothing of the rejected SHDF payload is read
            assert peak < (2**16 if fmt == "binary" and n > 8128 else 2**24), n


def _dumps_rows(rows):
    return [json.dumps(row.tolist()) for row in rows]


class TestFloat32Text:
    """float32_rows_text against json.dumps of the same rows."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(21).integers(0, 2**32, size=2**20, dtype=np.uint64)
        x = bits.astype(np.uint32).view(np.float32)
        x = np.where(np.isfinite(x), x, np.float32(0.5)).reshape(-1, 256)
        assert list(float32_rows_text(x)) == _dumps_rows(x)

    def test_powers_and_range_edges(self):
        f32 = np.float32
        info = np.finfo(f32)
        exact = ([2.0**k for k in range(-149, 128)] + [10.0**k for k in range(-45, 39)]
                 + [1e-4, 1e16, info.max, info.smallest_subnormal])
        values = [0.0, -0.0]
        with np.errstate(over="ignore"):
            for v in map(f32, exact):
                for w in (v, np.nextafter(v, f32(np.inf)), np.nextafter(v, f32(0))):
                    if np.isfinite(w) and w != 0:
                        values += [w, -w]
        x = np.array(values, dtype=f32)
        for rows in (x[None, :], x[:, None]):
            assert list(float32_rows_text(rows)) == _dumps_rows(rows)

    @pytest.mark.parametrize("n, m", [(2 * (TEXT_BLOCK_VALUES // 100) + 1, 100),
                                      (3, TEXT_BLOCK_VALUES + 1), (3, 0), (0, 3)])
    def test_block_boundaries(self, n, m):
        x = np.random.default_rng(n).standard_normal((n, m)).astype(np.float32)
        assert list(float32_rows_text(x)) == _dumps_rows(x)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40))
    def test_property(self, values):
        x = np.array(values, dtype=np.float32)
        for rows in (x[None, :], x[:, None]):
            assert list(float32_rows_text(rows)) == _dumps_rows(rows)

    @pytest.mark.parametrize("off", [1, -1], ids=["p one too low", "p one too high"])
    def test_log10_estimate_corrected(self, monkeypatch, off):
        # np.log10 seldom misses floor(log10(a)), so force every first
        # estimate of the scale p off by one and let the correction mend it
        bits = np.random.default_rng(22).integers(0, 2**32, size=2**14, dtype=np.uint64)
        x = bits.astype(np.uint32).view(np.float32)
        x = np.concatenate([np.where(np.isfinite(x), x, np.float32(0.5)),
                            np.float32(10.0) ** np.arange(-4, 16, dtype=np.float32),
                            np.random.default_rng(23).standard_normal(4096).astype(np.float32)])
        rows = x.reshape(-1, 20)
        expected = _dumps_rows(rows)
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
        assert list(float32_rows_text(rows)) == expected

    @pytest.mark.parametrize("rows", [np.array([[1.0, np.inf]], dtype=np.float32),
                                      np.array([[np.nan]], dtype=np.float32),
                                      np.ones((1, 2)), np.ones(2, dtype=np.float32)],
                             ids=["inf", "nan", "float64", "1-d"])
    def test_rejected(self, rows):
        with pytest.raises(ValueError):
            next(float32_rows_text(rows))


class TestSynthetic:
    def test_zero_jitter_equals_center(self):
        ps = generate_synthetic(3, 4, 6, 0.0, seed=9)
        emb = ps.embeddings
        for c in range(3):
            block = emb[c * 4:(c + 1) * 4]
            assert np.all(block == block[0])

    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    def test_each_record_from_its_own_streams(self, jitter):
        # The block form has the bits of one record at a time: a row's sum of
        # squares is the same fixed-order add.reduce in a block or alone.
        ps = generate_synthetic(3, 4, 70, jitter, seed=9)
        for i in range(12):
            v = stream(9, TAG_CENTER, i // 4).standard_normal(70)
            v /= np.sqrt(np.add.reduce(v * v))
            if jitter:
                v = v + jitter * stream(9, TAG_RECORD, i).standard_normal(70)
                v /= np.sqrt(np.add.reduce(v * v))
            assert ps.embeddings[i].tobytes() == v.astype(np.float32).tobytes()

    @pytest.mark.parametrize("clusters, per_cluster", [(1, 4096), (4096, 1)])
    def test_peak_at_entry_cap(self, clusters, per_cluster):
        # Two float64 blocks of records at most: the records beside their
        # scaled draws, then beside their squares or their unit rows.
        tracemalloc.start()
        try:
            generate_synthetic(clusters, per_cluster, MAX_SYNTH_ENTRIES // 4096, 0.1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * MAX_SYNTH_ENTRIES + 2**21

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

    @pytest.mark.parametrize("rows", [np.ones((3, 2)), np.ones(2), np.ones((2, 0))],
                             ids=["three rows", "1-D", "no columns"])
    def test_shape_not_of_ids_rejected(self, rows):
        with pytest.raises(DataError, match="embedding matrix shape does not match ids"):
            PromptSet(("a", "b"), (None, None), rows)

    @pytest.mark.parametrize("rows", [[[1, np.inf], [1, 1]], [[np.inf, 1], [-np.inf, 1]],
                                      [[1, 1], [np.nan, 1]]], ids=["inf", "inf and -inf", "nan"])
    def test_non_finite_rejected(self, rows):
        with pytest.raises(DataError, match="non-finite embedding entries"):
            PromptSet(("a", "b"), (None, None), np.array(rows, dtype=np.float32))

    def test_largest_finite_accepted(self):
        # the one float64 sum of the largest set of the largest values is finite
        n, big = MAX_PROMPTS, np.finfo(np.float32).max
        rows = np.full((n, 4), big, dtype=np.float32)
        assert len(PromptSet(tuple(map(str, range(n))), (None,) * n, rows)) == n

    def test_prompt_cap(self):
        ids = tuple(str(i) for i in range(MAX_PROMPTS + 1))
        rows = np.ones((MAX_PROMPTS + 1, 1), dtype=np.float32)
        assert len(PromptSet(ids[:-1], (None,) * MAX_PROMPTS, rows[:-1])) == MAX_PROMPTS
        with pytest.raises(DataError, match=f"{MAX_PROMPTS + 1} prompts, more than {MAX_PROMPTS}"):
            PromptSet(ids, (None,) * (MAX_PROMPTS + 1), rows)

    def test_normalized(self):
        ps = PromptSet(("a",), (None,), np.array([[3.0, 4.0]], dtype=np.float32))
        assert np.allclose(ps.normalized().embeddings, [[0.6, 0.8]])
