import numpy as np
import pytest

from shdiff import rng
from shdiff.rng import TAG_INIT, TAG_SAMPLE, TAG_STEP, normal_rows, stream, stream_keys

# Keys pinned from the pure-Python splitmix64 chain the package first shipped
# with; every stored seed and sample depends on them.
PINNED_KEYS = [
    ((0,), (0x6E789E6AA1B965F4, 0x8249D16640921B3E)),
    ((101, TAG_INIT, 7), (0xDB849CAA32E74FCE, 0x64B0C77368755369)),
    ((101, TAG_STEP, 7, 3), (0x0131A4258626BAC3, 0x0C1D2231C9F27EF7)),
    ((-1, TAG_INIT, 0), (0xD8EF386F27F10A03, 0x8EC28B5F11E61B61)),
    ((2**64 + 5, TAG_STEP, 3, 200), (0xCF97B705CD1CB8B8, 0x3ED29031FDBB8545)),
    ((2**63 + 5, TAG_INIT, 511), (0xBB0D030B6156F37F, 0xFDA6755FDF5F528E)),
    ((), (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4)),
    ((-12345, TAG_SAMPLE), (0x29D459A9F030B8D9, 0x991DEF9673D0A625)),
]


def key_of(*parts):
    """The key of one stream as Python ints, from the 0-d words of stream_keys."""
    lo, hi = stream_keys(*parts)
    return int(lo), int(hi)


@pytest.mark.parametrize("parts,key", PINNED_KEYS)
def test_stream_key_pinned(parts, key):
    assert key_of(*parts) == key


def test_stream_keys_over_arrays_equal_stream_key():
    nodes = np.array([0, 7, 511, 2**40, -3])
    steps = np.array([1, 200, 3, 2**63 + 9, 5], dtype=np.uint64)
    for seed in (101, -1, 2**64 + 5):
        lo, hi = stream_keys(seed, TAG_STEP, nodes, steps)
        assert lo.dtype == hi.dtype == np.uint64
        for i in range(len(nodes)):
            assert (int(lo[i]), int(hi[i])) == key_of(seed, TAG_STEP, int(nodes[i]),
                                                      int(steps[i]))
        lo, hi = stream_keys(seed, TAG_INIT, nodes)
        assert [(int(a), int(b)) for a, b in zip(lo, hi)] == \
            [key_of(seed, TAG_INIT, int(n)) for n in nodes]


@pytest.mark.parametrize("nodes", [[5, 2**63 + 1, 0, 7], [-1, 2**63 + 1]],
                         ids=["below and above 2**63", "negative and above 2**63"])
def test_list_parts_are_ints(nodes):
    # numpy reads such a list as float64, which loses the low bits
    seed = 2**63 + 11
    rows = [row.copy() for row in normal_rows(4, seed, TAG_INIT, nodes)]
    for node, row in zip(nodes, rows, strict=True):
        assert np.array_equal(row, stream(seed, TAG_INIT, node).standard_normal(4))
    lo, hi = stream_keys(seed, TAG_INIT, nodes)
    assert [(int(a), int(b)) for a, b in zip(lo, hi)] == [key_of(seed, TAG_INIT, n) for n in nodes]


@pytest.mark.parametrize("part", [np.array([1.5]), np.array([1.0, 2.0]), np.array([True])],
                         ids=["fraction", "whole floats", "bool"])
def test_non_integer_array_part_rejected(part):
    with pytest.raises(TypeError, match="not an integer array"):
        stream_keys(3, TAG_INIT, part)


def test_stream_keys_empty_batch():
    lo, hi = stream_keys(3, TAG_INIT, [])
    assert lo.shape == hi.shape == (0,)


@pytest.mark.parametrize("m", [1, 64])
@pytest.mark.parametrize("kept", [True, False], ids=["new-rows", "out"])
def test_normal_rows_equal_fresh_streams(m, kept):
    # a key chunk and three more keys, so the rows cross a chunk boundary
    seed, nodes = 2**64 - 7, np.arange(rng._CHUNK + 3, dtype=np.uint64) + np.uint64(2**63 - 2)
    lo, hi = stream_keys(seed, TAG_STEP, nodes, 5)
    assert (lo >= 2**63).any() and (hi >= 2**63).any()
    rows = normal_rows(m, seed, TAG_STEP, nodes, 5)
    if kept:  # a caller that keeps rows copies each out of the one buffer
        got = [row.copy() for row in rows]
        assert len(got) == nodes.size
        for node, row in zip(nodes.tolist(), got, strict=True):
            assert np.array_equal(row, stream(seed, TAG_STEP, node, 5).standard_normal(m))
        return
    first = next(rows)
    assert np.array_equal(first, stream(seed, TAG_STEP, int(nodes[0]), 5).standard_normal(m))
    for node, row in zip(nodes[1:].tolist(), rows, strict=True):
        assert row is first  # every row is drawn into one buffer
        assert np.array_equal(row, stream(seed, TAG_STEP, node, 5).standard_normal(m))


def test_normal_rows_empty_batch():
    assert list(normal_rows(8, 3, TAG_INIT, [])) == []


def test_interleaved_normal_rows_keep_their_own_streams():
    # read as execute_plan reads them: a span's initial row, held while the
    # span's step rows are drawn, then the next span's
    seed, m = 2**63 + 11, 16
    nodes, ks = np.array([5, 2**63 + 1, 0, 7], dtype=np.uint64), [1, 2, 3]
    init_rows = normal_rows(m, seed, TAG_INIT, nodes)
    step_rows = normal_rows(m, seed, TAG_STEP, np.repeat(nodes, 3), np.tile(ks, nodes.size))
    for node in nodes.tolist():
        x = next(init_rows)
        for k, noise in zip(ks, step_rows):
            assert np.array_equal(noise, stream(seed, TAG_STEP, node, k).standard_normal(m))
            assert not np.shares_memory(noise, x)
        assert np.array_equal(x, stream(seed, TAG_INIT, node).standard_normal(m))
    assert next(init_rows, None) is None and next(step_rows, None) is None
