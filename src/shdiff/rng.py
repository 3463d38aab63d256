"""Counter-based random streams.

Every random draw in the package comes from a Philox generator keyed by a
tuple of integers (seed, purpose tag, ...indices).  Streams with distinct
keys are statistically independent and a given key always reproduces the
same sequence, so results do not depend on the order in which streams are
consumed -- the property the executor relies on, and that lets
``run_standard`` check it with one fresh stream per key.  ``stream`` builds
a generator per key; ``keyed_generators`` walks a batch of keys with one
Philox generator per iterator, whose state it resets to the start of each
key's stream, which draws the same numbers, and ``normal_rows`` draws one
row from each.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

_MASK = (1 << 64) - 1

# Purpose tags keep streams for different uses disjoint under one seed.
TAG_CENTER = 0x01  # synthetic cluster centers
TAG_RECORD = 0x02  # synthetic per-record jitter
TAG_RANDENC = 0x03  # random-encoding ablation vectors
TAG_INIT = 0x04  # initial diffusion noise per node
TAG_STEP = 0x05  # ancestral step noise, one stream per (node, first step) span
TAG_CONDMAP = 0x06  # toy-world condition matrix
TAG_SAMPLE = 0x07  # diversity metric subsampling


def _splitmix64(x):
    # Works on Python ints and on uint64 arrays alike: for arrays the masks
    # are no-ops and the arithmetic wraps modulo 2**64 by itself.
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, (z ^ (z >> 31)) & _MASK


def stream_keys(*parts) -> tuple[np.ndarray, np.ndarray]:
    """Mix key parts into 128-bit Philox keys via a splitmix64 chain.

    Each part is an int, an integer array or a sequence of ints, taken
    modulo 2**64 (negative values included); an array of any other dtype
    raises TypeError.  Array and sequence parts broadcast against each
    other, so one call keys a whole batch of streams.  Returns the (lo, hi)
    key words as uint64 arrays of the broadcast shape (0-d when every part
    is an int).
    """
    state = 0
    out = 0
    for p in parts:
        if isinstance(p, int):
            p &= _MASK
        elif isinstance(p, (np.ndarray, np.generic)):
            if p.dtype.kind not in "iu":
                raise TypeError(f"key part of dtype {p.dtype} is not an integer array")
            p = np.atleast_1d(p).astype(np.uint64)
        else:  # element by element: numpy reads ints below and above 2**63 as float64
            p = np.array([operator.index(v) & _MASK for v in p], dtype=np.uint64)
        state, mixed = _splitmix64(state ^ p)
        out ^= mixed
    state, lo = _splitmix64(state)
    _, hi = _splitmix64(state ^ out)
    return np.asarray(lo, dtype=np.uint64), np.asarray(hi, dtype=np.uint64)


def stream(*parts: int) -> np.random.Generator:
    """Return an independent generator for the given key parts."""
    bitgen = np.random.Philox(key=np.array(stream_keys(*parts), dtype=np.uint64))
    return np.random.Generator(bitgen)


def keyed_generators(*parts) -> Iterator[np.random.Generator]:
    """Yield a generator at the start of each stream ``stream_keys(*parts)``
    keys, in C order of the broadcast shape; each draws what
    ``stream(...)`` on that stream's int parts would.

    It is one generator, re-keyed for each stream, so a stream can be drawn
    from only until the next one is taken.
    """
    lo, hi = (np.ravel(words).tolist() for words in stream_keys(*parts))
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # Philox's whole state is its key and counter.  Assigning this dict,
    # holding a stream's key, restarts that key's stream: the counter at 0,
    # no buffered output words and no half-used 64-bit word, whatever the
    # previous stream drew.  Only the key changes between streams.
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    inner = state["state"]
    for key in zip(lo, hi):
        inner["key"] = key
        bitgen.state = state
        yield gen


def normal_rows(m: int, *parts) -> Iterator[np.ndarray]:
    """Yield the first m standard normals of each stream ``stream_keys(*parts)``
    keys, in C order of the broadcast shape; each row has the bits of
    ``stream(...).standard_normal(m)`` on that stream's int parts.
    """
    for gen in keyed_generators(*parts):
        yield gen.standard_normal(m)
