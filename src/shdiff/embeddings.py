"""Prompt embeddings: distances, means, file I/O, synthetic generation.

Embeddings are stored as 32-bit floats; all distance and mean arithmetic is
done in 64-bit, rounding back to 32-bit only at serialization boundaries.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from .errors import DataError, UsageError
from .rng import TAG_CENTER, TAG_RECORD, normal_rows

BINARY_MAGIC = b"SHDF"
BINARY_VERSION = 1

# Largest prompt set.  A tree build holds an N x N float64 matrix and costs
# O(N^2 d): at d=64 it took 4.9 s with a 179 MB peak RSS at N=4,096 and
# 19.5 s with 579 MB at N=8,192 (Python 3.11, numpy 2.4, a shared 2-core
# machine); 2**16 prompts would need a 32 GiB matrix.
MAX_PROMPTS = 2**13


@dataclass(frozen=True)
class PromptSet:
    """Ordered collection of (id, optional prompt text, embedding).

    Row i of ``embeddings`` (float32, shape (N, d)) belongs to ``ids[i]``.
    """

    ids: tuple[str, ...]
    prompts: tuple[str | None, ...]
    embeddings: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.ids) == 0:
            raise DataError("prompt set is empty")
        if len(self.ids) > MAX_PROMPTS:
            raise DataError(f"prompt set holds {len(self.ids)} prompts, more than {MAX_PROMPTS}")
        seen: set[str] = set()
        for pid in self.ids:
            if pid in seen:
                raise DataError(f"duplicate prompt id {pid!r}")
            seen.add(pid)
        emb = np.asarray(self.embeddings, dtype=np.float32)
        if emb.ndim != 2 or emb.shape[0] != len(self.ids) or emb.shape[1] < 1:
            raise DataError("embedding matrix shape does not match ids")
        if not np.all(np.isfinite(emb)):
            raise DataError("non-finite embedding entries")
        norms = np.linalg.norm(emb.astype(np.float64), axis=1)
        if np.any(norms == 0.0):
            bad = self.ids[int(np.argmin(norms))]
            raise DataError(f"zero-norm embedding for id {bad!r}")
        emb.setflags(write=False)
        object.__setattr__(self, "embeddings", emb)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimension(self) -> int:
        return int(self.embeddings.shape[1])

    def normalized(self) -> "PromptSet":
        """Return a copy with every embedding scaled to unit L2 norm."""
        emb = self.embeddings.astype(np.float64)
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        return PromptSet(self.ids, self.prompts, emb.astype(np.float32))


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Float64 copy of a (rows, d) matrix with every row scaled to unit L2 norm.

    Each row's norm is a reduction over that row alone, so a vector gets the
    same unit form whichever matrix it is normalized in.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(arr, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DataError("cosine distance undefined for zero-norm vector")
    return arr / norms


def unit_distances(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """1 - cos(u, r) in [0, 2] for each row r, all inputs already unit-norm;
    u may also be a matrix of rows paired with ``rows``.

    For unit vectors 1 - cos == |a - b|^2 / 2.  This form is exact at the
    endpoints: identical inputs give 0 and antipodal unit inputs give 2,
    with no catastrophic cancellation near 0.
    """
    diff = rows - u
    diff *= diff  # in place: one temporary instead of two, same bits
    return np.minimum(2.0, np.sum(diff, axis=1) / 2.0)


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), in [0, 2]; raises on zero-norm or mismatched inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise UsageError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # Both sides go through one normalization call, so d(a, b) == d(b, a).
    units = unit_rows(np.stack([a, b]))
    return float(unit_distances(units[0], units[1:])[0])


def mean_embedding(members: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Entrywise arithmetic mean (float64) of a non-empty list of vectors."""
    arr = np.asarray(members, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise UsageError("mean_embedding requires a non-empty list of vectors")
    if np.all(arr == arr[0]):
        # Exact for duplicated members; sum/count can drift by an ulp.
        return arr[0].copy()
    return np.sum(arr, axis=0) / arr.shape[0]


# Float32 values as text.  repr(float(v)) of a float32 v is the shortest
# decimal that reads back as the float64 v, the nearest such on a tie of
# length (even last digit on a tie of distance), written positionally for
# 1e-4 <= |v| < 1e16.  _shortest_digits finds those digits for a whole
# block with exact arithmetic on scaled integers; _values_text lays them out.
TEXT_BLOCK_VALUES = 8192  # values per formatted block; bounds its temporaries
_POW10 = 10.0 ** np.arange(23)  # exact in float64
# 10**p as its top 26 significand bits plus the rest (at most 27 bits): each
# part times a 24-bit float32 significand is exact in float64, and for
# 1e-4 <= a < 1e16 and p within one of 16 - log10(a), a times the top part is
# a whole number (its lowest set bit is 2**1 or above).
_POW10_HI = (_POW10.view(np.uint64) & ~np.uint64(2**27 - 1)).view(np.float64)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
# The ASCII digits of 0..9999, four bytes per entry, read as one uint32.
_DIGITS4 = np.ascontiguousarray(np.moveaxis(np.indices((10,) * 4, dtype=np.uint8), 0, -1)
                                + ord("0")).view(np.uint32).ravel()
# Source columns 0-3: ".", "0", "-" and the lead digit, one uint32 per digit;
# columns 4-19 hold the other 16 digits.
_LEAD = np.frombuffer(b"".join(b".0-%d" % d for d in range(10)), dtype=np.uint32)
_FIELD = 25  # longest repr of a float32 (23 bytes) and ", "


def _layouts() -> np.ndarray:
    """The source column of each byte of a value's text, one row per sign and
    decimal point position d in [-3, 16] (the value is 0.DIGITS * 10**d):
    row 20 * negative + d + 3."""
    digits = list(range(3, 20))
    rows = []
    for sign in ([], [2]):
        for point in range(-3, 17):
            if point <= 0:
                cols = sign + [1, 0] + [1] * -point + digits
            else:
                cols = sign + digits[:point] + [0] + digits[point:]
            rows.append(cols + [1] * (_FIELD - len(cols)))
    return np.array(rows, dtype=np.uint8)


_LAYOUTS = _layouts()


def _scaled(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**p, exactly, as its integer part (int64) and its fraction."""
    lo = a * _POW10_LO[p]
    lo_int = np.floor(lo)
    return (a * _POW10_HI[p]).astype(np.int64) + lo_int.astype(np.int64), lo - lo_int


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For float64 values 1e-4 <= a < 1e16, each a float32: the decimal repr
    gives, as 17 digits (an int64 D, trailing zeros included), the decimal
    point position (a = 0.D * 10**point) and the number of digits kept."""
    # X = a * 10**p in [1e16, 1e17): a's decimal digits to 17 places.
    p = 16 - np.floor(np.log10(a)).astype(np.intp)
    xi, xf = _scaled(a, p)
    shift = (xi < 10**16).astype(np.intp) - (xi >= 10**17)
    if shift.any():  # np.log10 may be off by one next to a power of ten
        p += shift
        xi, xf = _scaled(a, p)
    # Every decimal in [X - half, X + half] reads back as a: the float64
    # rounding interval, closed as a float32's 53-bit significand is even.
    # At a power of two its lower half is half as wide, but no power of two
    # in range has a shorter decimal in the part that leaves out.
    half = np.ldexp(_POW10[p], np.frexp(a)[1] - 54)
    half_int = np.floor(half)
    half_frac = half - half_int  # each sum with xf below is exact
    top = xi + half_int.astype(np.int64) + (xf >= 1.0 - half_frac)
    bottom = xi - half_int.astype(np.int64) + (xf > half_frac)
    # t, the most trailing zeros a decimal in the interval can have.  A
    # multiple of 10**(k+1) is one of 10**k, so the values still in the
    # running only shrink; t >= 0 since the interval is wider than 1.
    t = np.zeros(a.size, dtype=np.intp)
    live = np.arange(a.size)
    for k in range(1, 17):
        ok = top - top % _POW10_INT[k] >= bottom
        live, top, bottom = live[ok], top[ok], bottom[ok]
        if not live.size:
            break
        t[live] = k
    # Round X to a multiple of 10**t: the nearer one inside the interval,
    # the even one on a tie.  Both distances are below 32 where compared.
    step = _POW10_INT[t]
    rem = xi % step
    down = xi - rem
    to_down = np.minimum(rem, 32) + xf
    to_up = np.minimum(step - rem, 32) - xf
    up = (to_down > half) | ((to_up <= half) & (
        (to_up < to_down) | ((to_up == to_down) & (down // step % 2 == 1))))
    return down + up * step, 17 - p, 17 - t


def _values_text(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a 1-D finite float32 array: the bytes of repr(float(v)) + ", " for
    each v, concatenated, and the length of each."""
    a = np.abs(x).astype(np.float64)
    in_range = (a >= 1e-4) & (a < 1e16)
    fast = np.flatnonzero(in_range)  # the others are formatted by repr below
    digits, point, kept = _shortest_digits(a[fast])
    hi, lo = np.divmod(digits, 10**8)
    src = np.empty((fast.size, 20), dtype=np.uint8)
    words = src.view(np.uint32)
    words[:, 0] = _LEAD[hi // 10**8]
    words[:, 1] = _DIGITS4[hi // 10**4 % 10**4]
    words[:, 2] = _DIGITS4[hi % 10**4]
    words[:, 3] = _DIGITS4[lo // 10**4]
    words[:, 4] = _DIGITS4[lo % 10**4]
    negative = np.signbit(x[fast])
    length = np.empty(x.size, dtype=np.intp)
    length[fast] = negative + np.where(point <= 0, 2 - point + kept,
                                       np.maximum(kept, point + 1) + 1)
    layout = 20 * negative + point + 3
    out = np.empty((x.size, _FIELD), dtype=np.uint8)
    for key in np.flatnonzero(np.bincount(layout)).tolist():
        sel = np.flatnonzero(layout == key)
        out[fast[sel]] = src[sel][:, _LAYOUTS[key]]
    slow = np.flatnonzero(~in_range)
    if slow.size:
        texts = [repr(v).encode() for v in x[slow].tolist()]
        length[slow] = list(map(len, texts))
        block = out[slow]
        block[np.arange(_FIELD) < length[slow, None]] = np.frombuffer(b"".join(texts), np.uint8)
        out[slow] = block
    ends = np.arange(0, _FIELD * x.size, _FIELD) + length
    out.ravel()[ends] = ord(",")
    out.ravel()[ends + 1] = ord(" ")
    length += 2
    return out[np.arange(_FIELD) < length[:, None]], length


def float32_rows_text(rows: np.ndarray) -> Iterator[str]:
    """Yield ``json.dumps(row.tolist())`` for each row of a finite float32
    (n, m) array, in order, with the same bytes.

    Rows are formatted a block of at most TEXT_BLOCK_VALUES values (or one
    row) at a time, so the text of the whole array is never held at once.
    """
    if rows.dtype != np.float32 or rows.ndim != 2:
        raise ValueError(f"expected a 2-D float32 array, got {rows.ndim}-D {rows.dtype}")
    if not np.isfinite(rows).all():
        raise ValueError("JSON has no text for a value that is not finite")
    n, m = rows.shape
    step = max(1, TEXT_BLOCK_VALUES // max(m, 1))
    for start in range(0, n, step):
        block = rows[start:start + step]
        buf, length = _values_text(block.ravel())
        text = buf.tobytes().decode("ascii")
        begin = 0
        for end in np.cumsum(length.reshape(len(block), m).sum(axis=1)).tolist():
            yield "[" + text[begin:end - 2] + "]"  # without the last ", "
            begin = end


def _jsonl_lines(prompts: PromptSet) -> Iterator[str]:
    for pid, text, row in zip(prompts.ids, prompts.prompts,
                              float32_rows_text(prompts.embeddings)):
        rec = {"id": pid} if text is None else {"id": pid, "prompt": text}
        yield json.dumps(rec)[:-1] + f', "embedding": {row}}}\n'


def atomic_write(path: str, data: str | bytes | Iterable[str]) -> None:
    """Write data, or each string an iterable yields in turn, to a temp file
    beside path and rename it over path; if anything raises, path is left
    as it was and the temp file is removed."""
    mode = "wb" if isinstance(data, bytes) else "w"
    chunks = (data,) if isinstance(data, (str, bytes)) else data
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".shdiff-tmp-")
    try:
        with os.fdopen(fd, mode) as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_prompt_set(prompts: PromptSet, path: str, fmt: str = "jsonl") -> None:
    """Write a prompt set file: the JSONL lines one at a time, or all the
    bytes of the binary format."""
    if fmt == "jsonl":
        atomic_write(path, _jsonl_lines(prompts))
    elif fmt == "binary":
        n, d = prompts.embeddings.shape
        atomic_write(path, BINARY_MAGIC + struct.pack("<HQI", BINARY_VERSION, n, d) +
                     prompts.embeddings.astype("<f4").tobytes(order="C"))
    else:
        raise UsageError(f"unknown format {fmt!r}")


_NUMBER_TYPES = {int, float, bool}  # what json.loads gives for a number, true or false


def _float32_row(vec) -> np.ndarray | None:
    """The list as a float32 row, the dtype the set stores, or None unless it
    is a non-empty list of numbers (bools count, as in Python) finite in
    float32."""
    if not isinstance(vec, list) or not vec or not set(map(type, vec)) <= _NUMBER_TYPES:
        return None
    try:
        with np.errstate(over="ignore"):  # a value beyond float32 becomes inf
            row = np.array(vec, dtype=np.float32)
    except OverflowError:  # an int beyond the float64 range
        return None
    return row if np.isfinite(row).all() else None


def _load_jsonl(path: str) -> PromptSet:
    ids: list[str] = []
    seen: set[str] = set()
    texts: list[str | None] = []
    rows: list[np.ndarray] = []
    dim: int | None = None
    # Bytes that are not UTF-8 decode to lone surrogates, which only a
    # non-ASCII line can hold and which do not encode back.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if len(ids) == MAX_PROMPTS:  # before parsing: the rest of the file is never read
                raise DataError(
                    f"{path}:{lineno}: prompt set holds more than {MAX_PROMPTS} prompts")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as e:
                    raise DataError(f"{path}:{lineno}: not valid UTF-8") from e
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as e:  # also too many digits or too deep
                raise DataError(f"{path}:{lineno}: malformed JSON: {e}") from e
            if not isinstance(rec, dict) or "id" not in rec or "embedding" not in rec:
                raise DataError(f"{path}:{lineno}: record must have 'id' and 'embedding'")
            pid, text = rec["id"], rec.get("prompt")
            if type(pid) not in (str, int):  # json gives bool for true/false
                raise DataError(f"{path}:{lineno}: id {pid!r} is not a string or an integer")
            pid = str(pid)
            if text is not None and type(text) is not str:
                raise DataError(f"{path}:{lineno}: prompt of id {pid!r} is not a string or null")
            if pid in seen:
                raise DataError(f"{path}:{lineno}: duplicate id {pid!r}")
            seen.add(pid)
            row = _float32_row(rec["embedding"])
            if row is None:
                raise DataError(f"{path}:{lineno}: bad embedding for id {pid!r}")
            if dim is None:
                dim = len(row)
            elif len(row) != dim:
                raise DataError(
                    f"{path}:{lineno}: id {pid!r} has dimension {len(row)}, expected {dim}"
                )
            if not row.any():  # all zero: the one finite row of norm 0
                raise DataError(f"{path}:{lineno}: zero-norm embedding for id {pid!r}")
            ids.append(pid)
            texts.append(text)
            rows.append(row)
    if not ids:
        raise DataError(f"{path}: no records")
    return PromptSet(tuple(ids), tuple(texts), np.stack(rows))


def _load_binary(path: str, f: BinaryIO) -> PromptSet:
    """The rest of an SHDF file, read from ``f`` just past its magic bytes."""
    size = 4 + struct.calcsize("<HQI")
    header = BINARY_MAGIC + f.read(size - 4)
    if len(header) < size:
        raise DataError(f"{path}: header holds {len(header)} bytes, not {size}")
    version, n, d = struct.unpack("<HQI", header[4:])
    if version != BINARY_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if d == 0:  # n empty rows would fit any n, and n ids cost memory
        raise DataError(f"{path}: dimension 0")
    if n > MAX_PROMPTS:  # before the payload is read
        raise DataError(f"{path}: prompt set holds {n} prompts, more than {MAX_PROMPTS}")
    payload = f.read()
    expected = n * d * 4
    if len(payload) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    emb = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    # The binary format carries no ids; synthesize positional ones.
    ids = tuple(str(i) for i in range(n))
    try:
        return PromptSet(ids, (None,) * n, emb.astype(np.float32))
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def load_prompt_set(path: str) -> PromptSet:
    """Load a prompt set: the SHDF binary format if the file starts with its
    magic bytes, else JSONL."""
    with open(path, "rb") as f:
        if f.read(4) == BINARY_MAGIC:
            return _load_binary(path, f)
    return _load_jsonl(path)


# Largest synthetic set, besides MAX_PROMPTS records: 2**22 float64 entries
# (4096 x 1024) take 0.10 s with a 113 MiB peak (Python 3.11, numpy 2.4, a
# shared 2-core machine).
MAX_SYNTH_ENTRIES = 2**22


def generate_synthetic(
    clusters: int,
    per_cluster: int,
    dimension: int,
    jitter: float,
    seed: int,
) -> PromptSet:
    """Deterministic synthetic prompt set with planted cluster structure.

    Draws ``clusters`` random unit centers, then one embedding per record as
    center + Gaussian jitter of scale ``jitter``, renormalized to unit norm.
    Each record uses its own counter-based stream keyed by (seed, index), so
    the output is independent of generation order.
    """
    if clusters < 1 or per_cluster < 1 or dimension < 1:
        raise UsageError("clusters, per_cluster, and dimension must be >= 1")
    if clusters * per_cluster > min(MAX_PROMPTS, MAX_SYNTH_ENTRIES // dimension):
        raise UsageError(f"a synthetic set holds at most {MAX_PROMPTS} records and "
                         f"{MAX_SYNTH_ENTRIES} entries (records x dimension)")
    if not 0 <= jitter < float("inf"):  # NaN fails both comparisons
        raise UsageError("jitter must be finite and >= 0")
    centers = np.empty((clusters, dimension), dtype=np.float64)
    for c, v in enumerate(normal_rows(dimension, seed, TAG_CENTER, np.arange(clusters))):
        centers[c] = v / np.linalg.norm(v)
    rows = np.repeat(centers, per_cluster, axis=0)  # record i = c * per_cluster + j
    if jitter != 0.0:
        for row, z in zip(rows, normal_rows(dimension, seed, TAG_RECORD, np.arange(len(rows)))):
            v = row + jitter * z
            row[:] = v / np.linalg.norm(v)
    ids = tuple(f"c{c}-{j}" for c in range(clusters) for j in range(per_cluster))
    texts = tuple(f"cluster {i.split('-')[0][1:]}" for i in ids)
    return PromptSet(ids, texts, rows.astype(np.float32))
