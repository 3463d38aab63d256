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
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.ids) == 0:
            raise DataError("prompt set is empty")
        if len(self.ids) > MAX_PROMPTS:
            raise DataError(f"prompt set holds {len(self.ids)} prompts, more than {MAX_PROMPTS}")
        index: dict[str, int] = {}
        for i, pid in enumerate(self.ids):
            if index.setdefault(pid, i) != i:
                raise DataError(f"duplicate prompt id {pid!r}")
        object.__setattr__(self, "_index", index)
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

    def index_of(self, prompt_id: str) -> int:
        try:
            return self._index[prompt_id]
        except KeyError:
            raise UsageError(f"unknown prompt id {prompt_id!r}") from None

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


def _jsonl_lines(prompts: PromptSet) -> Iterator[str]:
    for i, pid in enumerate(prompts.ids):
        rec: dict = {"id": pid}
        if prompts.prompts[i] is not None:
            rec["prompt"] = prompts.prompts[i]
        rec["embedding"] = [float(v) for v in prompts.embeddings[i]]
        yield json.dumps(rec) + "\n"


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


def _finite_numbers(vec: list) -> bool:
    """True if every element is a number (bools count, as in Python) that is
    finite in float32, the dtype the set stores."""
    if not set(map(type, vec)) <= _NUMBER_TYPES:
        return False
    try:
        with np.errstate(over="ignore"):  # a value beyond float32 becomes inf
            return bool(np.isfinite(np.array(vec, dtype=np.float32)).all())
    except OverflowError:  # an int beyond the float64 range
        return False


def _load_jsonl(path: str) -> PromptSet:
    ids: list[str] = []
    seen: set[str] = set()
    texts: list[str | None] = []
    rows: list[list[float]] = []
    dim: int | None = None
    # Bytes that are not UTF-8 decode to lone surrogates, which only a
    # non-ASCII line can hold and which do not encode back.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
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
            vec = rec["embedding"]
            if not isinstance(vec, list) or not vec or not _finite_numbers(vec):
                raise DataError(f"{path}:{lineno}: bad embedding for id {pid!r}")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DataError(
                    f"{path}:{lineno}: id {pid!r} has dimension {len(vec)}, expected {dim}"
                )
            ids.append(pid)
            texts.append(text)
            rows.append(vec)
    if not ids:
        raise DataError(f"{path}: no records")
    try:
        return PromptSet(tuple(ids), tuple(texts), np.array(rows, dtype=np.float32))
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


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
