"""Prompt embeddings: distances, means, file I/O, synthetic generation.

Embeddings are stored as 32-bit floats; all distance and mean arithmetic is
done in 64-bit, rounding back to 32-bit only at serialization boundaries.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UsageError
from .rng import TAG_CENTER, TAG_RECORD, stream

BINARY_MAGIC = b"SHDF"
BINARY_VERSION = 1


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
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            for i in self.ids:
                if i in seen:
                    raise DataError(f"duplicate prompt id {i!r}")
                seen.add(i)
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
            return self.ids.index(prompt_id)
        except ValueError:
            raise UsageError(f"unknown prompt id {prompt_id!r}") from None

    def embedding_of(self, prompt_id: str) -> np.ndarray:
        return self.embeddings[self.index_of(prompt_id)]

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
    """1 - cos(u, r) in [0, 2] for each row r, all inputs already unit-norm.

    For unit vectors 1 - cos == |a - b|^2 / 2.  This form is exact at the
    endpoints: identical inputs give 0 and antipodal unit inputs give 2,
    with no catastrophic cancellation near 0.
    """
    diff = rows - u
    return np.minimum(2.0, np.sum(diff * diff, axis=1) / 2.0)


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


def save_prompt_set(prompts: PromptSet, path: str, fmt: str = "jsonl") -> None:
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as f:
            for i, pid in enumerate(prompts.ids):
                rec: dict = {"id": pid}
                if prompts.prompts[i] is not None:
                    rec["prompt"] = prompts.prompts[i]
                rec["embedding"] = [float(v) for v in prompts.embeddings[i]]
                f.write(json.dumps(rec) + "\n")
    elif fmt == "binary":
        n, d = prompts.embeddings.shape
        with open(path, "wb") as f:
            f.write(BINARY_MAGIC)
            f.write(struct.pack("<HQI", BINARY_VERSION, n, d))
            f.write(prompts.embeddings.astype("<f4").tobytes(order="C"))
    else:
        raise UsageError(f"unknown format {fmt!r}")


def _load_jsonl(path: str) -> PromptSet:
    ids: list[str] = []
    texts: list[str | None] = []
    rows: list[list[float]] = []
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: malformed JSON: {e}") from e
            if not isinstance(rec, dict) or "id" not in rec or "embedding" not in rec:
                raise DataError(f"{path}:{lineno}: record must have 'id' and 'embedding'")
            pid = str(rec["id"])
            if pid in ids:
                raise DataError(f"{path}:{lineno}: duplicate id {pid!r}")
            vec = rec["embedding"]
            if not isinstance(vec, list) or not vec or not all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in vec
            ):
                raise DataError(f"{path}:{lineno}: bad embedding for id {pid!r}")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DataError(
                    f"{path}:{lineno}: id {pid!r} has dimension {len(vec)}, expected {dim}"
                )
            ids.append(pid)
            texts.append(rec.get("prompt"))
            rows.append(vec)
    if not ids:
        raise DataError(f"{path}: no records")
    return PromptSet(tuple(ids), tuple(texts), np.array(rows, dtype=np.float32))


def _load_binary(path: str) -> PromptSet:
    with open(path, "rb") as f:
        header = f.read(4 + struct.calcsize("<HQI"))
        if len(header) < 4 or header[:4] != BINARY_MAGIC:
            raise DataError(f"{path}: bad magic bytes, not a {BINARY_MAGIC.decode()} file")
        version, n, d = struct.unpack("<HQI", header[4:])
        if version != BINARY_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        payload = f.read()
    expected = n * d * 4
    if len(payload) != expected:
        raise DataError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    emb = np.frombuffer(payload, dtype="<f4").reshape(n, d)
    # The binary format carries no ids; synthesize positional ones.
    ids = tuple(str(i) for i in range(n))
    return PromptSet(ids, (None,) * n, emb.astype(np.float32))


def load_prompt_set(path: str, fmt: str | None = None) -> PromptSet:
    """Load a prompt set from JSONL or the SHDF binary format.

    With fmt=None the format is sniffed from the leading magic bytes.
    """
    if fmt is None:
        with open(path, "rb") as f:
            fmt = "binary" if f.read(4) == BINARY_MAGIC else "jsonl"
    if fmt == "jsonl":
        return _load_jsonl(path)
    if fmt == "binary":
        return _load_binary(path)
    raise UsageError(f"unknown format {fmt!r}")


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
    if jitter < 0:
        raise UsageError("jitter must be >= 0")
    centers = np.empty((clusters, dimension), dtype=np.float64)
    for c in range(clusters):
        v = stream(seed, TAG_CENTER, c).standard_normal(dimension)
        centers[c] = v / np.linalg.norm(v)
    ids: list[str] = []
    rows = np.empty((clusters * per_cluster, dimension), dtype=np.float64)
    for i in range(clusters * per_cluster):
        c, j = divmod(i, per_cluster)
        ids.append(f"c{c}-{j}")
        if jitter == 0.0:
            rows[i] = centers[c]
        else:
            v = centers[c] + jitter * stream(seed, TAG_RECORD, i).standard_normal(dimension)
            rows[i] = v / np.linalg.norm(v)
    texts = tuple(f"cluster {i.split('-')[0][1:]}" for i in ids)
    return PromptSet(tuple(ids), texts, rows.astype(np.float32))
