"""LIBSVM dataset ingestion and assignment of samples to nodes.

Parsing preserves file order exactly: heterogeneity in the experiments comes
from partitioning by index, so no shuffling happens anywhere in this module.
Datasets are fetched out-of-band into a data directory; a plain-text manifest
(name, path, sha256, expected n, expected dim) is validated on load and the
loader never downloads anything.
"""
from __future__ import annotations

import array
import enum
import gzip
import hashlib
import io
import math
import os
from dataclasses import KW_ONLY, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, TextIO

import numpy as np

from .numkit import RngStream

if TYPE_CHECKING:
    import scipy.sparse as sp


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM input; message carries the offending line number."""


class ManifestError(ValueError):
    """Manifest missing, unparsable, or not matching the file on disk."""


# What reading an input file raises on a bad file rather than a bad value: a
# path that cannot be opened (a directory, say), a `.gz` file that is not
# gzip or ends early, and bytes that are not UTF-8.
READ_ERRORS = (OSError, EOFError, UnicodeDecodeError)


def unreadable(path: str, e: Exception) -> str:
    """One line naming the file a read failed on, and why."""
    if isinstance(e, UnicodeDecodeError):
        return f"cannot read {path}: not UTF-8 text"
    return f"cannot read {path}: {getattr(e, 'strerror', None) or e}"


class Regime(enum.Enum):
    IDENTICAL = "identical"
    HETEROGENEOUS = "heterogeneous"


@dataclass(frozen=True)
class Dataset:
    """Labeled samples in file order, their rows in one matrix of either
    storage: a dense (n, dim) float64 ndarray (synthetic data) or a CSR
    matrix (LIBSVM files). Only code that builds or reads CSR imports
    scipy.sparse, so a dense dataset never loads it."""

    features: np.ndarray | sp.csr_matrix  # shape (n, dim), float64
    labels: np.ndarray  # shape (n,), entries in {-1.0, +1.0}
    _: KW_ONLY
    name: str = "unnamed"

    def __post_init__(self):
        if self.is_dense and self.features.ndim != 2:
            raise ValueError("dense features must be a 2-D array")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        bad = ~np.isin(self.labels, (-1.0, 1.0))
        if np.any(bad):
            raise ValueError("labels must be exactly -1 or +1")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def is_dense(self) -> bool:
        return isinstance(self.features, np.ndarray)

    def row_norms_sq(self) -> np.ndarray:
        """||a_i||^2 per row. The dense sum runs left to right over each
        row, as scipy's CSR row sum does, so both storages of one matrix
        give the same bits; a pairwise sum (np.sum(axis=1)) would not."""
        if self.is_dense:
            sq = np.square(self.features).ravel()
            return np.add.reduceat(sq, np.arange(0, sq.size, self.dim))
        sq = self.features.multiply(self.features)
        return np.asarray(sq.sum(axis=1)).ravel()


@dataclass(frozen=True)
class Partition:
    """Half-open index ranges assigning samples to M nodes."""

    node_ranges: tuple[tuple[int, int], ...]
    regime: Regime

    @property
    def M(self) -> int:
        return len(self.node_ranges)

    @cached_property
    def block_runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """The node blocks grouped into runs of adjacent blocks of one size,
        each as (first node, first row, block count g, block size), the run
        covering g * size consecutive rows. A heterogeneous `partition`
        makes at most two runs."""
        runs: list[list[int]] = []
        for m, (start, stop) in enumerate(self.node_ranges):
            last = runs[-1] if runs else None
            if last and last[3] == stop - start and last[1] + last[2] * last[3] == start:
                last[2] += 1
            else:
                runs.append([m, start, 1, stop - start])
        return tuple(tuple(r) for r in runs)


def _normalize_labels(raw: np.ndarray) -> np.ndarray:
    """Map raw labels onto {-1, +1}; smaller raw label becomes -1."""
    distinct = set(float(v) for v in np.unique(raw))
    if distinct <= {-1.0, 1.0}:
        return raw.astype(np.float64)
    if distinct <= {0.0, 1.0}:
        return np.where(raw <= 0.0, -1.0, 1.0)
    if distinct <= {1.0, 2.0}:
        return np.where(raw <= 1.0, -1.0, 1.0)
    raise LibsvmFormatError(
        f"unsupported label set {sorted(distinct)}; expected {{0,1}}, {{-1,+1}} or {{1,2}}"
    )


def parse_libsvm(source: TextIO | str, name: str = "unnamed",
                 dim: int | None = None) -> Dataset:
    """Parse LIBSVM text ("label idx:val ...", 1-based indices) into a Dataset.

    Indices are converted to 0-based and must be strictly increasing within a
    line. `dim` may only pad the inferred dimension upward (LIBSVM files omit
    trailing all-zero features). Entries collect in typed buffers, 8 bytes
    per value and per index, rather than in lists of Python numbers.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    data = array.array("d")
    indices = array.array("q")
    indptr = array.array("q", [0])
    raw_labels = array.array("d")
    add_value, add_index, end_row = data.append, indices.append, indptr.append
    isfinite = math.isfinite

    for lineno, line in enumerate(stream, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            raw_labels.append(float(parts[0]))
        except ValueError:
            raise LibsvmFormatError(f"line {lineno}: non-numeric label {parts[0]!r}") from None
        prev = -1
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":")
                idx = int(idx_s) - 1
                val = float(val_s)
            except ValueError:
                raise LibsvmFormatError(f"line {lineno}: malformed feature {tok!r}") from None
            if idx <= prev:  # prev starts at -1, so this also catches idx < 0
                raise LibsvmFormatError(
                    f"line {lineno}: feature index must be >= 1" if idx < 0
                    else f"line {lineno}: indices not strictly increasing")
            if not isfinite(val):
                raise LibsvmFormatError(f"line {lineno}: non-finite feature {tok!r}")
            prev = idx
            if val != 0.0:
                add_index(idx)
                add_value(val)
        end_row(len(data))

    if not raw_labels:
        raise LibsvmFormatError("empty file: no samples")

    # Views of the buffers, not copies.
    idx_arr = np.frombuffer(indices, dtype=np.int64)
    inferred = int(idx_arr.max()) + 1 if idx_arr.size else 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise LibsvmFormatError(f"dim override {dim} below max feature index ({inferred})")

    import scipy.sparse as sp

    labels = _normalize_labels(np.frombuffer(raw_labels, dtype=np.float64))
    mat = sp.csr_matrix(
        (np.frombuffer(data, dtype=np.float64), idx_arr,
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(len(raw_labels), dim),
    )
    return Dataset(features=mat, labels=labels, name=name)


def partition(ds: Dataset, M: int, regime: Regime) -> Partition:
    """Assign samples to M nodes.

    Heterogeneous: contiguous blocks in file order, sizes differing by at
    most one with the remainder going to the lowest-index nodes. Identical:
    every node references the full dataset.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    if regime == Regime.IDENTICAL:
        return Partition(node_ranges=tuple((0, ds.n) for _ in range(M)), regime=regime)
    if M > ds.n:
        raise ValueError(f"cannot split {ds.n} samples over {M} nodes without empty nodes")
    base, extra = divmod(ds.n, M)
    ranges = []
    start = 0
    for m in range(M):
        size = base + (1 if m < extra else 0)
        ranges.append((start, start + size))
        start += size
    return Partition(node_ranges=tuple(ranges), regime=regime)


# ---------------------------------------------------------------------------
# Manifest handling
# ---------------------------------------------------------------------------

DATA_DIR_ENV = "LOCALSGD_DATA_DIR"


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    path: str
    sha256: str
    n: int
    dim: int


def parse_manifest(source: TextIO | str) -> dict[str, ManifestEntry]:
    """Parse a manifest: one `name path sha256 n dim` entry per line."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    entries: dict[str, ManifestEntry] = {}
    for lineno, line in enumerate(stream, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ManifestError(f"manifest line {lineno}: expected 5 fields, got {len(parts)}")
        name, path, sha, n_s, dim_s = parts
        try:
            entries[name] = ManifestEntry(name, path, sha, int(n_s), int(dim_s))
        except ValueError:
            raise ManifestError(f"manifest line {lineno}: n and dim must be integers") from None
    return entries


def manifest_path(data_dir: str = "", manifest: str = "") -> tuple[str, str]:
    """The data dir given, else $LOCALSGD_DATA_DIR or `data`, and its manifest."""
    data_dir = data_dir or os.environ.get(DATA_DIR_ENV, "") or "data"
    return data_dir, manifest or os.path.join(data_dir, "manifest.txt")


def read_manifest(path: str) -> dict[str, ManifestEntry]:
    """The manifest at path; a file that cannot be read is a ManifestError."""
    try:
        with open(path, encoding="utf-8") as f:
            return parse_manifest(f)
    except READ_ERRORS as e:
        raise ManifestError(unreadable(path, e)) from None


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_dataset(entry: ManifestEntry, data_dir: str) -> Dataset:
    """Load and validate a manifest entry; fails loudly on any mismatch."""
    path = os.path.join(data_dir, entry.path)
    if not os.path.exists(path):
        raise ManifestError(f"dataset file not found: {path}")
    opener = gzip.open if path.endswith(".gz") else open
    try:
        digest = sha256_of(path)
        if digest != entry.sha256:
            raise ManifestError(
                f"checksum mismatch for {entry.name}: expected {entry.sha256}, got {digest}"
            )
        with opener(path, "rt", encoding="utf-8") as f:
            ds = parse_libsvm(f, name=entry.name, dim=entry.dim)
    except READ_ERRORS as e:
        raise ManifestError(unreadable(path, e)) from None
    # parse_libsvm pads the width to entry.dim or refuses, so only n can differ.
    if ds.n != entry.n:
        raise ManifestError(
            f"shape mismatch for {entry.name}: manifest says n={entry.n}, file has n={ds.n}")
    return ds


# ---------------------------------------------------------------------------
# Synthetic data (hermetic fallback when LIBSVM files are absent)
# ---------------------------------------------------------------------------

def generate_synthetic(n: int, d: int, seed: int, *, label_noise: float = 0.0,
                       sort_by_label: bool = False,
                       name: str | None = None) -> Dataset:
    """Seeded synthetic classification data: Gaussian features, planted separator.

    `sort_by_label` orders samples by label so that contiguous index-based
    partitioning yields deliberately non-i.i.d. nodes. `label_noise` flips
    each label independently with the given probability.
    """
    if n <= 0 or d <= 0:
        raise ValueError("n and d must be positive")
    gen = RngStream(seed=seed, stream_id=0).generator()
    feats = gen.standard_normal((n, d))
    separator = gen.standard_normal(d)
    labels = np.where(feats @ separator >= 0.0, 1.0, -1.0)
    if label_noise > 0.0:
        flip = gen.random(n) < label_noise
        labels[flip] = -labels[flip]
    if sort_by_label:
        order = np.argsort(labels, kind="stable")  # all -1 first, file order within class
        feats = feats[order]
        labels = labels[order]
    if name is None:
        name = f"synthetic-n{n}-d{d}-s{seed}"
    return Dataset(features=feats, labels=labels, name=name)


def concat_datasets(parts: Iterable[Dataset], name: str = "concat") -> Dataset:
    """Stack datasets in order, narrower ones padded with zero columns; used
    e.g. to replicate one block across nodes. The result is dense when every
    part is, else CSR."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    dim = max(p.dim for p in parts)
    labels = np.concatenate([p.labels for p in parts])
    if all(p.is_dense for p in parts):
        feats = np.vstack([np.pad(p.features, ((0, 0), (0, dim - p.dim))) for p in parts])
    else:
        import scipy.sparse as sp

        mats = [sp.csr_matrix(p.features) for p in parts]
        feats = sp.vstack([sp.csr_matrix((m.data, m.indices, m.indptr), shape=(m.shape[0], dim))
                           for m in mats], format="csr")
    return Dataset(features=feats, labels=labels, name=name)
