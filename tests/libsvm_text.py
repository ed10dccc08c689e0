"""LIBSVM text for test fixtures: a writer, the inverse of
dataio.parse_libsvm, and a reference parser, the definition that
parse_libsvm's chunked lexer is tested against. Both speak of the
unsigned rows a_i of the text; a Dataset holds them label-signed."""
import io
import math
import os
from typing import TextIO

import numpy as np

from localsgd.dataio import Dataset, LibsvmFormatError, ManifestEntry, _normalize_labels, sha256_of
from signed_data import signed_dataset


def _row_entries(ds: Dataset, i: int):
    """(0-based indices, unsigned values) of row i's stored entries, in
    column order; a dense row stores its nonzeros."""
    if ds.is_dense:
        cols = np.flatnonzero(ds.features[i])
        return cols, ds.labels[i] * ds.features[i, cols]
    mat = ds.features
    start, stop = mat.indptr[i], mat.indptr[i + 1]
    return mat.indices[start:stop], ds.labels[i] * mat.data[start:stop]


def to_libsvm(ds: Dataset, stream: TextIO) -> None:
    """Write a Dataset of either storage out as LIBSVM text (1-based indices)."""
    for i in range(ds.n):
        cols, vals = _row_entries(ds, i)
        feats = " ".join(f"{c + 1}:{float(v)!r}" for c, v in zip(cols.tolist(), vals.tolist()))
        label = "+1" if ds.labels[i] > 0 else "-1"
        stream.write(f"{label} {feats}".rstrip() + "\n")


def write_manifest_file(ds: Dataset, data_dir: str, name: str = "toy") -> ManifestEntry:
    """Write ds as LIBSVM text to data_dir/<name>.txt, and data_dir/manifest.txt
    naming that file; the file's manifest entry."""
    path = os.path.join(data_dir, f"{name}.txt")
    with open(path, "w") as f:
        to_libsvm(ds, f)
    entry = ManifestEntry(name, f"{name}.txt", sha256_of(path), ds.n, ds.dim)
    with open(os.path.join(data_dir, "manifest.txt"), "w") as f:
        f.write(f"{name} {entry.path} {entry.sha256} {entry.n} {entry.dim}\n")
    return entry


def reference_parse(text: str, dim: int | None = None) -> Dataset:
    """parse_libsvm's result or LibsvmFormatError for LIBSVM text, one
    Python step per token. Indices of 2**31 and above, which parse_libsvm
    refuses, are not covered: they must stay out of the compared inputs."""
    data, indices, indptr, raw_labels = [], [], [0], []
    for lineno, line in enumerate(io.StringIO(text), start=1):
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
            if not math.isfinite(val):
                raise LibsvmFormatError(f"line {lineno}: non-finite feature {tok!r}")
            prev = idx
            if val != 0.0:
                indices.append(idx)
                data.append(val)
        indptr.append(len(data))

    if not raw_labels:
        raise LibsvmFormatError("empty file: no samples")
    inferred = max(indices) + 1 if indices else 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise LibsvmFormatError(f"dim override {dim} below max feature index ({inferred})")
    import scipy.sparse as sp

    mat = sp.csr_matrix((np.array(data, dtype=np.float64), np.array(indices, dtype=np.int64),
                         np.array(indptr, dtype=np.int64)), shape=(len(raw_labels), dim))
    return signed_dataset(mat, _normalize_labels(np.array(raw_labels)))
