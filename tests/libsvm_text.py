"""LIBSVM text writer for test fixtures: the inverse of dataio.parse_libsvm."""
from typing import TextIO

import numpy as np

from localsgd.dataio import Dataset


def _row_entries(ds: Dataset, i: int):
    """(0-based indices, values) of row i's stored entries, in column order;
    a dense row stores its nonzeros."""
    if ds.is_dense:
        cols = np.flatnonzero(ds.features[i])
        return cols, ds.features[i, cols]
    mat = ds.features
    start, stop = mat.indptr[i], mat.indptr[i + 1]
    return mat.indices[start:stop], mat.data[start:stop]


def to_libsvm(ds: Dataset, stream: TextIO) -> None:
    """Write a Dataset of either storage out as LIBSVM text (1-based indices)."""
    for i in range(ds.n):
        cols, vals = _row_entries(ds, i)
        feats = " ".join(f"{c + 1}:{float(v)!r}" for c, v in zip(cols.tolist(), vals.tolist()))
        label = "+1" if ds.labels[i] > 0 else "-1"
        stream.write(f"{label} {feats}".rstrip() + "\n")
