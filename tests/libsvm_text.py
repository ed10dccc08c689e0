"""LIBSVM text writer for test fixtures: the inverse of dataio.parse_libsvm."""
from typing import TextIO

from localsgd.dataio import Dataset


def to_libsvm(ds: Dataset, stream: TextIO) -> None:
    """Write a Dataset back out as LIBSVM text (1-based indices)."""
    mat = ds.features
    for i in range(ds.n):
        start, stop = mat.indptr[i], mat.indptr[i + 1]
        feats = " ".join(
            f"{mat.indices[k] + 1}:{float(mat.data[k])!r}" for k in range(start, stop)
        )
        label = "+1" if ds.labels[i] > 0 else "-1"
        stream.write(f"{label} {feats}".rstrip() + "\n")
