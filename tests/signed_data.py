"""Datasets for tests written as an unsigned matrix A and labels y.

A Dataset holds its rows label-signed, b_i = y_i a_i. A test that states
its samples as (a_i, y_i) builds the Dataset with `signed_dataset`, and an
oracle that computes on the unsigned rows reads them back with
`unsigned_rows`. Negation is exact, so both directions are exact."""
import numpy as np
import scipy.sparse as sp

from localsgd.dataio import Dataset


def _times_labels(A, y):
    """diag(y) A into a new matrix of A's storage (CSR for a sparse A)."""
    y = np.asarray(y, dtype=np.float64)
    if not sp.issparse(A):
        return np.asarray(A, dtype=np.float64) * y[:, None]
    A = sp.csr_matrix(A)
    data = A.data * np.repeat(y, np.diff(A.indptr))
    return sp.csr_matrix((data, A.indices.copy(), A.indptr.copy()), shape=A.shape)


def signed_dataset(A, y, **kw) -> Dataset:
    """The Dataset of samples (a_i, y_i), its rows signed into a new array;
    A and y are left as they are."""
    y = np.asarray(y, dtype=np.float64)
    return Dataset(_times_labels(A, y), y.copy(), **kw)


def unsigned_rows(ds: Dataset):
    """The unsigned rows A = diag(y) B of a Dataset, as a new matrix."""
    return _times_labels(ds.features, ds.labels)
