"""LIBSVM dataset ingestion, assignment of samples to nodes, and output formats.

Parsing preserves file order exactly: heterogeneity in the experiments comes
from partitioning by index, so no shuffling happens anywhere in this module.
Datasets are fetched out-of-band into a data directory; a plain-text manifest
(name, path, sha256, expected n, expected dim) is validated on load and the
loader never downloads anything.
"""
from __future__ import annotations

import enum
import gzip
import hashlib
import io
import math
import os
import re
from dataclasses import KW_ONLY, dataclass, replace
from typing import TYPE_CHECKING, TextIO

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
    """Labeled samples in file order, held once as their label-signed rows
    b_i = y_i a_i, B = diag(y) A, in one matrix of either storage: a dense
    (n, dim) float64 ndarray (synthetic data) or a CSR matrix (LIBSVM
    files). The loaders sign the rows as they build them, and nothing keeps
    the unsigned A: negation is exact, so y_i b_i gives a_i back bit for
    bit. Products take B's storage: dense B is made C-contiguous float64
    (not copied if it already is), CSR B stays CSR whatever its density;
    only `load_dataset` densifies. Only code that builds or reads CSR
    imports scipy.sparse, so a dense dataset never loads it."""

    # B, shape (n, dim), float64; bench/tracing.py reads features.nnz.
    features: np.ndarray | sp.csr_matrix
    labels: np.ndarray  # shape (n,), entries in {-1.0, +1.0}
    _: KW_ONLY
    name: str = "unnamed"

    def __post_init__(self):
        if self.is_dense:
            if self.features.ndim != 2:
                raise ValueError("dense features must be a 2-D array")
            object.__setattr__(self, "features", np.ascontiguousarray(self.features, np.float64))
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if self.n == 0 or self.dim <= 0:
            raise ValueError(f"a dataset needs a sample and a feature, got {self.features.shape}")
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
        """||a_i||^2 = ||b_i||^2 per row. Both storages sum each row's
        squares left to right with np.add.reduceat, which is what scipy's
        CSR row sum runs, so both storages of one matrix give the same
        bits; a pairwise sum (np.sum(axis=1)) would not. On CSR only the
        stored values are squared, with no squared copy of the matrix."""
        if self.is_dense:
            sq = np.square(self.features).ravel()
            return np.add.reduceat(sq, np.arange(0, sq.size, self.dim))
        B = self.features
        out = np.zeros(self.n)
        filled = np.flatnonzero(np.diff(B.indptr))  # reduceat needs non-empty rows
        out[filled] = np.add.reduceat(np.square(B.data), B.indptr[filled])
        return out


@dataclass(frozen=True)
class Partition:
    """Half-open index ranges assigning samples to M nodes."""

    node_ranges: tuple[tuple[int, int], ...]
    regime: Regime

    @property
    def M(self) -> int:
        return len(self.node_ranges)


def _normalize_labels(raw: np.ndarray) -> np.ndarray:
    """Map raw labels onto {-1, +1}; smaller raw label becomes -1."""
    distinct = np.unique(raw).tolist()  # sorted, a nan last: the message is reproducible
    if set(distinct) <= {-1.0, 1.0}:
        return raw.astype(np.float64)
    if set(distinct) <= {0.0, 1.0}:
        return np.where(raw <= 0.0, -1.0, 1.0)
    if set(distinct) <= {1.0, 2.0}:
        return np.where(raw <= 1.0, -1.0, 1.0)
    raise LibsvmFormatError(
        f"unsupported label set {distinct}; expected {{0,1}}, {{-1,+1}} or {{1,2}}"
    )


# Characters of LIBSVM text lexed at a time. A chunk is cut back to its last
# line end; its temporaries take a few dozen bytes per character, so they
# stay small beside the parsed matrix.
_CHUNK_CHARS = 1 << 14

# Each byte's class. The whitespace classes are the bytes str.split()
# splits on; the non-ASCII characters it splits on, _UNICODE_SPACES, a
# chunk maps to a space before it is encoded. A token's bytes that are not
# digits are its marks. The tables are intp and float64, the types the rest
# of the program computes in: each numpy loop of another type that the
# lexer alone ran would add its code pages to the resident set.
_SPACE, _NEWLINE, _DIGIT, _COLON, _PLUS, _MINUS, _DOT, _OTHER = range(8)
_CLASS = np.full(256, _OTHER, dtype=np.intp)
_CLASS[list(b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f ")] = _SPACE
_CLASS[list(b"0123456789")] = _DIGIT
_CLASS[list(b"\n:+-.")] = (_NEWLINE, _COLON, _PLUS, _MINUS, _DOT)
_DIGIT_VALUE = np.zeros(256)
_DIGIT_VALUE[list(b"0123456789")] = np.arange(10)
_UNICODE_SPACES = dict.fromkeys(
    (0x85, 0xA0, 0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000),
    " ")
_COMMENT = re.compile(r"#[^\n]*")
# A plain index has 1-9 digits, a plain value at most 15: its mantissa is
# below 2**53 and 10**k is exact, so the digits sum exactly in float64 and
# one division rounds the value correctly, to the float() of its text.
_POW10 = 10.0 ** np.arange(16)
# The largest 1-based feature index that int32 CSR indices can hold.
_MAX_INDEX = 2**31 - 1
# Why a token outside the plain grammar fails.
_MALFORMED, _NON_FINITE, _TOO_LARGE = 1, 2, 3


def _digit_runs(b: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integers that runs b[lo[i]:hi[i]] of at most 15 ASCII digits
    spell, exact in float64, one decimal place per pass. b[lo[i] - 1] must
    be no digit (at lo 0, the chunk's last byte: a newline), so a pass
    beyond a run's start adds nothing."""
    top = hi - 1
    out = np.zeros(top.size)
    for k in range(int((hi - lo).max(initial=0))):
        out += _DIGIT_VALUE.take(b[np.maximum(top - k, lo - 1)]) * _POW10[k]
    return out


def _lex_chunk(text: str, line0: int) -> tuple[np.ndarray, ...]:
    """The rows of whole lines of LIBSVM text, which ends with a newline, as
    (labels, stored entries per row, 0-based int32 indices, values); or a
    LibsvmFormatError for the first failure in it, its line counted from
    line0 + 1.

    numpy finds the tokens, the labels (each line's first token) and the
    marks: a token's bytes that are not digits. A plain feature is `i:v`,
    i of 1-9 ASCII digits and v an optional sign, at most one dot and 1-15
    digits; a plain label is such a v. Plain tokens are converted in numpy;
    every other token takes the int()/float() calls that define the
    grammar, one at a time."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    if not text.isascii():
        text = text.translate(_UNICODE_SPACES)
    raw = text.encode("utf-8", "surrogatepass")
    b = np.frombuffer(raw, dtype=np.uint8)
    cls = _CLASS.take(b)
    space = cls <= _NEWLINE
    edges = np.flatnonzero(np.diff(space, prepend=True))
    starts, ends = edges[0::2], edges[1::2]  # token i is raw[starts[i]:ends[i]]
    first = np.zeros(starts.size + 1, dtype=bool)  # a line's first token is its label
    first[np.searchsorted(starts, np.flatnonzero(cls == _NEWLINE))] = True
    first[0] = True
    first = first[:-1]
    feat = ~first
    mark = cls >= _COLON
    del space

    # Up to three marks of each token: a plain feature's colon, then the
    # marks of its value, as of a plain label: an optional sign at the
    # value's start, then an optional dot.
    before = np.zeros(b.size + 1, dtype=np.int32)  # marks before each byte
    np.cumsum(mark, out=before[1:])
    at = before[starts]  # the token's first mark
    n_value_marks = before[ends] - at - feat
    marks = np.flatnonzero(mark)
    mark_pos = np.append(marks, [b.size] * 3)  # three past the end, for the
    mark_cls = np.append(cls[marks], [_OTHER] * 3)  # last tokens' reads
    del cls, before, mark, marks
    colon = mark_pos[at]
    is_colon = mark_cls[at] == _COLON
    at += feat  # the value's first mark
    vstart = np.where(feat, colon + 1, starts)  # the value is raw[vstart:ends]
    sign = mark_cls[at]
    signed = ((n_value_marks > 0) & (mark_pos[at] == vstart)
              & ((sign == _PLUS) | (sign == _MINUS)))
    negative = signed & (sign == _MINUS)
    at += signed
    dotted = (n_value_marks > signed) & (mark_cls[at] == _DOT)
    dot = mark_pos[at]
    n_digits = ends - vstart - n_value_marks
    idx_len = colon - starts
    plain = ((n_value_marks == signed + dotted) & (n_digits >= 1) & (n_digits <= 15)
             & (first | (is_colon & (idx_len >= 1) & (idx_len <= 9))))
    # Each temporary goes once used, so a chunk's peak stays a few times
    # the size of its text.
    del n_value_marks, mark_pos, mark_cls, at, is_colon, sign, n_digits, idx_len

    index = np.full(starts.size, -1, dtype=np.int64)
    value = np.empty(starts.size)
    p = np.flatnonzero(plain)
    vstart, ends_p, dotted = vstart[p], ends[p], dotted[p]
    int_end = np.where(dotted, dot[p], ends_p)
    mantissa = _digit_runs(b, vstart + signed[p], int_end)
    frac_len = np.zeros(p.size, dtype=np.intp)  # digits after the dot
    if dotted.any():
        q = np.flatnonzero(dotted)
        frac_len[q] = ends_p[q] - int_end[q] - 1
        mantissa[q] *= _POW10[frac_len[q]]
        mantissa[q] += _digit_runs(b, int_end[q] + 1, ends_p[q])
    mantissa /= _POW10[frac_len]
    value[p] = np.where(negative[p], -mantissa, mantissa)
    p = p[feat[p]]
    index[p] = _digit_runs(b, starts[p], colon[p]) - 1

    # Every other token, by the grammar's definition. A feature that fails
    # there is flagged: its text is refused by split(), int() or float(), its
    # value is not finite, or its index is beyond int32.
    flag = np.zeros(starts.size, dtype=np.int8)
    for i in np.flatnonzero(~plain).tolist():
        tok = raw[starts[i]:ends[i]].decode("utf-8", "surrogatepass")
        try:
            if first[i]:
                value[i] = float(tok)
                continue
            idx_s, val_s = tok.split(":")
            idx, val = int(idx_s) - 1, float(val_s)
        except ValueError:
            flag[i] = _MALFORMED
            continue
        index[i], value[i] = min(max(idx, -1), _MAX_INDEX), val
        if not math.isfinite(val):
            flag[i] = _NON_FINITE
        elif idx >= _MAX_INDEX:
            flag[i] = _TOO_LARGE

    # A feature's index must exceed the one before it; a label's is -1.
    unordered = np.zeros(starts.size, dtype=bool)
    unordered[1:] = feat[1:] & (index[1:] <= index[:-1])
    bad = unordered | flag.astype(bool)
    if bad.any():  # the first failure, in the order the definition checks
        i = int(np.argmax(bad))
        tok = raw[starts[i]:ends[i]].decode("utf-8", "surrogatepass")
        where = "line %d" % (line0 + raw.count(b"\n", 0, starts[i]) + 1)
        if flag[i] == _MALFORMED:
            raise LibsvmFormatError(f"{where}: non-numeric label {tok!r}" if first[i]
                                    else f"{where}: malformed feature {tok!r}")
        if unordered[i]:
            raise LibsvmFormatError(f"{where}: feature index must be >= 1" if index[i] < 0
                                    else f"{where}: indices not strictly increasing")
        if flag[i] == _NON_FINITE:
            raise LibsvmFormatError(f"{where}: non-finite feature {tok!r}")
        raise LibsvmFormatError(f"{where}: feature index above {_MAX_INDEX} in {tok!r}")

    keep = feat & (value != 0.0)
    counts = np.add.reduceat(keep, np.flatnonzero(first), dtype=np.intp)
    return value[first], counts, index[keep].astype(np.int32), value[keep]


def _put(buf: np.ndarray, at: int, piece: np.ndarray) -> None:
    """Write piece into buf from index `at` on, first growing buf by half
    or more when it is too short. ndarray.resize grows the buffer in place
    (realloc), so it is never copied and leaves no freed block behind."""
    if at + piece.size > buf.size:
        buf.resize(max(at + piece.size, buf.size * 3 // 2), refcheck=False)
    buf[at:at + piece.size] = piece


def parse_libsvm(source: TextIO | str, name: str = "unnamed",
                 dim: int | None = None) -> Dataset:
    """Parse LIBSVM text ("label idx:val ...", 1-based indices) into a Dataset.

    Indices are converted to 0-based and must be strictly increasing within a
    line, and at most 2**31 - 1. `dim` may only pad the inferred dimension
    upward (LIBSVM files omit trailing all-zero features). The text is lexed
    in chunks of whole lines (`_lex_chunk`), whose entries go straight into
    output buffers of int32 indices and float64 values, 12 bytes per stored
    entry, grown in place and cut to size at the end. The rows come out
    label-signed: the values of each row labelled -1 are negated in place.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    labels, indptr = np.empty(1 << 10), np.zeros(1 << 10, dtype=np.int64)
    indices, data = np.empty(1 << 12, dtype=np.int32), np.empty(1 << 12)
    n = nnz = 0
    line0, carry = 0, ""
    while True:
        block = stream.read(_CHUNK_CHARS)
        text = carry + block
        cut = text.rfind("\n") + 1 if block else len(text)
        text, carry = text[:cut], text[cut:]
        if text:
            if not text.endswith("\n"):
                text += "\n"  # the last line, with no line end of its own
            row_labels, counts, row_indices, values = _lex_chunk(text, line0)
            _put(labels, n, row_labels)
            _put(indptr, n + 1, nnz + np.cumsum(counts))
            _put(indices, nnz, row_indices)
            _put(data, nnz, values)
            n, nnz = n + row_labels.size, nnz + values.size
            line0 += text.count("\n")
        if not block:
            break

    if not n:
        raise LibsvmFormatError("empty file: no samples")
    for buf, size in ((labels, n), (indptr, n + 1), (indices, nnz), (data, nnz)):
        buf.resize(size, refcheck=False)  # in place: no copy, and the excess is freed
    inferred = int(indices.max()) + 1 if indices.size else 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise LibsvmFormatError(f"dim override {dim} below max feature index ({inferred})")

    import scipy.sparse as sp

    labels = _normalize_labels(labels)
    np.negative(data, out=data, where=np.repeat(labels < 0.0, np.diff(indptr)))
    mat = sp.csr_matrix((data, indices, indptr), shape=(labels.size, dim))
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
    """Parse a manifest: one `name path sha256 n dim` entry per line, a name once."""
    stream = io.StringIO(source) if isinstance(source, str) else source
    entries: dict[str, ManifestEntry] = {}
    first: dict[str, int] = {}  # the line of each name
    for lineno, line in enumerate(stream, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ManifestError(f"manifest line {lineno}: expected 5 fields, got {len(parts)}")
        name, path, sha, n_s, dim_s = parts
        if first.setdefault(name, lineno) != lineno:
            raise ManifestError(f"manifest line {lineno}: dataset {name!r} is listed again "
                                f"(first on line {first[name]})")
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
    """Load and validate a manifest entry; fails loudly on any mismatch. The
    rows are held as CSR, or dense when at least half of their entries are
    stored, where dense products cost no more."""
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
    B = ds.features
    return replace(ds, features=B.toarray()) if B.nnz >= 0.5 * B.shape[0] * B.shape[1] else ds


# ---------------------------------------------------------------------------
# Synthetic data (hermetic fallback when LIBSVM files are absent)
# ---------------------------------------------------------------------------

def generate_synthetic(n: int, d: int, seed: int, *, label_noise: float = 0.0,
                       sort_by_label: bool = False) -> Dataset:
    """Seeded synthetic classification data: Gaussian features, planted
    separator, the rows label-signed in place once the labels are final.

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
    feats *= labels[:, None]
    return Dataset(features=feats, labels=labels, name=f"synthetic-n{n}-d{d}-s{seed}")


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def kv_text(pairs) -> str:
    """One `key = value` line per (key, value) pair, in the order given.
    Values are written with `str`, so a Python float is its shortest
    round-trip repr and reads back to the same bits."""
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def write_csv(stream: TextIO, header_pairs, columns, rows) -> None:
    """A `# key = value` line per header pair, the column names, then one
    comma-separated line per row, written one row at a time; values as in
    `kv_text`."""
    for k, v in header_pairs:
        stream.write(f"# {k} = {v}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(map(str, row)) + "\n")
