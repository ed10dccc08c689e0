import csv
import gzip
import io
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localsgd import dataio
from localsgd.dataio import (
    DATA_DIR_ENV,
    Dataset,
    LibsvmFormatError,
    ManifestError,
    Regime,
    generate_synthetic,
    load_dataset,
    parse_libsvm,
    parse_manifest,
    partition,
    sha256_of,
)
from localsgd.numkit import RngStream
from localsgd.objective import build_problem, solve_reference
from localsgd.simulator import GradientMode, RunConfig, SyncSchedule

from libsvm_text import reference_parse, to_libsvm, write_manifest_file
from one_config import run_alone
from signed_data import signed_dataset


class TestParse:
    def test_basic_line(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n")
        assert ds.n == 1 and ds.dim == 3
        row = ds.features[0]
        assert ds.labels[0] == 1.0
        assert list(row.indices) == [0, 2]
        assert list(row.data) == [0.5, 2.0]

    def test_zero_one_labels(self):
        ds = parse_libsvm("0 2:1.0\n1 1:1.0\n")
        assert list(ds.labels) == [-1.0, 1.0]
        assert ds.dim == 2

    def test_one_two_labels(self):
        ds = parse_libsvm("2 1:1.0\n1 1:1.0\n")
        assert list(ds.labels) == [1.0, -1.0]

    def test_rows_are_label_signed(self):
        # Row i is stored as y_i a_i: the values of a row labelled -1 are
        # negated, after the raw labels are mapped onto -1 and +1.
        for text, labels in (("-1 1:0.5 3:-2\n+1 2:-1.5\n", "-1 +1"),
                             ("0 1:0.5 3:-2\n1 2:-1.5\n", "0 1"),
                             ("1 1:0.5 3:-2\n2 2:-1.5\n", "1 2")):
            ds = parse_libsvm(text)
            assert ds.labels.tolist() == [-1.0, 1.0], labels
            assert ds.features.toarray().tolist() == [[-0.5, 0.0, 2.0], [0.0, -1.5, 0.0]]

    def test_unsupported_labels(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm("3 1:1.0\n7 1:1.0\n")

    def test_order_preserved(self):
        text = "".join(f"+1 1:{float(i)}\n" for i in range(1, 6))
        ds = parse_libsvm(text)
        vals = [ds.features[i].data[0] for i in range(5)]
        assert vals == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_malformed_line_reports_number(self):
        with pytest.raises(LibsvmFormatError, match="line 2"):
            parse_libsvm("+1 1:1.0\n+1 1:oops\n")

    @pytest.mark.parametrize("tok", ["1:nan", "2:inf", "2:-inf", "1:1e999"])
    def test_non_finite_feature_names_line_and_token(self, tok):
        with pytest.raises(LibsvmFormatError, match=f"line 3: non-finite feature '{tok}'"):
            parse_libsvm(f"+1 1:1.0\n\n-1 {tok}\n")

    def test_nonincreasing_indices(self):
        with pytest.raises(LibsvmFormatError, match="line 1"):
            parse_libsvm("+1 3:1.0 2:1.0\n")

    def test_nonnumeric_label(self):
        with pytest.raises(LibsvmFormatError, match="label"):
            parse_libsvm("abc 1:1.0\n")

    def test_empty_file(self):
        with pytest.raises(LibsvmFormatError, match="empty"):
            parse_libsvm("\n\n")

    def test_dim_override_pads(self):
        ds = parse_libsvm("+1 1:1.0\n", dim=10)
        assert ds.dim == 10

    def test_dim_override_too_small(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm("+1 5:1.0\n", dim=3)

    def test_dim_is_the_matrix_width_and_name_is_keyword_only(self):
        ds = parse_libsvm("+1 1:0.5 3:2.0\n")
        assert Dataset(ds.features, ds.labels, name="x").dim == 3
        with pytest.raises(TypeError):
            Dataset(ds.features, ds.labels, 3)

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("# header\n+1 1:1.0\n\n-1 2:1.0  # trailing\n")
        assert ds.n == 2

    @staticmethod
    def a9a_rows(value, n=2000):
        """n a9a-shaped rows: 14 stored entries of 123 per row, as LIBSVM
        text, each entry's value written by value(gen)."""
        gen = np.random.default_rng(12)
        rows = []
        for i in range(n):
            cols = np.sort(gen.choice(123, 14, replace=False)) + 1
            rows.append(("+1 " if i % 4 else "-1 ")
                        + " ".join(f"{c}:{value(gen)}" for c in cols.tolist()))
        return "\n".join(rows) + "\n"

    @staticmethod
    def load_and_build_per_nonzero(text):
        """Traced bytes per stored entry of parsing the text and building
        its problem (M=20, identical, as the a9a benchmark): the parse's
        peak, the peak of build_problem above the loaded dataset, and what
        the problem keeps once the dataset's own name is dropped."""
        stream = io.StringIO(text)  # allocated before tracing
        # The parse and build are measured, not the imports and first-call
        # caches that a tiny warm-up build takes.
        tiny = parse_libsvm("+1 1:1\n-1 2:1\n")
        build_problem(tiny, partition(tiny, 2, Regime.IDENTICAL))
        tracemalloc.start()
        try:
            ds = parse_libsvm(stream)
            loaded, parse_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            p = build_problem(ds, partition(ds, 20, Regime.IDENTICAL))
            build_peak = tracemalloc.get_traced_memory()[1] - loaded
            nnz = ds.features.nnz
            del ds
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert nnz == text.count("\n") * 14
        assert p.rows is p.dataset.features  # CSR, 11% stored: the rows are not copied
        return parse_peak / nnz, build_peak / nnz, kept / nnz

    def test_parse_memory_per_nonzero(self):
        # The parsed CSR keeps 8 bytes per value and 4 per index; the parse
        # may peak at 48 bytes per entry. One Python float per entry in a
        # list costs 32. Values of 17 digits: every entry takes float().
        per, _, _ = self.load_and_build_per_nonzero(
            self.a9a_rows(lambda gen: repr(gen.standard_normal())))
        assert per <= 48, f"{per:.1f} bytes per nonzero"

    def test_parse_memory_per_nonzero_of_plain_values(self):
        # Values of one digit, as in a9a: every entry is lexed in numpy, with
        # more tokens per chunk of text.
        per, _, _ = self.load_and_build_per_nonzero(self.a9a_rows(lambda gen: "1"))
        assert per <= 48, f"{per:.1f} bytes per nonzero"

    def test_problem_holds_the_loaded_rows_once(self):
        # The problem keeps the dataset's 12 bytes per entry and four
        # n-vectors (labels, indptr, row norms, weights) of 4 or 8 bytes a
        # row, of 14 entries: about 14 bytes per entry in all. A second,
        # signed copy of the values would add 8, and squaring the matrix
        # with scipy's multiply would peak at 27 while the build runs.
        # At n = 20000 rows the Gram blocks that L is derived from (two
        # 256 x 123 blocks and two 123 x 123 matrices, whatever n is) cost
        # 2.7 bytes per entry. The problem keeps one of those matrices, the
        # Gram that Newton's first step reuses: 0.4 bytes per entry.
        _, build_peak, kept = self.load_and_build_per_nonzero(
            self.a9a_rows(lambda gen: "1", n=20000))
        assert kept <= 16, f"{kept:.1f} bytes per nonzero kept"
        assert build_peak <= 14, f"{build_peak:.1f} bytes per nonzero at the build's peak"


_SEPARATORS = [" ", " ", " ", "  ", "\t", " \t", "\xa0", "\u3000", "\x0b", "\x1c"]
_ODD_LABELS = ["1", "0", "2", "-1.0", "+1.", "1e0", "-0", "abc", "1:1", "inf", "nan", "\u0661",
               "1_0", "1-"]
_ODD_VALUES = ["0", "-0", "0.0", "+0.000", ".5", "5.", "-.25", ".", "-", "+", "", "1e5",
               "1E-3", "1_0", "0x10", "\u0663", "1.2.3", "--1", "+-1", "5-", "1+2", ".5-",
               "infinity", "NaN", "-inf"]
_ODD_INDICES = ["", "0", "a", "+3", "-1", "007", "1_0", "\u0663", "2147483647", "999999999"]
_digits = st.text("0123456789", max_size=18)
# Sign, digits, an optional dot, digits: plain up to 15 digits, then not.
_decimal = st.builds(lambda sign, whole, dot, frac: sign + whole + dot + frac,
                     st.sampled_from(["", "+", "-"]), _digits, st.sampled_from(["", "."]),
                     _digits)
_valid_values = st.one_of(_decimal.filter(lambda v: any(c.isdigit() for c in v)),
                          st.floats(allow_nan=False, allow_infinity=False).map(repr),
                          st.integers(-10**18, 10**18).map(str))
_any_values = st.one_of(_decimal, _valid_values, st.floats().map(repr),
                        st.sampled_from(_ODD_VALUES))


@st.composite
def _line(draw, clean):
    """One data line: a clean one has a +-1 label and increasing plain
    indices with numeric values; any other may have a label, an index or a
    value that fails, or a missing or doubled colon."""
    if clean or draw(st.booleans()):
        label = draw(st.sampled_from(["+1", "-1"]))
        idx = [str(i) for i in sorted(draw(st.sets(st.integers(1, 300), max_size=6)))]
    else:
        label = draw(st.sampled_from(["+1", "-1"] + _ODD_LABELS))
        idx = draw(st.lists(st.one_of(st.integers(0, 300).map(str),
                                      st.sampled_from(_ODD_INDICES)), max_size=6))
    toks = [label]
    for i in idx:
        colon = ":" if clean else draw(st.sampled_from([":"] * 8 + ["", "::"]))
        toks.append(i + colon + draw(_valid_values if clean else _any_values))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(toks) + 1,
                         max_size=len(toks) + 1))
    return seps[0] + "".join(t + s for t, s in zip(toks, seps[1:]))


@st.composite
def _libsvm_text(draw):
    """LIBSVM text with blank lines, comments, CRLF, odd whitespace, and a
    last line with or without its newline."""
    clean = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["data"] * 6 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        elif kind == "comment":
            lines.append("# note 3:4")
        else:
            lines.append(draw(_line(clean)) + draw(st.sampled_from(["", "", "# tail", " #1:2"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _outcome(parse, text, dim):
    """The parse's labels and CSR arrays as bytes, or its error message."""
    try:
        ds = parse(text, dim=dim)
    except LibsvmFormatError as e:
        return str(e)
    m = ds.features
    return (ds.labels.tobytes(), m.shape, m.indptr.dtype, m.indptr.tobytes(),
            m.indices.dtype, m.indices.tobytes(), m.data.tobytes())


class TestLexer:
    """parse_libsvm's chunked lexer against the reference parser that
    defines it, one Python step per token."""

    @given(_libsvm_text(), st.sampled_from([None, None, 1, 400]),
           st.sampled_from([4, 16, 64, dataio._CHUNK_CHARS]))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_parser(self, text, dim, chunk):
        with mock.patch.object(dataio, "_CHUNK_CHARS", chunk):
            got = _outcome(parse_libsvm, text, dim)
        assert got == _outcome(reference_parse, text, dim)

    @pytest.mark.parametrize("line", [f"+1 1:1 7:{v} 9:2" for v in _ODD_VALUES]
                             + [f"+1 {i}:1 400:1" for i in _ODD_INDICES]
                             + [f"{lab} 1:1" for lab in _ODD_LABELS]
                             + ["+1 2:1 2:1", "+1 3:1 2:1", "+1 0:1", "+1 1:1 5", "+1 1:1 5::1",
                                "+1 1:1 5:1:1", "+1 1:1 :1", "-1 1:5-"])
    def test_each_odd_token_in_good_company(self, line):
        # One odd token between good lines, in every chunking.
        text = f"+1 1:0.5 3:2\n{line}\n-1 2:-1.25\n"
        want = _outcome(reference_parse, text, None)
        for chunk in (4, 16, dataio._CHUNK_CHARS):
            with mock.patch.object(dataio, "_CHUNK_CHARS", chunk):
                assert _outcome(parse_libsvm, text, None) == want

    @given(st.sampled_from(["", "+", "-"]), st.text("0123456789", min_size=1, max_size=15),
           st.integers(0, 15))
    @settings(max_examples=300, deadline=None)
    def test_plain_values_round_as_float_does(self, sign, digits, dot):
        text = sign + digits[:dot] + "." + digits[dot:] if dot <= len(digits) else sign + digits
        ds = parse_libsvm(f"+1 1:{text}\n")
        want = float(text)
        assert ds.features.data.tobytes() == (np.array([want]).tobytes() if want else b"")

    def test_whitespace_is_what_str_split_splits_on(self):
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert set(dataio._UNICODE_SPACES) == {ord(c) for c in spaces if not c.isascii()}
        for c in spaces:
            if c != "\n":  # the line end
                ds = parse_libsvm(f"+1{c}1:1{c}3:2{c}\n")
                assert ds.features.indices.tolist() == [0, 2], repr(c)
        with pytest.raises(LibsvmFormatError, match="malformed feature '1:1\\\\x082:1'"):
            parse_libsvm("+1 1:1\x082:1\n")  # a backspace is no whitespace

    def test_index_beyond_int32_is_refused(self):
        ds = parse_libsvm("+1 2147483647:1\n")
        assert ds.dim == 2**31 - 1 and ds.features.indices.dtype == np.int32
        with pytest.raises(LibsvmFormatError,
                           match="line 2: feature index above 2147483647 in '2147483648:0'"):
            parse_libsvm("+1 1:1\n-1 2147483648:0\n")

    def test_file_line_ends(self, tmp_path):
        # A file read in text mode turns \r\n and \r into \n, also where a
        # chunk ends between the two.
        rows = [f"{'+1' if i % 3 else '-1'} {i % 7 + 1}:{i / 8} 9:1" for i in range(200)]
        path = tmp_path / "crlf.txt"
        path.write_bytes("".join(r + ("\r\n", "\r", "\n")[i % 3]
                                 for i, r in enumerate(rows)).encode())
        with mock.patch.object(dataio, "_CHUNK_CHARS", 5), open(path, encoding="utf-8") as f:
            got = _outcome(parse_libsvm, f, None)
        assert got == _outcome(reference_parse, "\n".join(rows) + "\n", None)


class TestRoundTrip:
    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_synthetic_round_trip(self, seed):
        ds = generate_synthetic(30, 6, seed=seed)
        buf = io.StringIO()
        to_libsvm(ds, buf)
        again = parse_libsvm(buf.getvalue(), name=ds.name, dim=ds.dim)
        assert again.n == ds.n and again.dim == ds.dim
        assert np.array_equal(again.labels, ds.labels)
        assert np.array_equal(again.features.toarray(), ds.features)

    def test_awkward_values_round_trip(self):
        text = "+1 1:1e-300 3:0.1\n-1 2:123456789.123456789\n"
        ds = parse_libsvm(text)
        buf = io.StringIO()
        to_libsvm(ds, buf)
        again = parse_libsvm(buf.getvalue())
        assert (again.features != ds.features).nnz == 0


class TestPartition:
    def _ds(self, n):
        return generate_synthetic(n, 4, seed=0)

    def test_even_split(self):
        part = partition(self._ds(10), 2, Regime.HETEROGENEOUS)
        assert part.node_ranges == ((0, 5), (5, 10))

    def test_remainder_to_front(self):
        part = partition(self._ds(10), 3, Regime.HETEROGENEOUS)
        assert part.node_ranges == ((0, 4), (4, 7), (7, 10))

    def test_identical_regime(self):
        part = partition(self._ds(10), 4, Regime.IDENTICAL)
        assert part.node_ranges == ((0, 10),) * 4

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            partition(self._ds(10), 0, Regime.IDENTICAL)

    def test_m_exceeds_n_rejected(self):
        with pytest.raises(ValueError):
            partition(self._ds(3), 5, Regime.HETEROGENEOUS)

    @given(st.integers(1, 200), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_sizes_and_coverage(self, n, M):
        if M > n:
            return
        part = partition(self._ds(n), M, Regime.HETEROGENEOUS)
        sizes = [b - a for a, b in part.node_ranges]
        assert max(sizes) - min(sizes) <= 1
        covered = [i for a, b in part.node_ranges for i in range(a, b)]
        assert covered == list(range(n))


class TestManifest:
    def test_parse_and_load(self, tmp_path):
        ds = generate_synthetic(25, 5, seed=4)
        path = tmp_path / "toy.txt"
        with open(path, "w") as f:
            to_libsvm(ds, f)
        sha = sha256_of(str(path))
        entries = parse_manifest(f"toy toy.txt {sha} 25 5\n")
        loaded = load_dataset(entries["toy"], str(tmp_path))
        assert loaded.n == 25 and loaded.dim == 5

    def test_gzip_input(self, tmp_path):
        ds = generate_synthetic(10, 3, seed=5)
        buf = io.StringIO()
        to_libsvm(ds, buf)
        path = tmp_path / "toy.txt.gz"
        with gzip.open(path, "wt") as f:
            f.write(buf.getvalue())
        sha = sha256_of(str(path))
        entries = parse_manifest(f"toy toy.txt.gz {sha} 10 3\n")
        loaded = load_dataset(entries["toy"], str(tmp_path))
        assert loaded.n == 10

    def test_checksum_mismatch(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("+1 1:1.0\n")
        entries = parse_manifest("toy toy.txt deadbeef 1 1\n")
        with pytest.raises(ManifestError, match="checksum"):
            load_dataset(entries["toy"], str(tmp_path))

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("+1 1:1.0\n")
        sha = sha256_of(str(path))
        entries = parse_manifest(f"toy toy.txt {sha} 2 1\n")
        with pytest.raises(ManifestError, match="shape"):
            load_dataset(entries["toy"], str(tmp_path))

    def test_feature_beyond_manifest_dim(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("+1 1:1.0 3:2.0\n-1 2:1.0\n")
        sha = sha256_of(str(path))
        entries = parse_manifest(f"toy toy.txt {sha} 2 2\n")
        with pytest.raises(LibsvmFormatError, match="below max feature index"):
            load_dataset(entries["toy"], str(tmp_path))

    def test_load_densifies_a_file_at_least_half_stored(self, tmp_path):
        # Dense products cost no more once half the entries are stored: the
        # loader holds such a file as a C-contiguous array, and a sparser
        # one (11% stored, as a9a) as CSR; 200 of 400 is the least it
        # densifies.
        gen = RngStream(seed=6).generator()
        labels = np.where(gen.random(40) < 0.5, -1.0, 1.0)
        for stored in (400, 200, 199, 44):
            A = gen.standard_normal((40, 10))
            A.ravel()[gen.permutation(400)[stored:]] = 0.0
            ds = signed_dataset(A, labels)
            data_dir = tmp_path / str(stored)
            data_dir.mkdir()
            loaded = load_dataset(write_manifest_file(ds, str(data_dir)), str(data_dir))
            assert loaded.is_dense == (stored >= 200), stored
            if loaded.is_dense:
                assert loaded.features.flags.c_contiguous
                assert np.array_equal(loaded.features, ds.features)
            else:
                assert loaded.features.nnz == stored
                assert np.array_equal(loaded.features.toarray(), ds.features)

    def test_missing_file(self, tmp_path):
        entries = parse_manifest("toy nothere.txt deadbeef 1 1\n")
        with pytest.raises(ManifestError, match="not found"):
            load_dataset(entries["toy"], str(tmp_path))

    def test_bad_manifest_line(self):
        with pytest.raises(ManifestError, match="line 1"):
            parse_manifest("only three fields\n")

    def test_comment_and_blank_lines_are_skipped(self):
        entries = parse_manifest("# name path sha256 n dim\n\n   \ntoy toy.txt beef 4 2  # ok\n")
        assert list(entries) == ["toy"] and entries["toy"].n == 4

    def test_a_name_listed_twice_is_refused(self):
        with pytest.raises(ManifestError, match=r"^manifest line 3: dataset 'a9a' is listed "
                                                r"again \(first on line 1\)$"):
            parse_manifest("a9a a9a-old aaaa 10 3\n# the new one\na9a a9a-new bbbb 12 3\n")


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(50, 7, seed=11)
        b = generate_synthetic(50, 7, seed=11)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.features, b.features)

    def test_rows_are_label_signed(self):
        # The Gaussian draw times the final labels, flipped ones included.
        ds = generate_synthetic(50, 4, seed=14, label_noise=0.2)
        draw = RngStream(seed=14, stream_id=0).generator().standard_normal((50, 4))
        assert np.array_equal(ds.features, draw * ds.labels[:, None])
        assert ds.features.flags.c_contiguous

    def test_sorted_labels(self):
        ds = generate_synthetic(100, 5, seed=12, sort_by_label=True)
        assert np.all(np.diff(ds.labels) >= 0)

    def test_label_noise_flips_some(self):
        clean = generate_synthetic(200, 5, seed=13)
        noisy = generate_synthetic(200, 5, seed=13, label_noise=0.2)
        flipped = np.mean(clean.labels != noisy.labels)
        assert 0.05 < flipped < 0.4

    def test_dataset_without_samples_is_refused(self):
        with pytest.raises(ValueError, match="a sample and a feature"):
            Dataset(np.zeros((0, 3)), np.zeros(0))

    def test_dense_features_are_held_c_contiguous_float64(self):
        ds = generate_synthetic(5, 3, seed=16)
        assert Dataset(ds.features, ds.labels).features is ds.features
        held = Dataset(np.asfortranarray(ds.features, dtype=np.float32), ds.labels).features
        assert held.flags.c_contiguous and held.dtype == np.float64
        assert np.array_equal(held, ds.features.astype(np.float32))

    def test_dense_features_must_be_a_matrix(self):
        ds = generate_synthetic(5, 3, seed=16)
        assert Dataset(ds.features[:1], ds.labels[:1]).dim == 3
        with pytest.raises(ValueError, match="2-D"):
            Dataset(ds.features[0], ds.labels[:1])  # one row taken as a vector


class TestOutputFormats:
    # A value and the text both writers give it: floats as their shortest
    # round-trip repr, everything else as `str` gives it.
    VALUES = [(0.1 + 0.2, "0.30000000000000004"), (1e-300, "1e-300"), (-0.0, "-0.0"),
              (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (7, "7"),
              (True, "True"), (None, "None"), ("newton", "newton")]

    def test_kv_text_writes_one_line_per_pair_in_order(self):
        pairs = [(f"k{9 - i}", value) for i, (value, _) in enumerate(self.VALUES)]
        assert dataio.kv_text(pairs) == "".join(
            f"k{9 - i} = {text}\n" for i, (_, text) in enumerate(self.VALUES))
        assert dataio.kv_text([]) == ""

    def test_write_csv_writes_header_columns_and_rows(self):
        buf = io.StringIO()
        header = [("z", 0.1 + 0.2), ("a", None), ("m", "x,y")]
        dataio.write_csv(buf, header, ("value", "twice"),
                         ((value, value) for value, _ in self.VALUES))
        assert buf.getvalue() == (
            "# z = 0.30000000000000004\n# a = None\n# m = x,y\nvalue,twice\n"
            + "".join(f"{text},{text}\n" for _, text in self.VALUES))

    def test_an_empty_header_writes_no_comment_line(self):
        buf = io.StringIO()
        dataio.write_csv(buf, (), ("node", "sigma_m_sq"), [(0, 1.5), (1, -0.0)])
        assert buf.getvalue() == "node,sigma_m_sq\n0,1.5\n1,-0.0\n"

    def test_a_trace_reads_back_bit_for_bit(self):
        ds = generate_synthetic(40, 5, seed=3)
        p = build_problem(ds, partition(ds, 2, Regime.HETEROGENEOUS), lam=0.05)
        ref = solve_reference(p, 1e-10)
        cfg = RunConfig(M=2, schedule=SyncSchedule.uniform(3, 12), gamma=0.1,
                        gradient_mode=GradientMode.STOCHASTIC, batch=2, record_every=1)
        agg = run_alone(p, cfg, ref, [0, 1, 2])
        agg.mean["V"][1], agg.se["V"][2] = -0.0, 1e-300  # values a run may not give
        buf = io.StringIO()
        agg.to_csv(buf)
        lines = buf.getvalue().splitlines()
        header = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("#"))
        for stat, value in zip(("mean", "se"), agg.bar_subopt_tail):
            assert float(header[f"bar_subopt_tail_{stat}"]).hex() == value.hex()
        assert float(header["r0_sq"]).hex() == float(np.sum(ref.x_star ** 2)).hex()
        rows = list(csv.reader(line for line in lines if not line.startswith("#")))
        columns = {name: [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}
        assert columns["t"] == [str(t) for t in agg.t.tolist()]
        for name in ("V", "dist_sq", "subopt", "grad_norm_sq"):
            for stat, values in (("mean", agg.mean), ("se", agg.se)):
                back = np.array(columns[f"{name}_{stat}"], dtype=np.float64)
                nan = np.isnan(values[name])
                assert np.array_equal(np.isnan(back), nan)
                assert np.array_equal(back[~nan].view(np.uint64),
                                      values[name][~nan].view(np.uint64))
        assert np.signbit(np.float64(columns["V_mean"][1]))


# Refusals of the library: each row is a call and the message of the
# ValueError it must raise.
_REFUSALS = [
    pytest.param(lambda: Dataset(np.ones((3, 2)), np.ones(2)),
                 "features and labels disagree on sample count", id="row-label-count"),
    pytest.param(lambda: Dataset(np.ones((2, 2)), np.array([1.0, 0.0])),
                 "labels must be exactly -1 or +1", id="label-0"),
    pytest.param(lambda: generate_synthetic(0, 3, seed=1), "n and d must be positive",
                 id="synthetic-n-0"),
    pytest.param(lambda: generate_synthetic(5, -1, seed=1), "n and d must be positive",
                 id="synthetic-d-negative"),
]


@pytest.mark.parametrize("call, message", _REFUSALS)
def test_refusal_names_its_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
