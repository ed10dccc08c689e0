import gzip
import io
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

from libsvm_text import reference_parse, to_libsvm


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
    def a9a_rows(value):
        """a9a-shaped rows: 14 stored entries of 123 per row, as LIBSVM text,
        each entry's value written by value(gen)."""
        gen = np.random.default_rng(12)
        rows = []
        for i in range(2000):
            cols = np.sort(gen.choice(123, 14, replace=False)) + 1
            rows.append(("+1 " if i % 4 else "-1 ")
                        + " ".join(f"{c}:{value(gen)}" for c in cols.tolist()))
        return "\n".join(rows) + "\n"

    @staticmethod
    def parse_peak_per_nonzero(text):
        stream = io.StringIO(text)  # allocated before tracing
        import scipy.sparse  # noqa: F401 -- the parse is measured, not this import
        tracemalloc.start()
        try:
            ds = parse_libsvm(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.nnz == 2000 * 14
        return peak / ds.features.nnz

    def test_parse_memory_per_nonzero(self):
        # The parsed CSR keeps 8 bytes per value and 4 per index; the parse
        # may peak at 48 bytes per entry. One Python float per entry in a
        # list costs 32. Values of 17 digits: every entry takes float().
        per = self.parse_peak_per_nonzero(self.a9a_rows(lambda gen: repr(gen.standard_normal())))
        assert per <= 48, f"{per:.1f} bytes per nonzero"

    def test_parse_memory_per_nonzero_of_plain_values(self):
        # Values of one digit, as in a9a: every entry is lexed in numpy, with
        # more tokens per chunk of text.
        per = self.parse_peak_per_nonzero(self.a9a_rows(lambda gen: "1"))
        assert per <= 48, f"{per:.1f} bytes per nonzero"


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
        runs = part.block_runs
        assert len(runs) <= 2 and sum(g for _, _, g, _ in runs) == M
        assert [(m, start) for m, start, _, _ in runs] == [
            (m, part.node_ranges[m][0]) for m, _, _, _ in runs]

    def test_block_runs_group_adjacent_blocks_of_one_size(self):
        runs = partition(self._ds(90), 4, Regime.HETEROGENEOUS).block_runs
        assert runs == ((0, 0, 2, 23), (2, 46, 2, 22))
        assert partition(self._ds(60), 3, Regime.HETEROGENEOUS).block_runs == ((0, 0, 3, 20),)
        # Identical nodes all reference rows 0..n: no two blocks are adjacent.
        assert partition(self._ds(10), 2, Regime.IDENTICAL).block_runs == (
            (0, 0, 1, 10), (1, 0, 1, 10))


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

    def test_missing_file(self, tmp_path):
        entries = parse_manifest("toy nothere.txt deadbeef 1 1\n")
        with pytest.raises(ManifestError, match="not found"):
            load_dataset(entries["toy"], str(tmp_path))

    def test_bad_manifest_line(self):
        with pytest.raises(ManifestError, match="line 1"):
            parse_manifest("only three fields\n")


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(50, 7, seed=11)
        b = generate_synthetic(50, 7, seed=11)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.features, b.features)

    def test_sorted_labels(self):
        ds = generate_synthetic(100, 5, seed=12, sort_by_label=True)
        assert np.all(np.diff(ds.labels) >= 0)

    def test_label_noise_flips_some(self):
        clean = generate_synthetic(200, 5, seed=13)
        noisy = generate_synthetic(200, 5, seed=13, label_noise=0.2)
        flipped = np.mean(clean.labels != noisy.labels)
        assert 0.05 < flipped < 0.4

    def test_dense_features_must_be_a_matrix(self):
        ds = generate_synthetic(5, 3, seed=16)
        assert Dataset(ds.features[:1], ds.labels[:1]).dim == 3
        with pytest.raises(ValueError, match="2-D"):
            Dataset(ds.features[0], ds.labels[:1])  # one row taken as a vector
