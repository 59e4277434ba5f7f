import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rpkmeans import dataio, evaluation, kmeans
from rpkmeans.errors import DataFormatError, ParameterError

from _oracles import write_csv_by_csv_module


def write_pgm(path, height, width, values, comment=None):
    header = b"P5\n"
    if comment:
        header += b"# " + comment + b"\n"
    header += f"{width} {height}\n255\n".encode()
    path.write_bytes(header + bytes(values))


def test_mixture_zero_noise_two_values():
    spec = dataio.MixtureSpec(n=6, d=3, k=2, noise_sigma=0.0, seed=1)
    ds = dataio.generate_mixture(spec)
    assert np.unique(ds.points, axis=0).shape[0] == 2
    res = kmeans.brute_force_optimal(ds.points, 2)
    assert res.objective <= 1e-9 * np.sum(ds.points ** 2)


def test_mixture_deterministic():
    spec = dataio.MixtureSpec(n=12, d=5, k=3, seed=7)
    one = dataio.generate_mixture(spec)
    two = dataio.generate_mixture(spec)
    assert np.array_equal(one.points, two.points)
    assert np.array_equal(one.labels, two.labels)
    assert one.source == two.source


def test_mixture_balanced_class_sizes():
    ds = dataio.generate_mixture(dataio.MixtureSpec(n=10, d=2, k=3, seed=0))
    sizes = np.bincount(ds.labels)
    assert sizes.max() - sizes.min() <= 1


def test_mixture_separated_clusters_are_recoverable():
    spec = dataio.MixtureSpec(n=40, d=20, k=4, center_scale=10.0,
                              noise_sigma=0.1, seed=2)
    ds = dataio.generate_mixture(spec)
    # the first k rows are one point from each true cluster
    res = kmeans.lloyd(ds.points, 4, kmeans.SolverSpec())
    assert evaluation.accuracy(res.assignment, ds.labels) == 1.0


def test_mixture_spec_validation():
    with pytest.raises(ParameterError):
        dataio.MixtureSpec(n=2, d=3, k=4)
    with pytest.raises(ParameterError):
        dataio.MixtureSpec(n=5, d=3, k=2, noise_sigma=-1.0)
    # NaN passes a test for a negative value; the message names the scale
    for name in ("noise_sigma", "center_scale"):
        for value in (math.nan, math.inf):
            with pytest.raises(ParameterError, match=name):
                dataio.MixtureSpec(n=5, d=3, k=2, **{name: value})
    # n * d float64s beyond one array's byte limit, or n no intp can hold
    for n, d in ((1 << 62, 4), (1 << 57, 8), (10**400, 4)):
        with pytest.raises(ParameterError):
            dataio.MixtureSpec(n=n, d=d, k=2)
    dataio.MixtureSpec(n=(1 << 57) - 1, d=8, k=2)  # the largest that fits


def test_dataset_label_validation():
    # class labels are kept as given: they need not start at 0, be
    # contiguous or be nonnegative
    for given in ([1, 2, 2], [0, 2, 2], [-3, 7, -3]):
        ds = dataio.Dataset(points=np.zeros((3, 2)), labels=np.array(given), source="x")
        assert ds.labels.tolist() == given
    with pytest.raises(ParameterError):
        dataio.Dataset(points=np.zeros((3, 2)), labels=np.array([0, 1]),
                       source="x")
    # labels are integers or refused, never truncated
    for labels in ([0.5, 1.5, 2.5], [0, np.nan, 1], [True, False, True]):
        with pytest.raises(ParameterError, match="labels must be integers"):
            dataio.Dataset(points=np.zeros((3, 2)), labels=labels, source="x")


def test_read_csv_plain_numbers(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2\n3,4\n")
    ds = dataio.read_csv(path)
    assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.labels is None


def test_read_csv_header_with_labels(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text("x0,x1,label\n1,2,0\n3,4,1\n")
    ds = dataio.read_csv(path)
    assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ds.labels, [0, 1])


def test_csv_round_trip_is_lossless(tmp_path):
    ds = dataio.generate_mixture(dataio.MixtureSpec(n=25, d=7, k=3, seed=9))
    path = tmp_path / "mix.csv"
    dataio.write_csv(ds, path)
    back = dataio.read_csv(path)
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)


def test_csv_round_trip_without_labels(tmp_path):
    rng = np.random.default_rng(313)
    ds = dataio.Dataset(points=rng.standard_normal((6, 3)) * 1e-7,
                        labels=None, source="unit")
    path = tmp_path / "plain.csv"
    dataio.write_csv(ds, path)
    back = dataio.read_csv(path)
    assert np.array_equal(back.points, ds.points)
    assert back.labels is None


def test_read_csv_ragged_row_reports_position(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DataFormatError) as err:
        dataio.read_csv(path)
    assert "row 2" in str(err.value)


def test_read_csv_non_numeric_cell_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(DataFormatError) as err:
        dataio.read_csv(path)
    assert "row 2" in str(err.value) and "column 2" in str(err.value)


def test_read_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,2\n3,inf\n")
    with pytest.raises(DataFormatError):
        dataio.read_csv(path)


def test_read_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        dataio.read_csv(tmp_path / "absent.csv")


def test_read_csv_rejects_invalid_utf8_with_file_and_offset(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x0,x1\n1,\xff\n")
    with pytest.raises(DataFormatError) as err:
        dataio.read_csv(path)
    assert str(path) in str(err.value) and "byte 8" in str(err.value)


def test_read_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataFormatError):
        dataio.read_csv(path)


finite = st.floats(allow_nan=False, allow_infinity=False)
extreme = st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308])


@settings(max_examples=60, deadline=None)
@given(points=st.integers(1, 5).flatmap(lambda d: st.lists(
           st.lists(finite | extreme, min_size=d, max_size=d), min_size=1, max_size=6)),
       labelled=st.booleans())
@example(points=[[-0.0], [5e-324], [1e308]], labelled=True)  # d = 1
@example(points=[[-0.0], [5e-324], [1e308]], labelled=False)
def test_write_csv_bytes_match_csv_writer(tmp_path_factory, points, labelled):
    labels = np.arange(len(points)) % 2 if labelled else None
    ds = dataio.Dataset(points=np.array(points), labels=labels, source="unit")
    root = tmp_path_factory.mktemp("csv")
    dataio.write_csv(ds, root / "fast.csv")
    write_csv_by_csv_module(ds, root / "ref.csv")
    assert (root / "fast.csv").read_bytes() == (root / "ref.csv").read_bytes()


def _assert_same_parse(parsed, reference):
    (points, labels), (ref_points, ref_labels) = parsed, reference
    assert points.shape == ref_points.shape and points.tobytes() == ref_points.tobytes()
    assert (labels is None) == (ref_labels is None)
    if labels is not None:
        assert labels.tobytes() == ref_labels.tobytes()


cell_text = (finite | extreme).flatmap(lambda v: st.sampled_from(
    [repr(v), f"{v:.17e}", f"{v:+.6g}", f"{v:.3f}", f" {v!r}", f"{v!r}  "]))


@st.composite
def numeric_csv(draw):
    """Text of a valid numeric CSV: optional header and label column,
    blank lines, space-padded cells, LF or CRLF line ends."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    header = draw(st.booleans())
    labelled = header and draw(st.booleans())
    rows = []
    for i in range(n):
        cells = [draw(cell_text) for _ in range(d)]
        if labelled:
            cells.append(draw(st.sampled_from([f"{i}", f"{i}.0", f" {i} ", f"{i}e0"])))
        rows.append(",".join(cells))
    if header:
        rows.insert(0, ",".join([f"x{j}" for j in range(d)] + (["label"] if labelled else [])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in rows:
        lines += [""] * draw(st.integers(0, 2)) + [row]
    return newline.join(lines) + newline * draw(st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(text=numeric_csv())
@example(text="1,2\n3,4\n")
@example(text="x0,x1,label\r\n\r\n 1.5 ,2,0\r\n3,-0.0, 1 \r\n")
def test_read_csv_one_pass_matches_per_cell_parser(tmp_path_factory, text):
    reference = dataio._parse_cells(text, "unit")
    fast = dataio._parse_numeric(text)
    assert fast is not None  # every generated file takes the vectorized pass
    _assert_same_parse(fast, reference)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode())
    ds = dataio.read_csv(path)
    _assert_same_parse((ds.points, ds.labels), reference)


def _outcome(parse):
    try:
        return parse()
    except (DataFormatError, ParameterError) as exc:
        return type(exc), str(exc)


def _assert_reads_as_per_cell_parser(path, text):
    """read_csv of the file holding text either raises the exception the
    per-cell parser raises, with the same message, or gives its values."""
    path.write_bytes(text.encode())
    got = _outcome(lambda: dataio.read_csv(path))
    want = _outcome(lambda: dataio.Dataset(*dataio._parse_cells(text, path), source=str(path)))
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_parse((got.points, got.labels), (want.points, want.labels))


@pytest.mark.parametrize("text", [
    "1,2\n3\n",                      # ragged
    "1,2\n3,4,5\n",
    "1,2\n3,oops\n",                 # not a number
    "1,2\nnan,4\n",                  # not finite
    "1,inf\n3,4\n",
    "1,2\n3,1e999\n",                # overflows to inf
    "x0,label\n1,0\n2,1.5\n",        # label not an integer
    "x0,label\n1,0\n2,1e999\n",
    '1,2\n"3",4\n',                  # quoted cell: valid for the csv module
    "# manifest {}\n1,2\n",          # read as a header, then ragged
    "# manifest {}\n1\n",            # read as a one-column header
    "1_0,2\n3,4\n",                  # float() reads 1_0 as 10
    "1,2\n\t3,4\n",                  # float() strips the tab
    "1,2\n   \n3,4\n",               # whitespace-only row
    "1,2\r3,4\r",                    # CR line ends
    'x0,"label"\n1,0\n2,1\n',        # quoted header cell
    "x0\rx1,label\n1,0\n2,1\n",      # a CR ends the header row early
    "x0,x1\n",                       # header but no data rows
    "\n\n",                          # no rows
])
def test_read_csv_hand_cases_read_as_per_cell_parser(tmp_path, text):
    _assert_reads_as_per_cell_parser(tmp_path / "data.csv", text)


@settings(max_examples=150, deadline=None)
@given(text=numeric_csv(), defect=st.sampled_from([
    "drop", "extra", "oops", "nan", "inf", "-inf", "1e999", "1.5", '"1.0"', "1_0", "",
    "   ", "#", "\t1"]), where=st.integers(0, 10**6))
def test_read_csv_malformed_files_read_as_per_cell_parser(tmp_path_factory, text, defect,
                                                          where):
    # one defect in a valid file: in the row and cell `where` picks, or a
    # "#" line on top
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line]
    i = rows[where % len(rows)]
    cells = lines[i].split(",")
    if defect == "drop":
        cells = cells[:-1] if len(cells) > 1 else cells + ["0"]
    elif defect == "extra":
        cells.append("0")
    elif defect != "#":
        cells[(where // len(rows)) % len(cells)] = defect
    lines[i] = ",".join(cells)
    if defect == "#":
        lines.insert(0, "# manifest {}")
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    _assert_reads_as_per_cell_parser(path, "\n".join(lines) + "\n")


def test_load_image_dir_hand_fixture(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    write_pgm(tmp_path / "a" / "one.pgm", 2, 2, [0, 1, 2, 3])
    write_pgm(tmp_path / "b" / "one.pgm", 2, 2, [4, 5, 6, 7], comment=b"probe")
    ds = dataio.load_image_dir(tmp_path)
    assert np.array_equal(ds.points, [[0, 1, 2, 3], [4, 5, 6, 7]])
    assert np.array_equal(ds.labels, [0, 1])


# Plain headers, mixed whitespace, comments, and a width written 1_0 or
# +10, which int() reads as 10.
PGM_HEADERS = [
    b"P5\n10 3\n255\n",
    b"P5 10 3 255 ",
    b"P5\t\r\n 10\x0b\x0c3\r\n255\r",
    b"P5\n# made by hand\n10 3\n# maxval next\n255\n",
    b"  # leading comment\nP5 10 #width\n3 255\n",
    b"P5\n1_0 3\n255\n",
    b"P5\n+10 3\n0255\n",
]


def test_load_image_dir_bits_equal_per_image_rasters(tmp_path):
    rng = np.random.default_rng(331)
    expect, labels = [], []
    for c, header in enumerate(PGM_HEADERS):
        (tmp_path / f"c{c}").mkdir()
        for i in range(3):
            raster = rng.integers(0, 256, size=30, dtype=np.uint8).tobytes()
            (tmp_path / f"c{c}" / f"img{i}.pgm").write_bytes(header + raster)
            expect.append(np.frombuffer(raster, dtype=np.uint8).astype(np.float64))
            labels.append(c)
    ds = dataio.load_image_dir(tmp_path)
    assert ds.points.dtype == np.float64
    assert np.array_equal(ds.points, np.stack(expect))
    assert np.array_equal(ds.labels, labels)


@pytest.mark.parametrize("data, message", [
    (b"P5\n0 3\n255\n", "bad dimensions 0x3"),
    (b"P5\n# comment\n0 3\n255\n", "bad dimensions 0x3"),
    (b"P5\n2 2\n65535\n" + bytes(8), "maxval 65535 unsupported (8-bit only)"),
    (b"P5\n2 2\n255\n" + bytes(3), "raster has 3 bytes, expected 4"),
    (b"P5 2 2 255", "raster has 0 bytes, expected 4"),
    (b"P2\n2 2\n255\n0 1 2 3\n", "unsupported magic number b'P2' (want binary P5)"),
    (b"P5\n2 x\n255\n" + bytes(4), "non-numeric header field"),
    # a # inside a field is part of it, not a comment
    (b"P5\n2#x 2\n255\n" + bytes(4), "non-numeric header field"),
    (b"P5\n   # spaced comment 9\n0 2\n255\n" + bytes(4), "bad dimensions 0x2"),
    (b"P5\n2 2 # a comment to the end of the file", "truncated header"),
    (b" \n# only a comment\n", "truncated header"),
    (b"P5\n2 2\n", "truncated header"),
    (b"P5\n2", "truncated header"),
    (b"P5\n", "truncated header"),
])
def test_read_pgm_errors_name_the_file_and_the_fault(tmp_path, data, message):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    with pytest.raises(DataFormatError) as err:
        dataio._read_pgm(path)
    assert str(err.value) == f"{path}: {message}"


def test_load_image_dir_allocates_little_beyond_its_output(tmp_path):
    # rasters are decoded straight into their float64 rows, and as_matrix's
    # finiteness buffer (64 KiB) is small beside this 2.6 MB output
    rng = np.random.default_rng(337)
    for c in range(4):
        (tmp_path / f"c{c}").mkdir()
        for i in range(5):
            write_pgm(tmp_path / f"c{c}" / f"img{i}.pgm", 128, 128,
                      rng.integers(0, 256, size=128 * 128).tolist())
    tracemalloc.start()
    try:
        ds = dataio.load_image_dir(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.points.shape == (20, 128 * 128)
    assert peak <= 1.06 * ds.points.nbytes


def test_load_image_dir_empty_root(tmp_path):
    with pytest.raises(DataFormatError):
        dataio.load_image_dir(tmp_path)


def test_load_image_dir_empty_class(tmp_path):
    (tmp_path / "a").mkdir()
    with pytest.raises(DataFormatError):
        dataio.load_image_dir(tmp_path)


def test_load_image_dir_many_classes(tmp_path):
    rng = np.random.default_rng(317)
    for c in range(40):
        cdir = tmp_path / f"c{c:02d}"
        cdir.mkdir()
        for i in range(10):
            write_pgm(cdir / f"img{i}.pgm", 8, 8,
                      rng.integers(0, 256, size=64).tolist())
    ds = dataio.load_image_dir(tmp_path)
    assert ds.points.shape == (400, 64)
    assert np.array_equal(ds.labels, np.repeat(np.arange(40), 10))
    assert ds.points.min() >= 0.0 and ds.points.max() <= 255.0


def test_load_image_dir_size_mismatch(tmp_path):
    (tmp_path / "a").mkdir()
    write_pgm(tmp_path / "a" / "one.pgm", 2, 2, [0, 1, 2, 3])
    write_pgm(tmp_path / "a" / "two.pgm", 2, 3, [0, 1, 2, 3, 4, 5])
    with pytest.raises(DataFormatError):
        dataio.load_image_dir(tmp_path)


def test_pgm_rejects_wrong_magic(tmp_path):
    (tmp_path / "a").mkdir()
    path = tmp_path / "a" / "ascii.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(DataFormatError):
        dataio.load_image_dir(tmp_path)


def test_pgm_rejects_wide_maxval(tmp_path):
    (tmp_path / "a").mkdir()
    path = tmp_path / "a" / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataFormatError):
        dataio.load_image_dir(tmp_path)


def test_pgm_rejects_short_raster(tmp_path):
    (tmp_path / "a").mkdir()
    path = tmp_path / "a" / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(DataFormatError):
        dataio.load_image_dir(tmp_path)
