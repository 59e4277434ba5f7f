"""Dataset construction and IO: synthetic mixtures, CSV, and PGM images."""

import csv
import io
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as _rng
from .errors import DataFormatError, ParameterError
from .matrix import _integers, _size, as_matrix


@dataclass(eq=False)
class Dataset:
    """Points (n x d), optional integer class labels, and a source note.

    Labels are kept as given: any integers, one per row.  accuracy numbers
    their distinct values densely, and project writes them back unchanged."""

    points: np.ndarray
    labels: np.ndarray | None
    source: str

    def __post_init__(self):
        self.points = as_matrix(self.points)
        if self.labels is not None:
            self.labels = _integers(self.labels, "labels")
            if self.labels.shape != (self.points.shape[0],):
                raise ParameterError("labels must be one integer per row")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass
class MixtureSpec:
    """A seeded Gaussian mixture: k centers, isotropic noise, n points."""

    n: int
    d: int
    k: int
    center_scale: float = 1.0
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        self.n, self.d, self.k = _size(self.n, "n"), _size(self.d, "d"), _size(self.k, "k")
        if self.k > self.n:
            raise ParameterError("need k <= n")
        for name in ("center_scale", "noise_sigma"):
            value = getattr(self, name)
            # NaN fails every comparison, so test for the good range
            if not 0 <= value < math.inf:
                raise ParameterError(f"{name}={value!r} must be finite and nonnegative")
        if self.n * self.d > np.iinfo(np.intp).max // 8:
            raise ParameterError("n * d exceeds what one float64 array can hold")


def generate_mixture(spec: MixtureSpec) -> Dataset:
    """Draw the mixture: point i belongs to cluster i mod k, so the class
    sizes are balanced to within one point."""
    centers = _rng.stream(spec.seed, _rng.MIXTURE_CENTERS).standard_normal(
        (spec.k, spec.d)
    ) * spec.center_scale
    labels = np.arange(spec.n, dtype=np.int64) % spec.k
    noise = _rng.stream(spec.seed, _rng.MIXTURE_NOISE).standard_normal(
        (spec.n, spec.d)
    ) * spec.noise_sigma
    points = centers[labels] + noise
    return Dataset(
        points=points,
        labels=labels,
        source=f"mixture(n={spec.n},d={spec.d},k={spec.k},"
               f"center_scale={spec.center_scale!r},"
               f"noise_sigma={spec.noise_sigma!r},seed={spec.seed})",
    )


def write_csv(dataset: Dataset, path) -> None:
    """Write points (and labels, when present) with a header row.

    Floats are written with repr, which round-trips float64 exactly.  Rows
    end in CRLF: the bytes are those csv.writer writes for the same cells.
    """
    header = [f"x{j}" for j in range(dataset.d)]
    rows = (",".join(map(repr, row)) for row in dataset.points.tolist())
    if dataset.labels is not None:
        header.append("label")
        rows = (f"{row},{label}" for row, label in zip(rows, dataset.labels.tolist()))
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row + "\r\n" for row in rows)


# Every character a plain numeric CSV body holds.  A body with any other
# character (a quote, a letter other than e, "_", a tab, "#") is left to
# the per-cell parser.
_NUMERIC_BODY = re.compile(r"[0-9eE.+\-, \r\n]*")


def read_csv(path) -> Dataset:
    """Read a numeric CSV, with or without a header row.

    The first row counts as a header when any of its cells fails to parse
    as a number.  A final column named "label" becomes integer class
    labels.  The file is read as UTF-8.  Ragged rows, non-numeric cells and
    bytes that are not UTF-8 raise DataFormatError with their position; a
    missing file raises FileNotFoundError.

    Plain numeric files parse in one vectorized pass; anything that pass
    does not accept as is goes through the per-cell parser, which gives the
    same values and finds the row and column of any error.
    """
    path = Path(path)
    try:
        # decoding the whole file at once makes the error offset a file offset
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start} is not valid UTF-8") from None
    parsed = _parse_numeric(text)
    points, labels = parsed if parsed is not None else _parse_cells(text, path)
    return Dataset(points=points, labels=labels, source=str(path))


def _parse_numeric(text):
    """(points, labels or None) of a plain numeric CSV, or None when the
    text holds anything the per-cell parser would read differently."""
    first, _, rest = text.lstrip("\r\n").partition("\n")
    first = first.removesuffix("\r")
    # csv.reader splits the first row as str.split does, unless it holds a
    # quote, a CR (a row end to csv) or a NUL (an error to csv before 3.11)
    if any(ch in first for ch in '"\r\x00'):
        return None
    cells = first.split(",")
    try:
        [float(cell) for cell in cells]
        header, body = None, text
    except ValueError:
        header, body = cells, rest
    if not _NUMERIC_BODY.fullmatch(body):
        return None
    lines = [line for line in body.splitlines() if line]
    if not lines:
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    # the rows and width the per-cell parser sees, whatever lines loadtxt skips
    if values.shape != (len(lines), len(cells)) or not np.isfinite(values).all():
        return None
    if header is None or header[-1].strip().lower() != "label":
        return values, None
    labels = values[:, -1]
    # integers within int64, the labels the per-cell parser converts
    if not np.array_equal(labels, np.trunc(labels)) or np.abs(labels).max() >= 2.0**63:
        return None
    return values[:, :-1], labels.astype(np.int64)


def _parse_cell(text, row, col):
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(
            f"row {row}, column {col}: {text!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise DataFormatError(f"row {row}, column {col}: {text!r} is not finite")
    return value


def _parse_cells(text, path):
    """(points, labels or None) parsed cell by cell with the csv module;
    raises DataFormatError naming the row and column of the first error."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    if not rows:
        raise DataFormatError(f"{path}: no rows")
    header = None
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        header = rows[0]
        rows = rows[1:]
    if not rows:
        raise DataFormatError(f"{path}: header but no data rows")
    has_label = header is not None and header[-1].strip().lower() == "label"
    width = len(rows[0]) if header is None else len(header)
    points = []
    labels = [] if has_label else None
    for i, row in enumerate(rows):
        line = i + (2 if header is not None else 1)
        if len(row) != width:
            raise DataFormatError(
                f"row {line}: expected {width} cells, found {len(row)}"
            )
        cells = row[:-1] if has_label else row
        points.append([_parse_cell(cell, line, j + 1)
                       for j, cell in enumerate(cells)])
        if has_label:
            value = _parse_cell(row[-1], line, width)
            if value != int(value):
                raise DataFormatError(f"row {line}: label must be an integer")
            labels.append(int(value))
    return (np.array(points, dtype=np.float64),
            np.array(labels, dtype=np.int64) if has_label else None)


# One PGM header token after any whitespace and comments.  A comment runs
# to the end of its line: the lookahead keeps a backtrack from ending it
# mid-line and reading the rest as a token.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]\S*)")


def _read_pgm(path) -> np.ndarray:
    """Parse one binary (P5) PGM file into an h x w uint8 array of 0..255,
    a read-only view of the file's bytes."""
    data = Path(path).read_bytes()
    # the magic number, width, height and maxval
    fields, pos = [], 0
    while len(fields) < 4 and (match := _PGM_TOKEN.match(data, pos)):
        fields.append(match[1])
        pos = match.end()
    if fields and fields[0] != b"P5":
        raise DataFormatError(
            f"{path}: unsupported magic number {fields[0]!r} (want binary P5)"
        )
    if len(fields) < 4:
        raise DataFormatError(f"{path}: truncated header")
    try:
        width, height, maxval = map(int, fields[1:])
    except ValueError:
        raise DataFormatError(f"{path}: non-numeric header field") from None
    if width < 1 or height < 1:
        raise DataFormatError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise DataFormatError(
            f"{path}: maxval {maxval} unsupported (8-bit only)"
        )
    pos += 1  # single whitespace byte after maxval
    raster = memoryview(data)[pos:]
    if len(raster) != width * height:
        raise DataFormatError(
            f"{path}: raster has {len(raster)} bytes, expected {width * height}"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def _sorted_entries(path, keep) -> list:
    """Paths of the entries of directory path that keep accepts, in
    lexicographic name order."""
    with os.scandir(path) as entries:
        return [e.path for e in sorted(entries, key=lambda e: e.name) if keep(e)]


def load_image_dir(path) -> Dataset:
    """Load a directory of grayscale PGM images as flattened rows.

    Each subdirectory is one class; classes are labeled 0, 1, ... in
    lexicographic subdirectory order, and files are read in lexicographic
    order within each class.  All images must share one size.

    The directories are listed with os.scandir, whose entries know their
    own type, and each raster is decoded straight into its row of the
    float64 matrix: besides the output, memory goes to one file's bytes.
    """
    root = Path(path)
    if not root.is_dir():
        raise DataFormatError(f"{root}: not a directory")
    class_dirs = _sorted_entries(root, lambda e: e.is_dir())
    if not class_dirs:
        raise DataFormatError(f"{root}: no class subdirectories")
    classes = [_sorted_entries(class_dir, lambda e: e.is_file() and not e.name.startswith("."))
               for class_dir in class_dirs]
    labels = np.repeat(np.arange(len(classes), dtype=np.int64),
                       [len(files) for files in classes])
    points = None
    row = 0
    for class_dir, files in zip(class_dirs, classes):
        if not files:
            raise DataFormatError(f"{class_dir}: class directory is empty")
        for file in files:
            img = _read_pgm(file)
            if points is None:
                size = img.shape
                points = np.empty((labels.size, img.size))
            elif img.shape != size:
                raise DataFormatError(
                    f"{file}: size {img.shape} does not match {size}"
                )
            points[row] = img.reshape(-1)
            row += 1
    return Dataset(points=points, labels=labels, source=str(root))
