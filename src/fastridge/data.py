"""Dataset handling: CSV reading, standardization, the model file, prediction.

Numeric CSV bodies are read in blocks of whole lines by orjson, whose
correctly rounded decimal-to-double conversion gives the bits float()
gives; any other file goes through csv.reader and float().

Everything downstream of this module consumes standardized predictors
(zero mean, unit sample standard deviation) and centered targets; the
intercept is recovered when mapping coefficients back to the raw scale.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import re
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from enum import Enum

import numpy as np
import orjson

from . import __version__
from .exceptions import DataError, DegenerateProblemError


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the nonempty float array ``a`` is finite. min()
    and max() are NaN when any entry is NaN and infinite when one is, so no
    boolean array the size of ``a`` is made."""
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def count(name: str, value, least: int, most: int | None = None) -> None:
    """Check that the argument ``name`` is a count: an integer (a bool is
    not one) of at least ``least`` and, when ``most`` is given, at most
    ``most``, or DataError naming it. The one rule for every count: sizes,
    seeds, grid lengths, iteration caps, replications, and the generator's
    seeds, path components and draw counts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise DataError(f"{name} must be at least {least}")
    if most is not None and value > most:
        raise DataError(f"{name} must be at most {most}")


def real(name: str, value, positive: bool = True) -> None:
    """Check that the argument ``name`` is a real number: finite as a double
    (an integer past the largest double is not), not a bool (numpy floats
    and integers are real numbers), and positive, or at least
    0 when ``positive`` is false; or DataError naming it. The one rule for
    every real-valued argument: penalties, hyperparameters, E-step
    statistics, tolerances, radii and noise levels."""
    try:  # float() raises OverflowError for an integer past the largest double
        finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(float(value))
    except OverflowError:
        finite = False
    if not finite:
        raise DataError(f"{name} must be a finite real number, not {value!r}")
    if value < 0 or (positive and value == 0):
        raise DataError(f"{name} must be {'positive' if positive else 'at least 0'}")


def floats(name: str, value, *shape: int | None, vector: str | None = None) -> np.ndarray:
    """``value`` as a float array (np.asarray: no copy of a float array) of
    exactly ``shape``, where None is any size, or DataError naming the
    argument: ``X has shape (2, 4, 4), expected (any, 4)``, or ``X must be a
    rectangular array of numbers`` for a ragged list, a string or anything
    else numpy cannot read as float. The one rule for every array argument's
    shape; a vector is 1-D, or, when ``vector`` is "row" or "column", a 1-D
    value is one row or one column of a 2-D shape. Finiteness is all_finite's."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{name} must be a rectangular array of numbers ({exc})") from None
    if vector is not None and a.ndim == 1:
        a = a[None, :] if vector == "row" else a[:, None]
    if a.ndim != len(shape) or any(want not in (None, got) for got, want in zip(a.shape, shape)):
        expected = ", ".join("any" if want is None else str(want) for want in shape)
        raise DataError(f"{name} has shape {a.shape}, expected ({expected}{',' * (len(shape) == 1)})")
    return a


class Method(Enum):
    """A penalty selector. Method(value) is the one method rule: it returns
    the member itself or the member with that value ("em"), and raises
    DataError listing the values for anything else."""

    EM = "em"
    LOOCV_FIXED = "loocv-fixed"
    LOOCV_GLMNET = "loocv-glmnet"

    @classmethod
    def _missing_(cls, value):
        raise DataError(f"method must be one of {', '.join(m.value for m in cls)}; got {value!r}")


@dataclass(frozen=True)
class Dataset:
    """Raw design matrix X (n x p) and targets Y (n x q, q >= 1).

    Both are held as float64 arrays in row order (C-contiguous), which
    copies nothing for a C-ordered float64 caller: everything downstream
    sums over rows in that order. X is 2-D and Y 1-D (one target) or 2-D
    with X's rows (data.floats). A non-finite entry raises DataError; the
    check reads min() and max(), which are NaN when any entry is, and
    allocates nothing data-sized. Names, when given, follow the model
    file's name rule (_array): a 1-D list of strings, one per column of X
    (column_names) or Y (target_names), none of them twice, or DataError,
    so a bad name is refused before anything is solved.
    """

    X: np.ndarray
    Y: np.ndarray
    column_names: list[str] | None = None
    target_names: list[str] | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(floats("X", self.X, None, None))
        Y = np.ascontiguousarray(floats("Y", self.Y, X.shape[0], None, vector="column"))
        if X.shape[0] < 1 or X.shape[1] < 1 or Y.shape[1] < 1:
            raise DataError("need n >= 1, p >= 1, q >= 1")
        if not all_finite(X) or not all_finite(Y):
            raise DataError("non-finite entries in X or Y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        for field, per, count in (("column_names", "feature", self.p), ("target_names", "target", self.q)):
            if (names := getattr(self, field)) is not None:
                object.__setattr__(self, field, _array(field, names, str, None, per, count, 1))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class StandardizedDataset:
    """Standardized predictors and centered targets with the statistics
    needed to undo the transform.

    ``kept_columns`` indexes into the original p columns; a column is
    dropped when all its entries are equal, or when its sample standard
    deviation underflows to zero.
    """

    X_std: np.ndarray
    Y_centered: np.ndarray
    col_means: np.ndarray
    col_sds: np.ndarray
    y_means: np.ndarray
    kept_columns: np.ndarray

    @property
    def p_kept(self) -> int:
        return self.X_std.shape[1]

    @property
    def p_original(self) -> int:
        return self.col_means.shape[0]

    @property
    def q(self) -> int:
        return self.Y_centered.shape[1]


@dataclass(frozen=True)
class FitResult:
    """A fitted model on the raw data scale: what a model file holds.

    beta_raw is p x q: one row per feature, one column per target (a flat
    list in the file for one target). method is a Method or its value.
    Each model-file array is a row of ``_ARRAYS``, which says what its
    entries are (finite numbers, integers or strings, and for penalties,
    scales, CVE and iteration counts their sign) and what it counts: one
    entry per target (intercepts, lambda_, y_means, target_names, EM's tau2,
    sigma2 and iterations, LOOCV's grid and cve_curves rows) or per feature
    (feature_names, col_means, col_sds), and which methods it applies to:
    tau2, sigma2 and iterations only to EM, grid and cve_curves only to
    LOOCV. Fields without a default are required. An unknown method, another
    method's detail, ragged rows, entries of another kind, sign or count
    raise DataError naming the field, as does a model that disagrees with
    itself: lambda_ != 1/tau2; grid and cve_curves rows of unequal
    length, or lambda_ other than the grid value at the first CVE minimum;
    kept_columns not strictly increasing within 0..p-1; or a feature or
    target name given twice. "grid_kind" is written from the method.
    """

    beta_raw: np.ndarray
    intercepts: np.ndarray
    lambda_: np.ndarray
    method: Method
    tau2: np.ndarray | None = None
    sigma2: np.ndarray | None = None
    iterations: np.ndarray | None = None
    cve_curves: np.ndarray | None = None
    grid: np.ndarray | None = None
    col_means: np.ndarray | None = None
    col_sds: np.ndarray | None = None
    kept_columns: np.ndarray | None = None
    y_means: np.ndarray | None = None
    feature_names: list[str] | None = None
    target_names: list[str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        beta = _entries("beta_raw", self.beta_raw, float)
        beta = beta[:, None] if beta.ndim == 1 else beta
        if beta.ndim != 2:
            raise DataError("beta_raw must be 1-D or 2-D")
        object.__setattr__(self, "beta_raw", beta)
        p, q = beta.shape
        counts = {"feature": p, "target": q}
        required = {f.name for f in fields(self) if f.default is MISSING}
        for name, _, _, kind, sign, per, ndim, prefix in _ARRAYS[1:]:
            value = getattr(self, name)
            if value is None:
                if name in required:
                    raise DataError(f"{name} is missing")
                continue
            if not self.method.value.startswith(prefix):
                raise DataError(f"{name} does not apply to method {self.method.value}")
            object.__setattr__(self, name, _array(name, value, kind, sign, per, counts.get(per), ndim))
        if self.tau2 is not None and np.any(np.abs(self.lambda_ * self.tau2 - 1.0) > 1e-12):
            raise DataError("lambda must equal 1/tau2")
        if self.grid is not None and self.cve_curves is not None:
            if self.grid.shape != self.cve_curves.shape:
                raise DataError("grid and cve_curves rows must have equal lengths")
            # argmin takes the first minimum, as loocv_fit does
            if np.any(self.lambda_ != self.grid[np.arange(q), np.argmin(self.cve_curves, axis=1)]):
                raise DataError("lambda must be the grid value at the CVE minimum")
        kept = self.kept_columns
        if kept is not None and not (np.all(np.diff(kept) > 0) and np.all((kept >= 0) & (kept < p))):
            raise DataError(f"kept_columns must be strictly increasing within 0..{p - 1}")

    def to_json(self) -> str:
        """The model file: JSON with sorted keys, repr-exact finite floats (no
        NaN or Infinity) and no timestamps, so equal fits give byte-identical
        files. Fields that are None are left out."""
        model = {"method": self.method.value, "library_version": __version__}
        if self.grid is not None:
            model["grid_kind"] = self.method.value.removeprefix("loocv-")
        for name, place, key, *_ in _ARRAYS:
            value = getattr(self, name)
            value = value[:, 0] if name == "beta_raw" and value.shape[1] == 1 else value
            if value is not None:
                (model.setdefault(place, {}) if place else model)[key] = value
        # Arrays become lists of Python scalars, which json writes repr-exact.
        return json.dumps(model, sort_keys=True, indent=2, allow_nan=False, default=np.ndarray.tolist) + "\n"

    @classmethod
    def from_json(cls, text: str) -> FitResult:
        """Parse a model file written by to_json: each row of ``_ARRAYS`` from
        its place, no other key ("grid_kind" included). DataError if it is not
        a JSON object, nor its standardization, or FitResult refuses it."""
        try:
            model = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON: {exc}") from None
        if not isinstance(model, dict) or not isinstance(std := model.get("standardization", {}), dict):
            raise DataError("malformed model file: the model and its standardization must be objects")
        arrays = {name: (std if place else model).get(key) for name, place, key, *_ in _ARRAYS}
        try:
            return cls(method=model.get("method"), **arrays)
        except (ValueError, TypeError) as exc:
            raise DataError(f"malformed model file: {exc}") from None


# Every array of the model file: its FitResult field, place (None: the top
# level) and key, its entries' kind and sign (a key of _SIGNS, or None: any),
# what its first axis counts (None: nothing), its dimensions and the methods
# it applies to, as the prefix of their values ("": every method). The
# coefficients' shape gives the counts.
_ARRAYS = (
    ("beta_raw", None, "coefficients", float, None, "feature", 2, ""),
    ("intercepts", None, "intercepts", float, None, "target", 1, ""),
    ("lambda_", None, "lambda", float, "positive", "target", 1, ""),
    ("tau2", None, "tau2", float, "positive", "target", 1, "em"),
    ("sigma2", None, "sigma2", float, "positive", "target", 1, "em"),
    ("iterations", None, "iterations", int, "positive", "target", 1, "em"),
    ("grid", None, "grid", float, "positive", "target", 2, "loocv"),
    ("cve_curves", None, "cve_curve", float, "nonnegative", "target", 2, "loocv"),
    ("y_means", "standardization", "y_means", float, None, "target", 1, ""),
    ("target_names", None, "target_names", str, None, "target", 1, ""),
    ("feature_names", None, "feature_names", str, None, "feature", 1, ""),
    ("col_means", "standardization", "col_means", float, None, "feature", 1, ""),
    ("col_sds", "standardization", "col_sds", float, "nonnegative", "feature", 1, ""),
    ("kept_columns", "standardization", "kept_columns", int, None, None, 1, ""),
)

# What a signed row's entries must be: every one compares true with 0.
_SIGNS = {"positive": np.greater, "nonnegative": np.greater_equal}


def _entries(name: str, value, kind: type, sign: str | None = None) -> np.ndarray:
    """``value`` as an array of ``kind``: float (finite, from any numeric dtype
    but bool), int, or str (an object array: numpy would turn [1, "a"] into
    strings), each entry of the given sign. Anything else, ragged rows
    included, is a DataError naming it."""
    try:
        a = np.asarray(value, dtype=object if kind is str else None)
    except ValueError:  # numpy's "inhomogeneous shape", which names no array
        raise DataError(f"{name} rows have unequal lengths") from None
    if kind is str:
        ok = all(isinstance(entry, str) for entry in a.flat)
    elif ok := a.size == 0 or a.dtype.kind in ("iuf" if kind is float else "i"):
        a = a.astype(kind, copy=False)
        ok = kind is int or a.size == 0 or all_finite(a)
    if not ok:
        words = {float: "finite numbers", int: "integers", str: "strings"}[kind]
        raise DataError(f"{name} entries must be {words}")
    if sign is not None and not np.all(_SIGNS[sign](a, 0)):
        raise DataError(f"{name} entries must be {sign}")
    return a


def _array(name: str, value, kind: type, sign: str | None, per: str | None, count: int | None, ndim: int):
    """A row of ``_ARRAYS`` checked: ``value``'s entries as _entries takes
    them, its first axis ``count`` long (one per ``per``, unless per is
    None) and ``ndim`` dimensions; strings become a list that names nothing
    twice. The name rule of both Dataset and FitResult."""
    value = _entries(name, value, kind, sign)
    if per and value.shape[:1] != (count,):
        got = f"has length {len(value)}" if value.ndim else "is a scalar"
        raise DataError(f"{name} {got}; expected {count}, one per {per}")
    if value.ndim != ndim:
        raise DataError(f"{name} is {value.ndim}-D; expected {ndim}-D")
    if kind is str:
        value = value.tolist()
        if (repeated := _repeated(value)) is not None:
            raise DataError(f"{name} lists {repeated!r} twice")
    return value


def _repeated(names) -> str | None:
    """The first of names that appears more than once, or None."""
    return next((name for name, count in Counter(names).items() if count > 1), None)


def target_label(names, t: int) -> str:
    """How an error names target t: the repr of its name when the targets
    have names, else its index."""
    return repr(names[t]) if names else str(t)


def _parse_target_spec(target_spec, header: list[str]) -> list[int]:
    """Resolve a target spec (names, comma-joined names, or 'last k') to
    column indices within ``header``. Only ``last`` and ``last <k>`` select
    trailing columns; any other string is read as column names."""
    if isinstance(target_spec, str):
        spec = target_spec.strip()
        last = re.fullmatch(r"last(?:\s+(\d+))?", spec, re.IGNORECASE)
        if last:
            k = int(last.group(1) or 1)
            if not 1 <= k <= len(header):
                raise DataError(f"'last {k}' out of range for {len(header)} columns")
            return list(range(len(header) - k, len(header)))
        names = [s.strip() for s in spec.split(",") if s.strip()]
    else:
        names = list(target_spec)
    idx = []
    for name in names:
        if name not in header:
            raise DataError(f"target column {name!r} not found in header")
        idx.append(header.index(name))
    if (name := _repeated(names)) is not None:
        raise DataError(f"target column {name!r} listed twice")
    if not idx:
        raise DataError("empty target spec")
    return idx


# Body bytes the block reader takes: digits, signs, exponent markers, the
# decimal point, commas and whitespace. Any other byte (a quote, a letter, a
# bracket, non-ASCII text) sends the file to csv.reader, so nothing that JSON
# reads as a string, literal or list can pass for a number.
_NUMERIC_BYTES = b"0123456789eE+-.,\t\n\r "
# The integer -0, which orjson reads as 0 and float() as -0.0; not the tail of
# an exponent such as 1e-0.
_NEG_ZERO = re.compile(rb"-(?<![eE]-)0(?![\d.eE])")
# Whole lines per block: large enough to amortize the per-block calls, small
# enough that a block's bytes and Python floats stay a few MiB.
_BLOCK_BYTES = 1 << 20


def _header(cells, path) -> list[str]:
    """The stripped header cells; a name given twice raises DataError."""
    header = [h.strip() for h in cells]
    if (name := _repeated(header)) is not None:
        raise DataError(f"{path}: header names column {name!r} twice")
    return header


def _plain_header(line: bytes, path) -> list[str] | None:
    """The header cells of a first line that is one csv.reader record on its
    own (no quote, no carriage return but a final CRLF), or None."""
    if b'"' in line or line.count(b"\r") > line.endswith(b"\r\n"):
        return None
    try:
        cells = next(csv.reader([line.decode("utf-8-sig")]), [])  # drops a byte-order mark
    except (UnicodeDecodeError, csv.Error):
        return None
    return _header(cells, path) or None


def _parse_block(data: bytes, width: int) -> np.ndarray | None:
    """The rows of ``data``, whole lines without the final line end, read as
    float() reads each cell, or None when the block is not rows of ``width``
    plain numbers. orjson reads the numbers, correctly rounded like float()."""
    if data.translate(None, _NUMERIC_BYTES):
        return None
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None  # a lone CR ends a csv.reader row, but is blank space to JSON
    try:
        table = np.array(orjson.loads(b"[[%b]]" % data.replace(b"\n", b"],[")), dtype=float)
    except ValueError:  # not JSON numbers (say +1, .5, 007 or 1e400), or ragged rows
        return None
    if table.ndim != 2 or table.shape[1] != width:
        return None
    if not table.all():
        data, count = _NEG_ZERO.subn(b"-0.0", data)
        if count:
            return _parse_block(data, width)
    return table


def _read_blocks(fh, width: int, size: int) -> np.ndarray | None:
    """The rest of a binary file, ``size`` bytes, parsed block by block, or
    None as soon as a block is not plain numeric rows. Blank lines at a
    block's ends are dropped, as csv.reader skips them; one inside a block
    fails it.

    The table is sized for the rows the bytes left would hold at the last
    block's bytes per row, and grows in place (realloc): the rows are held
    once, in an allocation not much larger than the table. (Doubling made
    allocations up to twice the table, which moved the heap's later peak.)"""
    table, rows = np.empty((0, width)), 0
    while chunk := fh.read(_BLOCK_BYTES):
        chunk += fh.readline()  # whole lines
        size -= len(chunk)
        data = chunk.strip(b"\r\n")
        if data:
            block = _parse_block(data, width)
            if block is None:
                return None
            if rows + len(block) > len(table):
                more = max(size, 0) * len(block) // len(data) + 1
                table.resize((rows + len(block) + more, width), refcheck=False)
            table[rows:rows + len(block)] = block
            rows += len(block)
    table.resize((rows, width), refcheck=False)
    return table if rows else None


@contextlib.contextmanager
def open_input(path):
    """The file at ``path``, open for binary reading: one that cannot be
    opened, or whose bytes read in the block are not UTF-8, is a DataError."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None


def read_csv(path, select=None):
    """Read a CSV file with one header row into ``(header, table, texts)``.

    ``select(header)`` returns the indices of the columns to parse, in
    order, and the index of one column returned unparsed as ``texts``, or
    None; by default every column is parsed. A numeric file is read in
    blocks of whole lines, about 1 MiB each, by orjson, which reads every
    number as float() does. A file with any other cell, a text column, a
    quoted or multi-line header or a blank line between rows is read from
    its first row by csv.reader and float(), which accept all that float()
    accepts (such as 1_000) and name the first malformed row. On either
    path a header that names a column twice, after stripping, raises
    DataError naming the file and the name, as does a file open_input refuses.
    """
    with open_input(path) as raw:
        # The cell path reads the file again from its start, so a pipe is
        # held in memory.
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        line = fh.readline()
        header = _plain_header(line, path)
        if header is not None:
            columns, text_column = select(header) if select else (range(len(header)), None)
            if text_column is None:
                table = _read_blocks(fh, len(header), size - len(line))
                if table is not None:
                    # Row-major, as the cell-by-cell path builds it: a matmul's
                    # rounding depends on the operand's layout.
                    return header, np.take(table, columns, axis=1) if select else table, None
        fh.seek(0)
        text = io.TextIOWrapper(fh, encoding="utf-8-sig", newline="")  # drops a byte-order mark
        return _read_cells(text, path, select)


def _read_cells(fh, path, select):
    """read_csv cell by cell from the start of the text file ``fh``:
    csv.reader splits the rows, float() reads the selected cells. A line it
    cannot split, such as a field over csv.field_size_limit(), is named."""
    reader = csv.reader(fh)
    try:
        header = _header(next(reader), path)
        columns, text_column = select(header) if select else (range(len(header)), None)
        rows, texts = [], [] if text_column is not None else None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            vals = []
            for j in columns:
                try:
                    vals.append(float(row[j]))
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell {row[j]!r} at row {lineno}, "
                        f"column {j + 1} ({header[j]})"
                    ) from None
            rows.append(vals)
            if texts is not None:
                texts.append(row[text_column])
    except StopIteration:  # no header line
        raise DataError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float), texts


def load_csv(path, target_spec) -> Dataset:
    """Load a numeric CSV (one header row) into a Dataset.

    ``target_spec`` is either an iterable of column names, a comma-joined
    string of names, or ``"last k"`` selecting the trailing k columns.
    Non-target columns become X in file order. X and Y are each gathered
    from the table once, in row order, so the Dataset holds them as they
    are.
    """
    header, table, _ = read_csv(path)
    t_idx = _parse_target_spec(target_spec, header)
    x_idx = [j for j in range(len(header)) if j not in t_idx]
    if not x_idx:
        raise DataError("all columns selected as targets; no predictors left")
    # np.take copies in row order; table[:, idx] would give a transposed,
    # Fortran-ordered copy, which Dataset would copy once more.
    return Dataset(
        X=np.take(table, x_idx, axis=1),
        Y=np.take(table, t_idx, axis=1),
        column_names=[header[j] for j in x_idx],
        target_names=[header[j] for j in t_idx],
    )


def standardize(d: Dataset) -> StandardizedDataset:
    """Center and scale each column of X to sample sd 1 (denominator n-1),
    center each target; constant columns are dropped and recorded, a
    constant target raises DegenerateProblemError, and a target whose
    centered squared norm lies outside [smallest normal double, overflow)
    raises DataError ("underflows" or "overflows"), each naming the target
    by target_label.

    X_std is the one float copy of X a fit makes: the deviations X - mean,
    scaled in place, in row order (C-contiguous). When columns are dropped
    it is the kept columns' copy of the deviations instead. The sums of
    squares run over rows without squaring into a second array, in the
    order numpy's std sums a C-ordered X of two or more columns, so for
    p >= 2 the means, sds and X_std are bitwise what X.mean(axis=0) and
    X.std(axis=0, ddof=1) give.
    """
    if d.n < 2:
        raise DataError("standardize needs n >= 2")
    # A constant column's mean need not round back, leaving a tiny sd, so
    # constancy is judged on X and Y themselves.
    varies = (d.X != d.X[0]).any(axis=0)
    col_means = d.X.mean(axis=0)
    dev = d.X - col_means
    col_sds = np.sqrt(np.einsum("ij,ij->j", dev, dev) / (d.n - 1))
    kept = np.flatnonzero(varies & (col_sds > 0.0))
    if kept.size == 0:
        raise DataError("all predictor columns have zero variance")
    X_std = dev if kept.size == d.p else np.take(dev, kept, axis=1)
    X_std /= col_sds[kept]
    constant = np.flatnonzero(~(d.Y != d.Y[0]).any(axis=0))
    if constant.size:
        raise DegenerateProblemError(f"target {target_label(d.target_names, constant[0])} is constant")
    y_means = d.Y.mean(axis=0)
    Y_centered = d.Y - y_means
    sq_norms = np.einsum("ij,ij->j", Y_centered, Y_centered)
    outside = np.flatnonzero(~((sq_norms >= np.finfo(float).tiny) & (sq_norms < np.inf)))
    if outside.size:
        t = outside[0]
        way = "overflows" if sq_norms[t] == np.inf else "underflows"
        raise DataError(f"target {target_label(d.target_names, t)}: squared norm {way}")
    return StandardizedDataset(
        X_std=X_std,
        Y_centered=Y_centered,
        col_means=col_means,
        col_sds=col_sds,
        y_means=y_means,
        kept_columns=kept,
    )


def destandardize(beta_std: np.ndarray, s: StandardizedDataset):
    """Map coefficients fit on X_std back to the raw scale.

    beta_std is p_kept x q, one column per target (a 1-D array is one
    column), or DataError (data.floats). Returns ``(beta_raw, intercepts)``
    with beta_raw of shape (p, q); dropped columns get coefficient 0 and the
    intercept absorbs the column means:
    intercept = y_mean - sum_j beta_raw[j] * col_means[j].
    """
    beta_std = floats("beta_std", beta_std, s.p_kept, s.q, vector="column")
    beta_raw = np.zeros((s.p_original, s.q))
    beta_raw[s.kept_columns] = beta_std / s.col_sds[s.kept_columns, None]
    intercepts = s.y_means - s.col_means @ beta_raw
    return beta_raw, intercepts


def predict(f: FitResult, X_new: np.ndarray) -> np.ndarray:
    """Predict targets for raw-scale rows: X_new @ beta_raw + intercepts.
    X_new holds one row per prediction and one column per feature of the
    model (a 1-D array is one row), or DataError (data.floats). A prediction
    that is not finite, from a non-finite or huge entry of X_new, raises
    DataError naming its row; the check reads the n x q predictions, not
    X_new."""
    X_new = floats("X_new", X_new, None, f.beta_raw.shape[0], vector="row")
    with np.errstate(invalid="ignore", over="ignore"):  # refused below, with its row
        Y_hat = X_new @ f.beta_raw + f.intercepts
    if Y_hat.size and not all_finite(Y_hat):
        row = np.flatnonzero(~np.isfinite(Y_hat).all(axis=1))[0]
        raise DataError(f"prediction for row {row} is not finite")
    return Y_hat
