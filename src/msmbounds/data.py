"""Immutable data containers, CSV ingestion, and fold splitting.

Static data is a table of units (x, a, y); panel data is long-format with
one row per (id, t) and the terminal outcome repeated on every row of an
id. Covariates may be absent (d = 0).
"""

import array
import codecs
import csv
import itertools

import numpy as np

from .errors import (
    BadFoldCount,
    DataError,
    EmptyFile,
    MissingColumn,
    ParseError,
    RaggedPanel,
)

# characters per read of a CSV body, and bytes per read of a non-UTF-8 file
_READ_CHARS = 1 << 16


class Dataset:
    """Immutable static dataset: covariates x (n, d), treatment a (n,), outcome y (n,)."""

    __slots__ = ("x", "a", "y")

    def __init__(self, x, a, y):
        a = np.array(a, dtype=float, copy=True).ravel()
        y = np.array(y, dtype=float, copy=True).ravel()
        if x is None:
            x = np.zeros((a.size, 0))
        x = np.array(x, dtype=float, copy=True)
        if x.ndim == 1:
            x = x[:, None]
        if x.size == 0:
            x = x.reshape(a.size, 0)
        if x.shape[0] != a.size or a.size != y.size:
            raise DataError("x, a, y lengths differ")
        if a.size < 2:
            raise DataError("need at least 2 units")
        for name, arr in (("x", x), ("a", a), ("y", y)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite entries in {name}")
        x.setflags(write=False)
        a.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n(self):
        return self.a.size

    @property
    def d(self):
        return self.x.shape[1]

    def take(self, indices):
        indices = np.asarray(indices, dtype=int)
        return Dataset(self.x[indices], self.a[indices], self.y[indices])

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.d})"


class PanelDataset:
    """Immutable panel dataset: x (n, T, d), a (n, T), terminal y (n,), ids (n,)."""

    __slots__ = ("ids", "x", "a", "y")

    def __init__(self, ids, x, a, y):
        a = np.array(a, dtype=float, copy=True)
        y = np.array(y, dtype=float, copy=True).ravel()
        ids = list(ids)
        if a.ndim != 2:
            raise DataError("a must be (n, T)")
        if x is None:
            x = np.zeros(a.shape + (0,))
        x = np.array(x, dtype=float, copy=True)
        if x.ndim == 2:  # single covariate given as (n, T)
            x = x[:, :, None]
        n, T = a.shape
        if x.shape[:2] != (n, T) or y.size != n or len(ids) != n:
            raise DataError("panel array shapes inconsistent")
        if T < 1:
            raise DataError("need T >= 1")
        if n < 2:
            raise DataError("need at least 2 units")
        for name, arr in (("x", x), ("a", a), ("y", y)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite entries in {name}")
        x.setflags(write=False)
        a.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("PanelDataset is immutable")

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def T(self):
        return self.a.shape[1]

    @property
    def d(self):
        return self.x.shape[2]

    def take(self, indices):
        indices = np.asarray(indices, dtype=int)
        return PanelDataset([self.ids[i] for i in indices],
                            self.x[indices], self.a[indices], self.y[indices])

    def to_static(self):
        """Collapse a T=1 panel to the equivalent static dataset."""
        if self.T != 1:
            raise DataError("to_static requires T = 1")
        return Dataset(self.x[:, 0, :], self.a[:, 0], self.y)

    def __repr__(self):
        return f"PanelDataset(n={self.n}, T={self.T}, d={self.d})"


class FoldAssignment:
    """Partition of unit indices {0..n-1} into k nonempty folds."""

    __slots__ = ("fold_of_unit", "k")

    def __init__(self, fold_of_unit, k):
        fold_of_unit = np.asarray(fold_of_unit, dtype=int)
        counts = np.bincount(fold_of_unit, minlength=k)
        if counts.size != k or np.any(counts == 0):
            raise BadFoldCount("every fold must be nonempty")
        fold_of_unit.setflags(write=False)
        object.__setattr__(self, "fold_of_unit", fold_of_unit)
        object.__setattr__(self, "k", int(k))

    def __setattr__(self, name, value):
        raise AttributeError("FoldAssignment is immutable")

    @property
    def n(self):
        return self.fold_of_unit.size

    def members(self, fold):
        return np.nonzero(self.fold_of_unit == fold)[0]

    def complement(self, fold):
        return np.nonzero(self.fold_of_unit != fold)[0]


def split_folds(n, k, seed):
    """Random balanced fold assignment; fold sizes differ by at most one."""
    if not 2 <= k <= n:
        raise BadFoldCount(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold = np.empty(n, dtype=int)
    # indices 0..n-1 dealt round-robin over folds in permuted order
    fold[perm] = np.arange(n) % k
    return FoldAssignment(fold, k)


def _read_rows(path):
    """Yield the header's stripped cells, then each body row that has a
    non-blank cell, as the csv module reads them: one row at a time.

    Raises ``DataError`` for a file it cannot open, ``EmptyFile`` for a file
    without rows or with a header only before the header is yielded, and the
    ``DataError`` of ``_not_utf8`` wherever the text stops being UTF-8.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError as exc:
        raise DataError(f"file not found: {path}") from exc
    except OSError as exc:  # a directory, a file without read permission
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        rows = (r for r in csv.reader(fh) if any(field.strip() for field in r))
        try:
            header = next(rows, None)
            if header is None:
                raise EmptyFile(f"no rows in {path}")
            first = next(rows, None)
            if first is None:
                raise EmptyFile(f"header only in {path}")
            yield [h.strip() for h in header]
            yield first
            yield from rows
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path):
    """DataError naming the file offset of the first byte that is not UTF-8."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0  # bytes fed to the decoder so far
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_READ_CHARS)
            pending = len(decoder.getstate()[0])
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                at = offset - pending + exc.start
                return DataError(f"{path} is not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                                 f"at offset {at}")
            if not chunk:
                return DataError(f"{path} is not UTF-8")
            offset += len(chunk)


def _column_index(header, name):
    try:
        return header.index(name)
    except ValueError:
        raise MissingColumn(name) from None


def _parse_cell(row_values, row_number, idx, col_name):
    raw = row_values[idx].strip() if idx < len(row_values) else ""
    try:
        return float(raw)
    except ValueError:
        raise ParseError(row_number, col_name, raw) from None


def _body_lines(fh, text):
    """Lists of a CSV body's lines: ``text``, then bounded reads of ``fh``.

    Lines end at "\n" only, as ``str.split("\n")`` splits the whole body,
    so a lone "\r" stays inside its line. Raises ValueError at the first
    read that holds a quote.
    """
    parts = []
    while text:
        if '"' in text:
            raise ValueError("quoted cell")
        parts.append(text)
        if "\n" in text:
            lines = "".join(parts).split("\n")
            parts = [lines.pop()]
            yield lines
        text = fh.read(_READ_CHARS)
    yield ["".join(parts)]


def _numpy_columns(path, names):
    """The named columns as an (n, len(names)) float array, parsed by numpy.

    None wherever the file is not plain comma-separated numbers: the header
    row is not found, a column is missing, there are no data rows, a cell
    is quoted, the text is not UTF-8, or ``np.loadtxt`` rejects a cell or a
    row. ``_row_columns`` then decides, so the errors keep their types and
    messages. Whatever numpy accepts it parses with Python's own
    string-to-float conversion, so every value equals ``float(cell.strip())``.

    The body reaches numpy line by line from reads of ``_READ_CHARS``
    characters, so no copy of the file's text is held: peak memory is about
    twice the parsed array (numpy grows its output as it reads).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next((r for r in reader if any(field.strip() for field in r)), None)
            if header is None:
                return None
            header = [h.strip() for h in header]
            if any(name not in header for name in names):
                return None
            # an all-blank body has no data rows; numpy would warn and return none
            text = fh.read(_READ_CHARS)
            while text.isspace():
                more = fh.read(_READ_CHARS)
                if not more:
                    return None
                text += more
            if not text:
                return None
            return np.loadtxt(
                itertools.chain.from_iterable(_body_lines(fh, text)), dtype=float,
                delimiter=",", comments=None,
                usecols=[header.index(name) for name in names], ndmin=2,
            )
    except (OSError, ValueError, csv.Error):
        return None


def _row_columns(path, names):
    """The named columns parsed cell by cell from the csv module's rows.

    Raises ``EmptyFile``, ``MissingColumn`` and ``ParseError(row, column,
    raw)`` for the first failing cell, row by row in ``names`` order.
    """
    rows = _read_rows(path)
    header = next(rows)
    idx = [_column_index(header, name) for name in names]
    # row numbers are 1-based and count the header
    cells = (_parse_cell(row, rownum, i, name)
             for rownum, row in enumerate(rows, start=2) for i, name in zip(idx, names))
    return np.fromiter(cells, dtype=float).reshape(-1, len(names))


def load_csv(path, schema=None):
    """Load a static dataset.

    schema: {"y": name, "a": name, "x": [names...]}; x defaults to [] when
    omitted. Rows keep file order. numpy parses plain numeric files; any
    other file is read row by row, which reports the failing cell.
    """
    schema = dict(schema or {})
    names = [schema.get("y", "y"), schema.get("a", "a"), *schema.get("x", [])]
    cols = _numpy_columns(path, names)
    if cols is None:
        cols = _row_columns(path, names)
    return Dataset(cols[:, 2:], cols[:, 1], cols[:, 0])


def load_panel_csv(path, schema=None):
    """Load a long-format panel: one row per (id, t), outcome repeated per id.

    schema: {"id": name, "t": name, "y": name, "a": name, "x": [names...]}.
    Every id must carry the same set of t values 1..T, and y must be
    constant within id. Output sorted by (first appearance of id, t).
    """
    schema = dict(schema or {})
    id_col = schema.get("id", "id")
    t_col = schema.get("t", "t")
    y_col = schema.get("y", "y")
    a_col = schema.get("a", "a")
    x_cols = list(schema.get("x", []))
    rows = _read_rows(path)
    header = next(rows)
    ii = _column_index(header, id_col)
    ti = _column_index(header, t_col)
    yi = _column_index(header, y_col)
    ai = _column_index(header, a_col)
    xi = [_column_index(header, c) for c in x_cols]

    steps = {}  # id -> {t: row index}, ids in order of first appearance
    values = array.array("d")  # each row's y, a and x, row after row
    for r, row in enumerate(rows):
        rownum = r + 2  # 1-based, counting the header
        unit_id = row[ii].strip() if ii < len(row) else ""
        t_val = _parse_cell(row, rownum, ti, t_col)
        if t_val != int(t_val):
            raise ParseError(rownum, t_col, row[ti])
        t_val = int(t_val)
        values.append(_parse_cell(row, rownum, yi, y_col))
        values.append(_parse_cell(row, rownum, ai, a_col))
        values.extend(_parse_cell(row, rownum, idx, name) for idx, name in zip(xi, x_cols))
        unit = steps.setdefault(unit_id, {})
        if t_val in unit:
            raise RaggedPanel(unit_id, f"duplicate t={t_val}")
        unit[t_val] = r

    order = list(steps)
    t_sets = {uid: tuple(sorted(unit)) for uid, unit in steps.items()}
    expected = t_sets[order[0]]
    if expected != tuple(range(1, len(expected) + 1)):
        raise RaggedPanel(order[0], f"t values {list(expected)} are not 1..T")
    for uid, ts in t_sets.items():
        if ts != expected:
            raise RaggedPanel(uid, f"t values {list(ts)} differ from {list(expected)}")
    n, T = len(order), len(expected)
    at = np.fromiter((unit[t] for unit in steps.values() for t in expected),
                     dtype=np.intp, count=n * T).reshape(n, T)
    cols = np.frombuffer(values).reshape(-1, 2 + len(xi))[at]  # (n, T, 2 + d)
    y = cols[:, :, 0]
    varies = np.any(y[:, 1:] != y[:, :1], axis=1)
    if varies.any():
        raise RaggedPanel(order[int(np.argmax(varies))], "outcome not constant within id")
    return PanelDataset(order, cols[:, :, 2:], cols[:, :, 1], y[:, 0])


def save_csv(dataset, path, schema=None):
    """Write a dataset back to CSV with round-trippable float formatting."""
    schema = dict(schema or {})
    if isinstance(dataset, PanelDataset):
        id_col = schema.get("id", "id")
        t_col = schema.get("t", "t")
        y_col = schema.get("y", "y")
        a_col = schema.get("a", "a")
        x_cols = list(schema.get("x", [f"x{j + 1}" for j in range(dataset.d)]))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([id_col, t_col, a_col] + x_cols + [y_col])
            for i in range(dataset.n):
                for t in range(dataset.T):
                    row = [str(dataset.ids[i]), str(t + 1), f"{dataset.a[i, t]:.17g}"]
                    row += [f"{v:.17g}" for v in dataset.x[i, t]]
                    row.append(f"{dataset.y[i]:.17g}")
                    writer.writerow(row)
        return
    y_col = schema.get("y", "y")
    a_col = schema.get("a", "a")
    x_cols = list(schema.get("x", [f"x{j + 1}" for j in range(dataset.d)]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([a_col] + x_cols + [y_col])
        for i in range(dataset.n):
            row = [f"{dataset.a[i]:.17g}"]
            row += [f"{v:.17g}" for v in dataset.x[i]]
            row.append(f"{dataset.y[i]:.17g}")
            writer.writerow(row)
