"""Containers, CSV ingestion, and fold splitting."""

import csv
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from msmbounds import data as data_module
from msmbounds.data import (
    Dataset,
    FoldAssignment,
    PanelDataset,
    load_csv,
    load_panel_csv,
    save_csv,
    split_folds,
)
from msmbounds.errors import (
    BadFoldCount,
    DataError,
    EmptyFile,
    MissingColumn,
    ParseError,
    RaggedPanel,
)


def test_dataset_shapes_and_missing_x():
    d = Dataset(None, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert d.n == 3 and d.d == 0
    assert d.x.shape == (3, 0)
    d2 = Dataset([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert d2.x.shape == (3, 1)


def test_dataset_immutable():
    d = Dataset(None, [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(AttributeError):
        d.y = np.zeros(2)
    with pytest.raises(ValueError):
        d.a[0] = 5.0
    arr = np.array([1.0, 2.0])
    d3 = Dataset(None, arr, arr)
    arr[0] = 99.0
    assert d3.a[0] == 1.0


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(None, [1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        Dataset(None, [1.0], [1.0])
    with pytest.raises(DataError):
        Dataset(None, [1.0, np.nan], [1.0, 2.0])
    with pytest.raises(DataError):
        Dataset([[1.0], [np.inf]], [1.0, 2.0], [1.0, 2.0])


def test_dataset_take_preserves_order():
    d = Dataset([[1.0], [2.0], [3.0]], [10.0, 20.0, 30.0], [0.1, 0.2, 0.3])
    sub = d.take([2, 0])
    np.testing.assert_array_equal(sub.a, [30.0, 10.0])
    np.testing.assert_array_equal(sub.x[:, 0], [3.0, 1.0])


def test_panel_shapes_and_reduction():
    x = np.arange(8.0).reshape(4, 2, 1)
    a = np.arange(8.0).reshape(4, 2)
    p = PanelDataset(["a", "b", "c", "d"], x, a, [1.0, 2.0, 3.0, 4.0])
    assert (p.n, p.T, p.d) == (4, 2, 1)
    with pytest.raises(DataError):
        p.to_static()
    p1 = PanelDataset(["a", "b"], None, [[1.0], [2.0]], [0.5, 0.6])
    s = p1.to_static()
    np.testing.assert_array_equal(s.a, [1.0, 2.0])
    assert s.d == 0


def test_panel_single_covariate_promotion():
    p = PanelDataset(["a", "b"], [[1.0, 2.0], [3.0, 4.0]],
                     [[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0])
    assert p.x.shape == (2, 2, 1)


def test_panel_take():
    p = PanelDataset(["a", "b", "c"], None,
                     [[1.0], [2.0], [3.0]], [0.1, 0.2, 0.3])
    sub = p.take([2, 1])
    assert sub.ids == ["c", "b"]
    np.testing.assert_array_equal(sub.a[:, 0], [3.0, 2.0])


def test_split_folds_balanced_and_seeded():
    fa = split_folds(11, 3, seed=5)
    sizes = sorted(len(fa.members(k)) for k in range(3))
    assert sizes == [3, 4, 4]
    again = split_folds(11, 3, seed=5)
    np.testing.assert_array_equal(fa.fold_of_unit, again.fold_of_unit)
    other = split_folds(11, 3, seed=6)
    assert not np.array_equal(fa.fold_of_unit, other.fold_of_unit)


def test_split_folds_partition():
    fa = split_folds(20, 4, seed=1)
    all_members = np.concatenate([fa.members(k) for k in range(4)])
    assert sorted(all_members.tolist()) == list(range(20))
    comp = fa.complement(0)
    assert set(comp) == set(range(20)) - set(fa.members(0))


def test_split_folds_rejects_bad_k():
    with pytest.raises(BadFoldCount):
        split_folds(5, 1, seed=0)
    with pytest.raises(BadFoldCount):
        split_folds(5, 6, seed=0)
    with pytest.raises(BadFoldCount):
        FoldAssignment([0, 0, 1], 3)


def test_csv_round_trip(tmp_path):
    d = Dataset([[0.1, 0.2], [0.3, 0.4], [1 / 3, 2 / 7]],
                [1.0, 2.0, np.pi], [0.5, -1.5, 1e-17])
    path = tmp_path / "t.csv"
    save_csv(d, path)
    back = load_csv(path, {"x": ["x1", "x2"]})
    np.testing.assert_array_equal(back.a, d.a)
    np.testing.assert_array_equal(back.x, d.x)
    np.testing.assert_array_equal(back.y, d.y)


def test_csv_schema_and_errors(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("dose,resp\n1.0,2.0\n3.0,4.0\n")
    d = load_csv(path, {"a": "dose", "y": "resp"})
    np.testing.assert_array_equal(d.a, [1.0, 3.0])
    with pytest.raises(MissingColumn):
        load_csv(path, {"a": "nope", "y": "resp"})
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n1.0,2.0\nx,4.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(bad)
    assert exc.value.row == 3 and exc.value.col == "a"
    empty = tmp_path / "empty.csv"
    empty.write_text("a,y\n")
    with pytest.raises(EmptyFile):
        load_csv(empty)
    with pytest.raises(DataError):
        load_csv(tmp_path / "missing.csv")


def test_panel_csv_round_trip(tmp_path):
    p = PanelDataset(["u1", "u2"],
                     np.array([[[0.1], [0.2]], [[0.3], [0.4]]]),
                     np.array([[1.0, 2.0], [3.0, 4.0]]),
                     [10.0, 20.0])
    path = tmp_path / "p.csv"
    save_csv(p, path)
    back = load_panel_csv(path, {"x": ["x1"]})
    assert back.ids == ["u1", "u2"]
    np.testing.assert_array_equal(back.a, p.a)
    np.testing.assert_array_equal(back.x, p.x)
    np.testing.assert_array_equal(back.y, p.y)


def test_panel_csv_with_byte_order_mark(tmp_path):
    # Excel writes UTF-8 with a byte order mark before the header
    path = tmp_path / "p.csv"
    path.write_bytes("\ufeffid,t,a,y\nu1,1,0.5,1.0\nu2,1,0.25,2.0\n".encode("utf-8"))
    back = load_panel_csv(path)
    assert back.ids == ["u1", "u2"]
    np.testing.assert_array_equal(back.a, [[0.5], [0.25]])
    np.testing.assert_array_equal(back.y, [1.0, 2.0])


def test_non_utf8_csv_names_the_file_and_byte(tmp_path):
    static = tmp_path / "s.csv"
    static.write_bytes("y,a\n1,2\n3,caf\u00e9\n".encode("latin-1"))
    with pytest.raises(DataError, match=f"{static} is not UTF-8: byte 0xe9 at offset 13"):
        load_csv(static)
    panel = tmp_path / "p.csv"
    panel.write_bytes("id,t,a,y\nu\u00e9,1,0,1\n".encode("latin-1"))
    with pytest.raises(DataError, match="byte 0xe9 at offset 10"):
        load_panel_csv(panel)


def test_non_utf8_offset_counts_bytes_across_reads(tmp_path):
    # a two-byte character across the first read boundary, a bad byte after it
    size = data_module._READ_CHARS
    head = b"y,a\n" + b"1" * (size - 6) + b","
    assert len(head) == size - 1
    path = tmp_path / "t.csv"
    path.write_bytes(head + "\u00e9\n".encode("utf-8") + b"\xff\n")
    with pytest.raises(DataError, match=f"byte 0xff at offset {size + 2}$"):
        load_csv(path)
    truncated = tmp_path / "u.csv"
    truncated.write_bytes(b"y,a\n1,2\xc3")
    with pytest.raises(DataError, match="byte 0xc3 at offset 7$"):
        load_csv(truncated)


def test_panel_csv_ragged_and_inconsistent(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("id,t,a,y\nu1,1,0.0,1.0\nu1,2,0.0,1.0\nu2,1,0.0,2.0\n")
    with pytest.raises(RaggedPanel):
        load_panel_csv(ragged)
    dup = tmp_path / "d.csv"
    dup.write_text("id,t,a,y\nu1,1,0.0,1.0\nu1,1,0.5,1.0\n")
    with pytest.raises(RaggedPanel):
        load_panel_csv(dup)
    ycng = tmp_path / "y.csv"
    ycng.write_text("id,t,a,y\nu1,1,0.0,1.0\nu1,2,0.0,9.0\nu2,1,0.0,2.0\nu2,2,0.0,2.0\n")
    with pytest.raises(RaggedPanel):
        load_panel_csv(ycng)
    offset = tmp_path / "o.csv"
    offset.write_text("id,t,a,y\nu1,2,0.0,1.0\nu1,3,0.0,1.0\n")
    with pytest.raises(RaggedPanel):
        load_panel_csv(offset)


def _load_by_rows(path, schema):
    """load_csv through the row loop alone: the result, or the error it raises."""
    names = [schema.get("y", "y"), schema.get("a", "a"), *schema.get("x", [])]
    try:
        cols = data_module._row_columns(path, names)
        return Dataset(cols[:, 2:], cols[:, 1], cols[:, 0])
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return exc


def _same_load(path, schema):
    """load_csv agrees with the row loop bit for bit, or raises the same error."""
    want = _load_by_rows(path, schema)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as exc:
            load_csv(path, schema)
        assert str(exc.value) == str(want)
        return None
    got = load_csv(path, schema)
    for name in ("x", "a", "y"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
    return got


# name -> (file text, schema, whether numpy parses it)
CSV_EDGE_CASES = {
    "plain": ("y,a,x\n1.5,2,3\n-0,1e-300,-4e5\n", {"x": ["x"]}, True),
    "quoted-numbers": ('y,a\n"1.5",2\n3,"4"\n', {}, False),
    "quoted-header": ('"y","a"\n1.5,2\n', {}, True),
    "padded-cells": ("y , a\n 1.5 ,\t2 \n3,  4\n", {}, True),
    "unicode-space": ("y,a\n\u00a01.5,2\u2007\n3,4\u3000\n", {}, True),
    "blank-rows": ("\n\ny,a\n1,2\n\n , \n3,4\n\n", {}, False),
    "blank-line-only": ("y,a\n1,2\n\n3,4\n", {}, True),
    "string-column": ("name,y,a\nfoo,1,2\nbar baz,3,4\n", {}, True),
    "string-column-quoted-comma": ('name,extra,y,a\n"p,q",1,2,3\n"r",4,5,6\n', {}, False),
    "underscore": ("y,a\n1_000,2\n", {}, False),
    "short-row": ("y,a\n1,2\n3\n", {}, False),
    "hash-in-cell": ("y,a\n1,#2\n", {}, False),
    "hash-in-string-column": ("y,a,note\n1,2,#x\n3,4,a#b\n", {}, True),
    "crlf": ("y,a\r\n1,2\r\n3,4\r\n", {}, True),
    "lone-cr": ("y,a\r1,2\r3,4\r", {}, False),
    "header-only": ("y,a\n", {}, False),
    "blank-body": ("y,a\n\n  \n", {}, False),
    "empty": ("", {}, False),
    "missing-column": ("y,b\n1,2\n", {}, False),
    "same-column-twice": ("y,x\n1,2\n3,4\n", {"a": "y", "x": ["x"]}, True),
    "non-finite": ("y,a\nnan,2\n", {}, True),
    "empty-cell": ("y,a\n1,\n", {}, False),
    "bom": ("\ufeffy,a\n1,2\n3,4\n", {}, True),
}


@pytest.mark.parametrize("name", list(CSV_EDGE_CASES))
def test_load_csv_matches_row_loop(tmp_path, name):
    text, schema, fast = CSV_EDGE_CASES[name]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    names = [schema.get("y", "y"), schema.get("a", "a"), *schema.get("x", [])]
    assert (data_module._numpy_columns(path, names) is not None) == fast
    _same_load(path, schema)


def test_load_csv_matches_row_loop_on_random_cells(tmp_path):
    # number-like cells, padded, with some that float() or numpy refuses, so
    # the numpy parse meets values it must read like float() and ones it
    # must hand to the row loop
    rng = np.random.default_rng(0)
    pads = ["", "", " ", "\t", "\u00a0"]
    cores = ["1", "-2.5", "+.5", "1e-3", "7E+2", "-0", "0.1", "nan", "-Infinity",
             "1e309", "4.9e-324", "3.141592653589793", "0x1", "1_0", "1.2.3", "",
             "#1", "1 2", "e5"]
    parsed = 0
    for trial in range(200):
        rows = [",".join(
            rng.choice(pads) + rng.choice(cores) + rng.choice(pads) for _ in range(3)
        ) for _ in range(int(rng.integers(1, 3)))]
        path = tmp_path / f"r{trial}.csv"
        path.write_text("y,a,x\n" + "\n".join(rows) + "\n", encoding="utf-8")
        if data_module._numpy_columns(path, ["y", "a", "x"]) is not None:
            parsed += 1
        _same_load(path, {"x": ["x"]})
    assert parsed >= 20


def _rows(chars, end="\n"):
    """Whole rows "1,2" of exactly ``chars`` characters, each ending in ``end``."""
    width = 3 + len(end)
    q, r = divmod(chars, width)
    assert q >= 1
    return ("1,2" + end) * (q - 1) + "1," + "2" * (r + 1) + end


def _read_boundary_cases():
    """name -> (file text, whether numpy parses it), each body longer than
    one read of ``_READ_CHARS`` characters, which start after the header."""
    size = data_module._READ_CHARS
    return {
        # the read boundary falls after "5.5"
        "line-across-read": ("y,a\n" + _rows(size - 3) + "5.5,6.25\n7,8\n", True),
        # ... and between the "\r" and the "\n" of a CRLF
        "crlf-across-read": ("y,a\r\n" + _rows(size - 4, "\r\n") + "5,6\r\n7,8\r\n", True),
        # the only quote, in a cell numpy would skip, starts the second read
        "quote-after-first-read": ("y,a\n" + _rows(size) + '5,6,"p,q"\n', False),
        "no-final-newline": ("y,a\n" + _rows(size - 1) + "5,6", True),
        # one line: "\r" ends no line, here nor in the row loop's split
        "lone-cr-long": ("y,a\n" + "1,2\r" * size + "3,4\n", False),
        "blank-lead-longer-than-read": ("y,a\n" + "\n" * (size + 5) + "1,2\n", True),
        "blank-body-longer-than-read": ("y,a\n" + "\n" * (size + 5), False),
    }


@pytest.mark.parametrize("name", list(_read_boundary_cases()))
def test_load_csv_matches_row_loop_across_reads(tmp_path, name):
    text, fast = _read_boundary_cases()[name]
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert len(text) > data_module._READ_CHARS
    assert (data_module._numpy_columns(path, ["y", "a"]) is not None) == fast
    _same_load(path, {})


@pytest.mark.parametrize("text", ["y,a\n", "y,a\n\n  \n", "y,a\n\n\n"])
def test_empty_body_leaves_numpy_unwarned(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert data_module._numpy_columns(path, ["y", "a"]) is None


def _traced_peak(load, *args):
    """(load(*args), the tracemalloc peak in bytes while it ran)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = load(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()


def test_load_csv_peak_memory_is_about_twice_the_columns(tmp_path):
    # the body reaches numpy in bounded reads: no copy of the file's text
    # and no list of its lines, so the peak is the parsed array, numpy's
    # growth of it and the Dataset's copies
    n = 20_000
    cells = np.random.default_rng(3).normal(size=(n, 3))
    path = tmp_path / "big.csv"
    path.write_text("y,a,x\n" + "".join(f"{y!r},{a!r},{x!r}\n" for y, a, x in cells.tolist()),
                    encoding="utf-8")
    data, peak = _traced_peak(load_csv, path, {"x": ["x"]})
    np.testing.assert_array_equal(np.column_stack([data.y, data.a, data.x]), cells)
    assert peak <= 3 * 24 * n, peak / (24 * n)


def _panel_rows_in_lists(path, kept):
    """The row reader as it was before it streamed: every row of the file in a
    list, then a filtered copy, whose body the load held until it returned
    (``kept`` holds it here)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if any(field.strip() for field in r)]
    kept.append(rows[1:])
    return itertools.chain([[h.strip() for h in rows[0]]], kept[-1])


def test_panel_load_peak_memory_holds_one_row_at_a_time(tmp_path, monkeypatch):
    # 20,000 rows (10,000 ids, T = 2, one covariate): the streamed reader
    # holds one row of strings at a time, not the whole file's
    cells = np.random.default_rng(5).normal(size=(10_000, 2, 3)).tolist()
    path = tmp_path / "panel.csv"
    path.write_text("id,t,y,a,x\n" + "".join(
        f"u{i},{t + 1},{unit[0][0]!r},{unit[t][1]!r},{unit[t][2]!r}\n"
        for i, unit in enumerate(cells) for t in range(2)), encoding="utf-8")
    schema = {"x": ["x"]}
    streamed, peak = _traced_peak(load_panel_csv, path, schema)
    kept = []
    monkeypatch.setattr(data_module, "_read_rows", lambda p: _panel_rows_in_lists(p, kept))
    listed, listed_peak = _traced_peak(load_panel_csv, path, schema)
    for field in ("ids", "x", "a", "y"):
        np.testing.assert_array_equal(getattr(streamed, field), getattr(listed, field))
    assert peak <= 0.6 * listed_peak, peak / listed_peak
