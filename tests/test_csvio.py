"""The column-wise CSV writer against the per-value rule it replaced."""

import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosgd import figures
from cosgd.csvio import fmt_value, write_csv, write_text


def reference_fmt(v) -> str:
    """The writer's per-value rule before it formatted whole columns,
    with a missing value (None) written as nan."""
    if v is None:
        return "nan"
    if isinstance(v, str):
        return v
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()
                              and abs(v) <= 1e6):
        return str(int(v))
    v = float(v)
    if v == 0.0:
        return "0"
    if abs(v) < 1e-3 or abs(v) > 1e6:
        return f"{v:.12e}"
    return f"{v:.12g}"


def reference_bytes(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(map(reference_fmt, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         2.2250738585072014e-308, 1e300, -1e300, 0.5, 1.0, -3.0]
for edge in (1e-3, 1e6):
    for sign in (1.0, -1.0):
        v = sign * edge
        EDGES += [np.nextafter(v, 0.0), v, np.nextafter(v, 2.0 * v)]
EDGES += [999_999.0, 1_000_001.0, -1_000_001.0, 999_999.5, 1_000_000.5, 2.0 ** 53]
EDGES = [float(v) for v in EDGES]

floats = st.one_of(st.sampled_from(EDGES), st.floats())
COLUMN_VALUES = {
    "float": floats,
    "float64": floats.map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
    "int": st.integers(-10 ** 30, 10 ** 30),
    "int64": st.integers(-2 ** 62, 2 ** 62).map(np.int64),
    "str_none": st.one_of(st.none(), st.text("ab%,. -1e", max_size=4)),
    "mixed": st.one_of(st.none(), st.text("xy", max_size=2), floats),
}


# Numpy arrays write as the Python values their `tolist()` holds.
ARRAY_VALUES = {
    "int64 array": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
    "float64 array": (floats, np.float64),
    "float32 array": (st.floats(width=32), np.float32),
}


@st.composite
def tables(draw, kinds=tuple(sorted(COLUMN_VALUES)), max_columns=5):
    """(header, columns): up to 25 rows of `kinds` columns."""
    n_rows = draw(st.integers(0, 25))
    names = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=max_columns))
    columns = []
    for name in names:
        if name in ARRAY_VALUES:
            values, dtype = ARRAY_VALUES[name]
            columns.append(np.array(draw(st.lists(values, min_size=n_rows,
                                                  max_size=n_rows)), dtype=dtype))
        else:
            columns.append(draw(st.lists(COLUMN_VALUES[name], min_size=n_rows,
                                         max_size=n_rows)))
    return [f"c{i}" for i in range(len(columns))], columns


def assert_same_bytes(path, header, columns):
    """write_csv, fed the columns once, writes the per-value rule's bytes
    of the rows they form."""
    write_csv(path, header, (col for col in columns))
    rows = zip(*(col.tolist() if isinstance(col, np.ndarray) else col
                 for col in columns))
    assert path.read_bytes() == reference_bytes(header, rows)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(tables())
@example((["step", "x"], [[], []]))
@example((["a", "b", "c"], [list(range(len(EDGES))), EDGES,
                            [np.float64(v) for v in EDGES]]))
@example((["n"], [[10 ** 7, 2 ** 70, -10 ** 6 - 1]]))
@example((["label", "value"], [["run", "x", None], [None, 1.5, "y"]]))
def test_same_bytes_as_per_value_rule(tmp_path_factory, table):
    header, columns = table
    assert_same_bytes(tmp_path_factory.mktemp("csv") / "t.csv", header, columns)


# Rows that differ only in the first or only in the last of 40 columns:
# a row pattern key of 4 ** 40 would wrap in 64 bits at either end.
WIDE = [np.full(3, 0.5) for _ in range(40)]
WIDE[0][1] = WIDE[-1][2] = 1e-9


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tables(tuple(sorted(COLUMN_VALUES)) + tuple(ARRAY_VALUES), max_columns=40))
@example(([f"c{i}" for i in range(40)], WIDE))
@example((["i", "x", "y"], [np.arange(0, 101, 7), np.linspace(0.0, 2e6, 15),
                            np.logspace(-5, 7, 15, dtype=np.float32)]))
@example((["i", "x"], [np.array([], dtype=np.int64), np.array([])]))
def test_array_columns_and_wide_tables(tmp_path_factory, table):
    header, columns = table
    assert_same_bytes(tmp_path_factory.mktemp("csv") / "t.csv", header, columns)


@pytest.mark.parametrize("v", [None, "s", 7, 10 ** 20, np.int64(3), *EDGES])
def test_fmt_value_is_the_per_value_rule(v):
    assert fmt_value(v) == reference_fmt(v)


def test_ragged_rows_rejected_without_a_file(tmp_path):
    for columns in ([(1, 3), (2.0,)], [np.arange(3), np.zeros(2)],
                    [np.zeros(2), ["a", "b", "c"]]):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], columns)
        assert list(tmp_path.iterdir()) == []


def test_files_take_the_umask_mode(tmp_path):
    """Every file a figure writes, its CSVs and its gnuplot script, is
    created as `open` creates one: mode 0o666 less the umask."""
    old = os.umask(0o027)
    try:
        figures.fig5(str(tmp_path), horizon=20, seeds=[0, 1])
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert "fig5.gp" in modes and "fig5_summary.csv" in modes
    assert set(modes.values()) == {0o640}, modes


def test_failed_replace_keeps_the_target(tmp_path, monkeypatch):
    """A write whose final rename fails re-raises, keeps the old bytes
    and leaves no temporary file beside them."""
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")

    def fail(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        write_text(str(path), "new\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
