"""The column-wise CSV writer against the per-value rule it replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cosgd.csvio import fmt_value, write_csv


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


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 25))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_VALUES)), min_size=1,
                          max_size=5))
    columns = [draw(st.lists(COLUMN_VALUES[k], min_size=n_rows, max_size=n_rows))
               for k in kinds]
    return [f"c{i}" for i in range(len(kinds))], list(zip(*columns))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(tables())
@example((["step", "x"], []))
@example((["a", "b", "c"], [(t, v, np.float64(v)) for t, v in enumerate(EDGES)]))
@example((["n"], [(10 ** 7,), (2 ** 70,), (-10 ** 6 - 1,)]))
@example((["label", "value"], [("run", None), ("x", 1.5), (None, "y")]))
def test_same_bytes_as_per_value_rule(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, (row for row in rows))
    assert path.read_bytes() == reference_bytes(header, rows)


@pytest.mark.parametrize("v", [None, "s", 7, 10 ** 20, np.int64(3), *EDGES])
def test_fmt_value_is_the_per_value_rule(v):
    assert fmt_value(v) == reference_fmt(v)


def test_ragged_rows_rejected_without_a_file(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2.0), (3,)])
    assert list(tmp_path.iterdir()) == []
