"""CSV output with a fixed dialect and atomic writes.

Dialect: comma separator, single header row, decimal point.  Python ints
print as integers at any size, and so do integer-valued floats with
|v| <= 1e6 (zero prints as 0).  Other floats use scientific notation with
12 decimals when |v| < 1e-3 or |v| > 1e6, and 12 significant digits
otherwise.  A missing value (None) prints as nan.  Files are written to a
temp file and renamed, so readers never observe a partial file.
"""

import os
import tempfile
from itertools import chain

import numpy as np

SCI_BELOW = 1e-3  # nonzero |v| below this prints in scientific notation
SCI_ABOVE = 1e6  # |v| above this prints in scientific notation
INT_FORMAT = "%d"
SCI_FORMAT = "%.12e"
FIXED_FORMAT = "%.12g"

_NUMERIC = (float, np.floating, np.integer)


def _float_formats(a: np.ndarray) -> np.ndarray:
    """The %-format of each float in `a` under the dialect."""
    mag = np.abs(a)
    whole = (mag <= SCI_ABOVE) & (a == np.trunc(a))
    sci = (mag < SCI_BELOW) | (mag > SCI_ABOVE)
    return np.where(whole, INT_FORMAT, np.where(sci, SCI_FORMAT, FIXED_FORMAT))


def fmt_value(v) -> str:
    """The dialect's text for one value."""
    if isinstance(v, str):
        return v
    if v is None:
        return "nan"
    if isinstance(v, int):
        return INT_FORMAT % v
    v = float(v)
    return _float_formats(np.array([v]))[0] % v


def _column(values: tuple):
    """(per-value %-formats, values to substitute) of one column."""
    kinds = set(map(type, values))
    if all(issubclass(k, int) for k in kinds):
        return [INT_FORMAT] * len(values), values
    if all(issubclass(k, _NUMERIC) for k in kinds):
        a = np.array(values, dtype=float)
        return _float_formats(a).tolist(), a.tolist()
    return ["%s"] * len(values), [fmt_value(v) for v in values]


def write_csv(path, header, rows) -> None:
    """Atomically write `rows` (equal-length iterables of values) under
    `header`.  `rows` is iterated once; the whole file is formatted by
    one %-operation over a per-value template."""
    columns = [_column(col) for col in zip(*rows, strict=True)]
    template = "".join(",".join(fmts) + "\n"
                       for fmts in zip(*(fmts for fmts, _ in columns)))
    values = tuple(chain.from_iterable(zip(*(vals for _, vals in columns))))
    text = ",".join(header) + "\n" + template % values
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
