"""CSV output with a fixed dialect and atomic writes.

A table is given as columns: numpy int or float arrays, which print as
their `tolist()` values would, or sequences of Python values.
Dialect: comma separator, single header row, decimal point.  Ints print
as integers at any size, and so do integer-valued floats with |v| <= 1e6
(zero prints as 0).  Other floats use scientific notation with 12
decimals when |v| < 1e-3 or |v| > 1e6, and 12 significant digits
otherwise.  A missing value (None) prints as nan.  Files are written to a
temp file and renamed, so readers never observe a partial file.
"""

import os
import secrets

import numpy as np

SCI_BELOW = 1e-3  # nonzero |v| below this prints in scientific notation
SCI_ABOVE = 1e6  # |v| above this prints in scientific notation
INT_FORMAT = "%d"
SCI_FORMAT = "%.12e"
FIXED_FORMAT = "%.12g"
CSV_STRIDE = 10  # default: trace CSVs keep every 10th step

_NUMERIC = (float, np.floating, np.integer)
_FORMATS = (INT_FORMAT, SCI_FORMAT, FIXED_FORMAT, "%s")  # by format code


def _float_codes(a: np.ndarray) -> np.ndarray:
    """The format code of each float in `a` under the dialect."""
    mag = np.abs(a)
    whole = (mag <= SCI_ABOVE) & (a == np.trunc(a))
    sci = (mag < SCI_BELOW) | (mag > SCI_ABOVE)
    return np.where(whole, 0, np.where(sci, 1, 2)).astype(np.uint8)


def fmt_value(v) -> str:
    """The dialect's text for one value."""
    if isinstance(v, str):
        return v
    if v is None:
        return "nan"
    if isinstance(v, int):
        return INT_FORMAT % v
    v = float(v)
    return _FORMATS[_float_codes(np.array([v]))[0]] % v


def _column(values):
    """(format codes, values to substitute) of one column: a numpy number
    array by its dtype, another sequence by its values' types (all ints,
    all numbers, or else value by value)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        ints = values.dtype.kind != "f"
    else:
        kinds = set(map(type, values))
        ints = all(issubclass(k, int) for k in kinds)
        if not (ints or all(issubclass(k, _NUMERIC) for k in kinds)):
            return np.full(len(values), 3, np.uint8), [fmt_value(v) for v in values]
    if ints:
        return np.zeros(len(values), np.uint8), values
    values = np.asarray(values, dtype=float)
    return _float_codes(values), values


def write_csv(path, header, columns) -> None:
    """Atomically write `columns` (equal-length numpy arrays or sequences
    of values) under `header`; a ragged table is a ValueError and writes
    nothing.  Each row's template is looked up by its format codes, read
    as bytes so that no key overflows, and one %-operation formats all."""
    codes, values = zip(*map(_column, columns))
    codes = np.column_stack(codes)
    patterns, inverse = np.unique(
        codes.view(np.dtype((np.void, codes.shape[1]))).ravel(), return_inverse=True)
    rows = [",".join(_FORMATS[c] for c in p.tobytes()) + "\n" for p in patterns]
    text = (",".join(header) + "\n" + "".join(map(rows.__getitem__, inverse.tolist()))
            % tuple(np.array(values, dtype=object).T.ravel().tolist()))
    write_text(path, text)


def write_text(path, text: str) -> None:
    """Atomically write `text` to `path`, making its directory: a failure
    leaves `path` as it was.  The file gets the mode `open` gives a new
    file, 0o666 less the umask (`mkstemp` would give 0o600)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{os.path.abspath(path)}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
