"""CSV helpers.

All numeric output is formatted as :func:`fmt` formats it, so that files are
byte-for-byte reproducible across runs: floats are printed with 17 significant digits, which
round-trips any IEEE double exactly, and no locale- or time-dependent state is
involved anywhere.
"""
from __future__ import annotations

import numpy as np


def fmt(x) -> str:
    """Format a scalar for CSV output (floats with 17 significant digits)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# Rows formatted per block: a long table's cells never all exist as
# strings at once.
_CSV_ROWS = 1024


def render_csv(header, columns) -> str:
    """Render named columns as CSV text.

    Parameters
    ----------
    header : sequence of str
        Column names.
    columns : sequence of array_like
        One entry per header item, all the same length.
    """
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError("header/column count mismatch")
    n = len(columns[0]) if columns else 0
    for c in columns:
        if len(c) != n:
            raise ValueError("ragged columns")
    parts = [",".join(header) + "\n"]
    for a in range(0, n, _CSV_ROWS):
        cells = [_column_text(c[a:a + _CSV_ROWS]) for c in columns]
        parts.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(parts)


def _column_text(column: np.ndarray) -> list:
    """:func:`fmt` of every entry of one column, converted in one call."""
    values = column.tolist()
    if column.dtype.kind == "f":
        return [format(v, ".17g") for v in values]
    return [fmt(v) for v in values]


def write_csv(path, header, columns) -> None:
    text = render_csv(header, columns)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def read_csv(path):
    """Read a CSV written by :func:`write_csv`; returns (header, columns)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    cols = [np.array([float(r[j]) for r in rows]) for j in range(len(header))]
    return header, cols
