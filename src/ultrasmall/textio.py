"""Whitespace-separated integer tables: the text format of every file the
package reads or writes (edge lists, xi tables, degree files and the
per-vertex CSV bodies).

Both directions work on whole arrays: writing formats a block of rows
with one `%` operation, reading parses the whole text with
`np.loadtxt`. Comment lines (`#`) and blank lines are skipped anywhere
in the text; a line with the wrong number of integers raises ValueError.
"""

import io
import re

import numpy as np

_BLOCK = 1 << 16  # rows formatted per `%` operation
# a line that is neither blank nor a comment; without one np.loadtxt would
# warn and return a (0, 1) array
_DATA_LINE = re.compile(r"^[^\S\n]*[^#\s]", re.M)


def write_rows(fh, line, rows):
    """Write `line % tuple(row)` for every row of `rows`, an array whose
    flattened rows give `line`'s fields in order."""
    for start in range(0, len(rows), _BLOCK):
        block = rows[start : start + _BLOCK]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def read_rows(text, columns):
    """int64 array of shape (lines, columns) holding the data lines of
    `text`; text after a `#` is a comment."""
    if _DATA_LINE.search(text) is None:
        return np.empty((0, columns), dtype=np.int64)
    # io.StringIO would hold the text as 4 bytes per character
    rows = np.loadtxt(
        io.BytesIO(text.encode()), dtype=np.int64, comments="#", ndmin=2
    )
    if rows.shape[1] != columns:
        raise ValueError(
            f"expected {columns} integers per line, found {rows.shape[1]}"
        )
    return rows
