"""File formats: JSON with full-precision floats, CSV matrix dumps."""

import json

import numpy as np


def fmt(x):
    """Decimal text with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def _render(obj):
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj):
    return _render(obj) + "\n"


def loads(text):
    return json.loads(text)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_text(path, text):
    if path is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


# Rows per %-format call: bounds the Python floats alive at once to a
# block, so the encoder's transient memory stays near the size of its text.
_BLOCK_ROWS = 1 << 16


def _encode(fmt_row, a):
    """One %-format call per block of rows of a 2-D array."""
    blocks = np.split(a, range(_BLOCK_ROWS, a.shape[0], _BLOCK_ROWS))
    text = "".join((fmt_row * len(b)) % tuple(b.ravel().tolist()) for b in blocks)
    return text or "\n"


def lower_triangle_csv(M, tol=0.0):
    """CSV triples (i, j, value) over the lower triangle of a matrix."""
    M = np.asarray(M)
    i, j = np.tril_indices(M.shape[0])
    vals = M[i, j]
    if tol != 0.0:
        keep = np.abs(vals) > tol
        i, j, vals = i[keep], j[keep], vals[keep]
    return _encode("%d,%d,%.17g\n", np.column_stack([i, j, vals]))


def rows_csv(rows):
    """CSV lines, one per row of a 2-D array, 17 significant digits per value."""
    a = np.asarray(rows, dtype=float)
    return _encode(",".join(["%.17g"] * a.shape[1]) + "\n", a)
