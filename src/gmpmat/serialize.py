"""File formats: JSON with full-precision floats, CSV matrix dumps."""

import json

from ._lazy import np


def fmt(x):
    """Decimal text with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def _render(obj):
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj):
    return _render(obj) + "\n"


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_text(path, text):
    if path is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


# --- CSV floats: '%.17g' text computed over arrays ---------------------------
#
# Every finite nonzero |x| gets its 17 significant digits as
# N = round(|x| 10^(16-k)) in [10^16, 10^17), k = floor(log10|x|), from a
# double-double product with a power-of-ten table entry (the table method
# of Ryu printf, Adams 2019; Dekker's exact product, 1971).  The product is
# within 2^-46 of exact, so rounding is decided unless the fraction lies
# within 2^-30 of one half; those values, nan and inf take the per-value
# '%.17g'.  An integer below 2^53 makes |x| 10^(16-k) an exact integer, so
# its fraction lies within 2^-46 of 0 or 1 and it rounds to its own digits.
# The digits are then laid out as Python's %g does: fixed point for
# -4 <= X < 17 (X the decimal exponent after rounding), else d.ddde+XX,
# whose mantissa is the fixed layout of X = 0; trailing zeros are stripped.

# Rows per CSV block: bounds the encoder's transient arrays to a block.
_BLOCK_ROWS = 1 << 14
# A cell: sign, at most 23 characters ("1.2345678901234567e-308"), separator.
_WIDTH = 25
_UNDECIDED = 2.0**-30
_ZERO, _POINT = ord("0"), ord(".")


def _U(v):
    """v as a numpy uint64 (numpy is not needed before the first CSV cell)."""
    return np.uint64(v)


def _pow10_entry(s):
    """10^s = (hi + lo) 2^b with hi in [1, 2) and lo the rounded remainder.

    Exact integer arithmetic: int / int is correctly rounded.  Returns hi,
    its two halves for Dekker's product, lo and b.
    """
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    b = num.bit_length() - den.bit_length()
    if num << max(-b, 0) < den << max(b, 0):
        b -= 1
    num, den = num << max(-b, 0), den << max(b, 0)  # num/den = 10^s / 2^b
    hi = num / den
    hn, hd = hi.as_integer_ratio()
    lo = (num * hd - hn * den) / (den * hd)
    hh = _split(hi)
    return hi, hh, hi - hh, lo, b


def _split(a):
    """High half of Dekker's split: a - _split(a) is exact and short."""
    c = 134217729.0 * a  # 2^27 + 1
    return c - (c - a)


def _scaled(ax, k):
    """(N0, f) with N0 + f = ax 10^(16-k) to within 2^-46, for finite ax > 0.

    N0 is an int64 and f in [0, 1).  The table holds only the exponents
    ``k`` asks for.
    """
    if not k.size:
        return k.copy(), ax.copy()
    s = 16 - k
    s0 = int(s.min())
    table = np.zeros((5, int(s.max()) - s0 + 1))
    for i in np.flatnonzero(np.bincount(s - s0)):
        table[:, i] = _pow10_entry(s0 + int(i))
    idx = s - s0
    hi, hh, hl, lo, b = (row[idx] for row in table)
    m, e = np.frexp(ax)
    p = m * hi
    mh = _split(m)
    ml = m - mh
    # Dekker: m hi - p exactly, from the halves' exact products; then + m lo
    err = ((mh * hh - p) + mh * hl + ml * hh) + ml * hl + m * lo
    # 2^(e + b), built from its exponent bits: e + b lies near 53..57
    scale = ((e + b.astype(np.int64) + 1023) << 52).view(np.float64)
    low = err * scale
    floor = np.floor(low)
    return (p * scale).astype(np.int64) + floor.astype(np.int64), low - floor


def _digit_bytes(h):
    """The 8 decimal digits of each uint64 h < 10^8, one per byte, first lowest.

    Two digits at a time in every 32-, 16- and 8-bit lane (SWAR): q * 10486
    >> 20 is q // 100 for q < 10^4, and q * 103 >> 10 is q // 10 for q < 100.
    """
    hi = h // _U(10000)
    v = hi | (h - hi * _U(10000)) << _U(32)
    hi = (v * _U(10486)) >> _U(20) & _U(0x0000007F0000007F)
    v = hi | (v - hi * _U(100)) << _U(16)
    hi = (v * _U(103)) >> _U(10) & _U(0x000F000F000F000F)
    return hi | (v - hi * _U(10)) << _U(8)


def _kept(v):
    """0x01 in every byte of v up to its highest nonzero byte (digits 0..9)."""
    m = (v + _U(0x7F7F7F7F7F7F7F7F)) & _U(0x8080808080808080)
    m |= m >> _U(8)
    m |= m >> _U(16)
    m |= m >> _U(32)
    return m >> _U(7)


def _digits(n):
    """Digit characters of each int64 in [0, 10^17), as (m, 17) uint8.

    Trailing zeros (those after the last nonzero digit) are 0 bytes; the
    first character is always a digit.
    """
    n = n.astype(np.uint64)
    top = n // _U(10**16)
    rest = n - top * _U(10**16)
    high = rest // _U(10**8)
    a, b = _digit_bytes(high), _digit_bytes(rest - high * _U(10**8))
    words = np.empty((n.size, 3), dtype="<u8")  # little-endian: bytes 7..23 are the text
    words[:, 0] = (top + _U(_ZERO)) << _U(56)
    words[:, 1] = a + np.where(b != 0, _U(0x0101010101010101), _kept(a)) * _U(_ZERO)
    words[:, 2] = b + _kept(b) * _U(_ZERO)
    return words.view(np.uint8)[:, 7:]


def _cells(x):
    """'%.17g' % v for each v of the 1-D float array x, as (m, width) uint8.

    Each row holds a '-' or a 0 byte, then the text with zero bytes
    wherever it is shorter than the row; the last byte is left for a
    separator.  Columns no row uses are cut off the end.  Only finite
    nonzero values, integers among them, are scaled and digitized; an
    exponent-form row takes the fixed layout of X = 0, then its suffix.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((x.size, _WIDTH), dtype=np.uint8)
    with np.errstate(invalid="ignore"):  # signaling nan bit patterns
        ax = np.abs(x)
        finite = np.isfinite(ax)
        live = np.flatnonzero(finite & (ax != 0.0))
    # the scaled product, once more where the estimate of k was off
    a = ax[live]
    k = np.floor(np.log10(a)).astype(np.int64)
    n, f = _scaled(a, k)
    off = (n >= 10**17).astype(np.int64) - (n < 10**16)
    redo = np.flatnonzero(off)
    k[redo] += off[redo]
    n[redo], f[redo] = _scaled(a[redo], k[redo])
    n += f > 0.5  # exact ties are undecided below, so this is half-even
    carry = n == 10**17
    n[carry] = 10**16
    X = k + carry

    out[:, 1] = _ZERO  # a zero prints "0"; every other row overwrites it
    D = _digits(n)
    fixed = (X >= -4) & (X < 17)
    E = np.where(fixed, X, 0)  # the exponent form lays out d.ddd as X = 0 does
    for e in np.flatnonzero(np.bincount(E + 4, minlength=21)) - 4:
        sel = np.flatnonzero(E == e)
        rows, d = live[sel], D[sel]
        if e >= 0:  # X+1 integer digits, zeros kept; '.' only before a fraction
            out[rows, 1 : e + 2] = np.maximum(d[:, : e + 1], _ZERO)
            if e < 16:
                out[rows, e + 2] = np.where(d[:, e + 1] != 0, _POINT, 0)
                out[rows, e + 3 : 19] = d[:, e + 1 :]
        else:  # "0.", -e-1 zeros, the digits
            out[rows, 1 : 2 - e] = _ZERO
            out[rows, 2] = _POINT
            out[rows, 2 - e : 19 - e] = d
    sel = np.flatnonzero(~fixed)  # then e+XX
    rows, e = live[sel], X[sel]
    ae = np.abs(e)
    wide = ae >= 100
    out[rows, 19] = ord("e")
    out[rows, 20] = np.where(e < 0, ord("-"), ord("+"))
    out[rows, 21] = np.where(wide, ae // 100, ae // 10) + _ZERO
    out[rows, 22] = np.where(wide, ae // 10 % 10, ae % 10) + _ZERO
    out[rows, 23] = np.where(wide, ae % 10 + _ZERO, 0)
    out[:, 0] = np.where(np.signbit(x) & ~np.isnan(x), ord("-"), 0)
    # nan, inf and undecided ties: Python's own formatting
    for i in np.concatenate([np.flatnonzero(~finite), live[np.abs(f - 0.5) <= _UNDECIDED]]):
        text = np.frombuffer(fmt(x[i]).lstrip("-").encode(), dtype=np.uint8)
        out[i, 1:] = 0
        out[i, 1 : text.size + 1] = text
    used = _WIDTH - 1
    while used > 1 and not out[:, used - 1].any():
        used -= 1
    return out[:, : used + 1]


def _text(cells):
    """The bytes of a 2-D uint8 array in row order, zero pad bytes dropped."""
    flat = cells.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def lower_triangle_csv(M, tol=0.0):
    """CSV triples (i, j, value) over the lower triangle of a matrix.

    ``M`` is a dense array, or a ``BandedOperator`` written row by row from
    its band storage (an array, or a list of rows as ``gmp._band`` returns
    them), so no n x n array is formed; a band -0.0 prints "0", as
    ``to_dense`` stores it.  The entries left of a row's band are 0 and go
    out as one joined run; a dense row's band is the whole row.  Entries
    with |value| <= tol are left out when tol is nonzero.
    """
    if hasattr(M, "lower"):
        band, w = M.lower, M.half_bandwidth  # band[d][j]: entry (j + d, j)
        if not isinstance(band, list):
            band = band.tolist()
        rows = [[band[i - j][j] + 0.0 for j in range(max(i - w, 0), i + 1)] for i in range(M.n)]
    else:
        rows = [row[: i + 1] for i, row in enumerate(np.asarray(M, dtype=float).tolist())]
    cols = [str(j) for j in range(len(rows))]
    parts = []
    for i, row in enumerate(rows):
        lo = i + 1 - len(row)  # row holds columns lo..i
        if lo and tol <= 0.0:
            parts.append(f"{i}," + f",0\n{i},".join(cols[:lo]) + ",0\n")
        parts.extend(f"{i},{j},{fmt(v)}\n" for j, v in enumerate(row, lo)
                     if tol == 0.0 or abs(v) > tol)
    return "".join(parts) or "\n"


def rows_csv(rows):
    """CSV lines, one per row of a 2-D array, 17 significant digits per value.

    A tuple of row tuples of Python floats is written cell by cell with
    ``fmt``, the same text, without numpy.
    """
    if isinstance(rows, tuple):
        return "".join(",".join(map(fmt, row)) + "\n" for row in rows) or "\n"
    a = np.asarray(rows, dtype=float)
    seps = np.full(a.shape[1], ord(","), dtype=np.uint8)
    seps[-1:] = ord("\n")
    parts = []
    for start in range(0, a.shape[0], _BLOCK_ROWS):
        b = a[start : start + _BLOCK_ROWS]
        cells = _cells(b.ravel())
        cells[:, -1] = np.tile(seps, b.shape[0])
        parts.append(_text(cells))
    return "".join(parts) or "\n"
