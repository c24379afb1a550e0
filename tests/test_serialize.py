"""The CSV encoders against the per-cell reference they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmpmat import serialize


def _cell(x):
    return format(float(x), ".17g")


def _reference_rows(rows):
    return "\n".join(",".join(_cell(v) for v in row) for row in rows) + "\n"


def _reference_triangle(M, tol=0.0):
    lines = []
    for i in range(M.shape[0]):
        for j in range(i + 1):
            if tol == 0.0 or abs(M[i, j]) > tol:
                lines.append(f"{i},{j},{_cell(M[i, j])}")
    return "\n".join(lines) + "\n"


SPECIAL = np.array(
    [
        -0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308 / 3,
        np.nextafter(0.0, 1.0) * 7, 1e300, -1e300, 0.1, 1.0 / 3.0, -2.5, 1e16,
        123456789012345678.0, 1e-5, 2.0**-1074 * 3, 1.7976931348623157e308,
    ]
)


def _with_step_column(rng, n):
    # as written by ``iso trace``: an integer step column, then floats
    return np.column_stack([np.arange(n), rng.normal(size=(n, 3)), rng.choice(SPECIAL, n)])


@pytest.mark.parametrize(
    "rows",
    [
        SPECIAL.reshape(-1, 2),
        SPECIAL.reshape(-1, 1),
        SPECIAL.reshape(1, -1),
        np.array([[np.nan, -0.0, 7.0]]),
        _with_step_column(np.random.default_rng(5), 40),
    ],
    ids=["pairs", "column", "single-row", "short-row", "step-column"],
)
def test_rows_csv_matches_per_cell_encoder(rows):
    assert serialize.rows_csv(rows) == _reference_rows(rows)


def test_triangle_csv_matches_per_cell_encoder():
    rng = np.random.default_rng(6)
    M = rng.normal(size=(9, 9)) * rng.choice([0.0, 1e-9, 1.0, 1e300], size=(9, 9))
    M.flat[::7] = rng.choice(SPECIAL, M.flat[::7].size)
    M[3, 1] = -0.0
    for tol in (0.0, 1e-8, 2.0, np.inf):
        assert serialize.lower_triangle_csv(M, tol) == _reference_triangle(M, tol)
    single = np.array([[2.0**-1074]])
    assert serialize.lower_triangle_csv(single) == _reference_triangle(single)


def test_encoders_are_unchanged_across_row_blocks(monkeypatch):
    monkeypatch.setattr(serialize, "_BLOCK_ROWS", 4)
    rows = _with_step_column(np.random.default_rng(7), 41)
    assert serialize.rows_csv(rows) == _reference_rows(rows)
    M = np.random.default_rng(8).normal(size=(10, 10))
    assert serialize.lower_triangle_csv(M) == _reference_triangle(M)
    assert serialize.lower_triangle_csv(M, 1.0) == _reference_triangle(M, 1.0)


# raw 64-bit patterns: every subnormal, inf and nan payload is reachable
_BITS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))
)


@settings(deadline=None, max_examples=200)
@given(
    cols=st.integers(1, 5),
    values=st.lists(st.one_of(st.floats(), _BITS), min_size=1, max_size=60),
)
def test_rows_csv_matches_format_17g(cols, values):
    values += [0.0] * (-len(values) % cols)
    rows = np.array(values).reshape(-1, cols)
    assert serialize.rows_csv(rows) == _reference_rows(rows)


def _powers_of_ten_and_neighbours():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    return np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])


@pytest.mark.parametrize(
    "value, text",
    [
        (123456789012345.625, "123456789012345.62"),  # exact ties: round half to even
        (123456789012345.875, "123456789012345.88"),
        (99999999999999999.0, "1e+17"),
        (1e-4, "0.0001"),  # the last fixed-point exponent ...
        (1e-5, "1.0000000000000001e-05"),  # ... and the first exponent form
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
        (1e-14, "1e-14"),  # the nearest double lies below, rounding carries to 10^-14
        (5e-324, "4.9406564584124654e-324"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (-0.0, "-0"),
        (-np.nan, "nan"),
    ],
)
def test_rows_csv_pinned_values(value, text):
    assert serialize.rows_csv([[value]]) == text + "\n"
    assert serialize.rows_csv([[value, -value]]) == _reference_rows([[value, -value]])


def test_rows_csv_powers_of_ten_and_neighbours():
    for sign in (1.0, -1.0):
        rows = (sign * _powers_of_ten_and_neighbours()).reshape(-1, 3)
        assert serialize.rows_csv(rows) == _reference_rows(rows)


def test_triangle_empty_after_tol_prints_newline():
    M = np.array([[0.5, 0.0], [0.25, -0.5]])
    assert serialize.lower_triangle_csv(M, tol=1.0) == "\n"
    assert serialize.lower_triangle_csv(M, tol=np.inf) == "\n"


def test_integer_valued_floats_match_format_17g():
    # every integer takes the scaled product, as every other finite value does
    rng = np.random.default_rng(27)
    logs = np.floor(2.0 ** rng.uniform(0.0, 53.0, 4000))  # |x| log-uniform up to 2^53
    tens = np.array([10.0**k for k in range(17)])
    edges = np.array([2.0**53 - 1, 2.0**53, 2.0**53 + 2, 0.0])
    ints = np.concatenate([logs, tens - 1.0, tens, edges])
    values = np.concatenate([ints, -ints])
    rows = values.reshape(-1, 2)
    assert serialize.rows_csv(rows) == _reference_rows(rows)
    M = np.zeros((128, 128))
    M[np.tril_indices(128)] = np.resize(values, 128 * 129 // 2)  # every value, some twice
    assert serialize.lower_triangle_csv(M) == _reference_triangle(M)
