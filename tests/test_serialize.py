"""The CSV encoders against the per-cell reference they replaced."""

import numpy as np
import pytest

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
