"""linalg against sympy's exact rational linear algebra (test-only oracle)."""

import random
from fractions import Fraction

import pytest
import sympy

from liouville import linalg


def _entry(rng, kind):
    if rng.random() < 0.6:
        return 0
    if kind == "int":
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def _random_matrix(rng, kind):
    """m x n product of sparse m x r and r x n factors: rank <= r, often
    below min(m, n)."""
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    r = rng.randint(0, min(m, n))
    b = [[_entry(rng, kind) for _ in range(r)] for _ in range(m)]
    c = [[_entry(rng, kind) for _ in range(n)] for _ in range(r)]
    return [[sum((b[i][k] * c[k][j] for k in range(r)), 0) for j in range(n)]
            for i in range(m)]


def _columns(rows, keep_zeros=False):
    ncols = len(rows[0]) if rows else 0
    return [{i: r[j] for i, r in enumerate(rows) if keep_zeros or r[j]}
            for j in range(ncols)]


def _dense(vectors, size):
    """Sparse {column: value} vectors as dense lists of length `size`."""
    return [[v.get(j, Fraction(0)) for j in range(size)] for v in vectors]


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


def _cases(kind):
    rng = random.Random(f"linalg-{kind}")
    cases = [_random_matrix(rng, kind) for _ in range(60)]
    cases.append([[0] * 4 for _ in range(3)])
    cases.append([[0, 2, 4], [0, 1, 2], [0, 3, 6]])
    # sparse entries in wide shapes (many relations per pivot), and tall
    # ones with one more column, twice the first minus the one before it
    for _ in range(10):
        m, n = rng.randint(1, 3), rng.randint(8, 14)
        cases.append([[_entry(rng, kind) for _ in range(n)] for _ in range(m)])
        tall = [[_entry(rng, kind) for _ in range(min(m, 2))]
                for _ in range(n)]
        cases.append([r + [2 * r[0] - r[-1]] for r in tall])
    # tall with full column rank: scaled Vandermonde columns, no kernel
    scale = 1 if kind == "int" else Fraction(1, 3)
    cases.append([[(scale * (i + 1)) ** j for j in range(5)]
                  for i in range(12)])
    return cases


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_rank_matches_sympy(kind):
    for rows in _cases(kind):
        expected = sympy.Matrix(rows).rank()
        assert linalg.rank(rows) == expected
        assert linalg.rank_sparse(_columns(rows)) == expected
        assert linalg.rank_sparse(_columns(rows, keep_zeros=True)) == expected


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_rref_matches_sympy(kind):
    for rows in _cases(kind):
        red, pivots = linalg.rref(_columns(rows))
        expected, expected_pivots = sympy.Matrix(rows).rref()
        assert pivots == list(expected_pivots)
        assert red == [{j: _fraction(x) for j, x in enumerate(expected.row(i))
                        if x} for i in range(len(pivots))]
        assert all(type(x) is Fraction for row in red for x in row.values())
        assert all(row[pc] == 1 for row, pc in zip(red, pivots))
        assert linalg.rref(_columns(rows, keep_zeros=True)) == (red, pivots)


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_nullspace_matches_sympy(kind):
    for rows in _cases(kind):
        basis = _dense(linalg.nullspace(_columns(rows)), len(rows[0]))
        expected = [[_fraction(x) for x in v]
                    for v in sympy.Matrix(rows).nullspace()]
        assert basis == expected


def test_value_types_do_not_change_results():
    # all-int columns are taken as they are and the others rebuilt, so the
    # same matrix as ints, as Fraction(k, 1)s, as a mix of the two, and
    # scaled by a Fraction must give one rank, RREF and kernel
    scale = Fraction(-2, 3)
    for rows in _cases("int"):
        cols = _columns(rows, keep_zeros=True)
        copies = [
            [{i: Fraction(x) for i, x in c.items()} for c in cols],
            [{i: Fraction(x) if (i + j) % 2 else x for i, x in c.items()}
             for j, c in enumerate(cols)],
            [{i: scale * x for i, x in c.items()} for c in cols],
        ]
        expected = (linalg.rank_sparse(cols), linalg.rref(cols),
                    linalg.nullspace(cols))
        for copy in copies:
            assert (linalg.rank_sparse(copy), linalg.rref(copy),
                    linalg.nullspace(copy)) == expected


def test_empty_matrices():
    assert linalg.rank([]) == 0
    assert linalg.rank_sparse([]) == 0
    assert linalg.rref([]) == ([], [])
    assert linalg.nullspace([]) == []
    # columns with no entries: the kernel is everything
    assert _dense(linalg.nullspace([{}, {}]), 2) == [[1, 0], [0, 1]]
    assert linalg.nullspace([{}, {}]) == [{0: 1}, {1: 1}]


def test_inputs_are_not_modified():
    rows = [[2, Fraction(1, 3)], [4, Fraction(2, 3)]]
    cols = _columns(rows)
    before = ([list(r) for r in rows], [dict(c) for c in cols])
    linalg.rank(rows)
    linalg.rref(cols)
    linalg.rank_sparse(cols)
    linalg.nullspace(cols)
    assert (rows, cols) == before
