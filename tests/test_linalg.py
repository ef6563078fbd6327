"""linalg against sympy's exact rational linear algebra (test-only oracle),
and solve's coordinates recombined to their targets."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

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
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for row in red for x in row.values())
        assert all(row[pc] == 1 for row, pc in zip(red, pivots))
        assert linalg.rref(_columns(rows, keep_zeros=True)) == (red, pivots)


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_nullspace_matches_sympy(kind):
    for rows in _cases(kind):
        basis = _dense(linalg.nullspace(_columns(rows)), len(rows[0]))
        expected = [[_fraction(x) for x in v]
                    for v in sympy.Matrix(rows).nullspace()]
        assert basis == expected
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for v in linalg.nullspace(_columns(rows))
                   for x in v.values())


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


@pytest.mark.parametrize("call", [
    lambda: linalg.rank_sparse([{0: 0.5}, {1: 1}]),
    lambda: linalg.rank([[0.1, 0], [0, 1]]),
    lambda: linalg.nullspace([{0: 0.5}, {0: 1}]),
    lambda: linalg.solve([{0: 0.5}], [{0: 1}]),
    lambda: linalg.rref([{0: 1, 1: 2.0}]),
], ids=["rank_sparse", "rank", "nullspace", "solve", "rref"])
def test_a_float_entry_is_refused(call):
    # a float takes the echelon's rebuild branch, as any non-int entry
    # does, and is refused there as Poly and QuadraticForm refuse it
    with pytest.raises(ValueError, match="float"):
        call()


@st.composite
def solve_cases(draw):
    """Sparse int or Fraction columns on m rows, some of them combinations
    of the ones before, with zero entries kept; targets that combine them,
    and at a random position (or nowhere) one that also has a 1 at row m,
    which no column touches."""
    value = st.one_of(st.integers(-3, 3), st.builds(
        Fraction, st.integers(-3, 3), st.integers(1, 4)))
    m = draw(st.integers(1, 5))

    def combination(vectors):
        acc = dict.fromkeys(range(m), 0)
        for v in vectors:
            c = draw(value)
            for i, x in v.items():
                acc[i] += c * x
        return {i: x for i, x in acc.items() if x or draw(st.booleans())}

    columns = []
    for _ in range(draw(st.integers(0, 5))):
        if columns and draw(st.booleans()):
            columns.append(combination(columns))
        else:
            columns.append(draw(st.dictionaries(
                st.integers(0, m - 1), value, max_size=m)))
    targets = [combination(columns) for _ in range(draw(st.integers(0, 4)))]
    outside = draw(st.integers(0, len(targets)))
    if draw(st.booleans()):
        targets.insert(outside, {**combination(columns), m: 1})
    else:
        outside = len(targets)
    return columns, targets, outside


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(solve_cases())
def test_solve_recombines_each_target_up_to_the_first_outside(case):
    columns, targets, outside = case
    coords = linalg.solve(columns, targets)
    assert len(coords) == outside
    for c, target in zip(coords, targets):
        acc = {}
        for p, x in c.items():
            for i, y in columns[p].items():
                acc[i] = acc.get(i, 0) + x * y
        assert ({i: x for i, x in acc.items() if x}
                == {i: x for i, x in target.items() if x})
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for x in c.values())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(solve_cases())
def test_nullspace_and_rref_read_one_relation_per_free_column(case):
    # the columns followed by the targets: sparse int and Fraction columns
    # with kept zeros, many of them combinations of the ones before
    columns, targets, _ = case
    cols = columns + targets
    red, pivots = linalg.rref(cols)
    basis = linalg.nullspace(cols)
    free = [j for j in range(len(cols)) if j not in pivots]
    assert len(basis) == len(free)
    for j, v in zip(free, basis):
        assert v[j] == 1 and set(v) <= {j, *pivots}
        acc = {}
        for k, x in v.items():
            for i, y in cols[k].items():
                acc[i] = acc.get(i, 0) + x * y
        assert not any(acc.values())
        for p, row in zip(pivots, red):
            assert row.get(j, 0) == -v.get(p, 0)
    assert all(type(x) is (int if x.denominator == 1 else Fraction)
               for vectors in (basis, red) for v in vectors
               for x in v.values())


def test_empty_matrices():
    assert linalg.rank([]) == 0
    assert linalg.rank_sparse([]) == 0
    assert linalg.rref([]) == ([], [])
    # the zero vector lies in the span of no columns, a unit vector not
    assert linalg.solve([], []) == []
    assert linalg.solve([], [{}, {0: 1}, {}]) == [{}]
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
    linalg.solve(cols, cols)
    assert (rows, cols) == before
