from math import comb

import pytest

from liouville import weights
from liouville.weights import pad, weyl_dim


def partitions(boxes, max_rows):
    """All partitions with at most max_rows rows and exactly `boxes` boxes."""
    if boxes == 0:
        yield ()
        return
    for first in range(boxes, 0, -1):
        if max_rows == 0:
            return
        for rest in partitions(boxes - first, max_rows - 1):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def horizontal_strips(lam, k):
    """Every mu made from the partition lam by adding k boxes, no two in
    one column: the constituents of Sigma^lam tensor S^k (Pieri rule)."""
    n = len(lam)

    def place(i, left):
        if i == n:
            if left == 0:
                yield ()
            return
        cap = left if i == 0 else min(left, lam[i - 1] - lam[i])
        for add in range(cap, -1, -1):
            for rest in place(i + 1, left - add):
                yield (lam[i] + add,) + rest

    return set(place(0, k))


def dualize(lam):
    """Highest weight of the dual representation: reverse and negate."""
    return tuple(-x for x in reversed(lam))


class TestWeylDim:
    def test_sym_square_c3(self):
        assert weyl_dim((2, 0, 0)) == 6

    def test_wedge_square_c4(self):
        assert weyl_dim((1, 1, 0, 0)) == 6

    def test_riemann_shape_c3(self):
        # frozen from the Young-symmetrizer oracle (see test_young_map)
        assert weyl_dim((2, 2, 0)) == 6

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            weyl_dim((0, 1, 0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_powers_are_binomials(self, n):
        for d in range(11):
            assert weyl_dim(pad((d,), n)) == comb(n + d - 1, d)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_sym_dim_vanishes_below_degree_0(self, n):
        assert weights.sym_dim(n, 0) == 1
        assert weights.sym_dim(n, -1) == weights.sym_dim(n, -3) == 0

    @pytest.mark.parametrize("n", [0, -1, -4])
    def test_sym_dim_vanishes_without_variables(self, n):
        # the CLI budgets count a size of 0 before n is checked
        assert weights.sym_dim(n, 0) == 1
        assert weights.sym_dim(n, 1) == weights.sym_dim(n, 5) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exterior_powers_are_binomials(self, n):
        for p in range(n + 1):
            assert weyl_dim(pad((1,) * p, n)) == comb(n, p)


class TestDualize:
    def test_involutive_and_dimension_preserving(self):
        from itertools import product
        for n in range(1, 5):
            for lam in product(range(-4, 5), repeat=n):
                if not weights.is_dominant(lam):
                    continue
                dual = dualize(lam)
                assert weights.is_dominant(dual)
                assert dualize(dual) == lam
                assert weyl_dim(dual) == weyl_dim(lam)


class TestPieri:
    """The horizontal-strip enumeration, and Weyl dimensions through it."""

    def test_sym_times_sym2(self):
        for d in range(2, 6):
            got = horizontal_strips(pad((d,), 4), 2)
            assert got == {pad((d + 2,), 4), pad((d + 1, 1), 4),
                           pad((d, 2), 4)}

    def test_sym_times_sym1(self):
        for d in range(1, 5):
            got = horizontal_strips(pad((d,), 3), 1)
            assert got == {pad((d + 1,), 3), pad((d, 1), 3)}

    def test_trivial_diagram(self):
        assert horizontal_strips((0, 0, 0), 3) == {(3, 0, 0)}

    def test_dimension_identity(self):
        # dim(Sigma^lam) * dim(S^k) == sum of constituent dims
        for n in range(1, 6):
            for boxes in range(0, 9):
                for lam in partitions(boxes, n):
                    lam_p = pad(lam, n)
                    for k in range(1, 4):
                        total = sum(weyl_dim(mu)
                                    for mu in horizontal_strips(lam_p, k))
                        assert total == weyl_dim(lam_p) * weyl_dim(pad((k,), n))

