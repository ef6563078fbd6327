import random
from itertools import product

import pytest

from liouville import bott, weights
from liouville.weights import pad, weyl_dim


class TestBottCohomology:
    def test_dominant_weight_gives_degree_zero(self):
        for a in ((3, 1, 0), (0, 0, 0, 0), (2, 2, -1), (5,)):
            assert bott.bott_cohomology(a) == (0, tuple(a))

    def test_repetition_gives_zero(self):
        assert bott.bott_cohomology((0, 0, 1)) is None

    def test_length_one_transposition(self):
        # a + rho = (4,3,-1,2) sorts to (4,3,2,-1) with one inversion
        assert bott.bott_cohomology((0, 0, -3, 1)) == (1, (0, 0, 0, -2))

    def test_zero_iff_repetition_random_sample(self):
        rng = random.Random(20240817)
        for _ in range(10_000):
            n = rng.randint(1, 5)
            a = tuple(rng.randint(-6, 6) for _ in range(n))
            v = [x + r for x, r in zip(a, bott.rho(n))]
            res = bott.bott_cohomology(a)
            if len(set(v)) < n:
                assert res is None
            else:
                deg, lam = res
                assert weights.is_dominant(lam)
                assert 0 <= deg <= n * (n - 1) // 2


def dualize(lam):
    """Highest weight of the dual representation: reverse and negate."""
    return tuple(-x for x in reversed(lam))


# the eight statement rows: expected {degree: weight} per (d-pattern, b)
def statement_table_expected(n, d, b):
    if b == -1:
        if d == 0:
            return {}
        return {1: dualize(pad((d - 1,), n))}  # S^{d-1}(M*)
    # b == +1
    if d == 0:
        return {0: dualize(pad((1,), n))}      # M*
    if d == 1:
        return {0: dualize(pad((1, 1), n))}    # Lambda^2(M*)
    if d == 2:
        return {}
    return {1: dualize(pad((d - 1, 2), n))}    # Sigma^{d-1,2}(M*)


class TestSheafCohomologyOnP:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_full_table(self, n):
        for d in range(11):
            for b in (-1, 1):
                gc = bott.sdg_cohomology_on_P(n, d, b)
                expected = statement_table_expected(n, d, b)
                assert {i: list(t)[0] for i, t in gc.items()} == expected

    def test_bott_vanishing_single_degree(self):
        for n, d, b in product(range(2, 6), range(11), (-1, 1)):
            assert len(bott.sdg_cohomology_on_P(n, d, b)) <= 1

    def test_named_examples(self):
        assert bott.sdg_cohomology_on_P(4, 2, 1) == {}
        assert bott.graded_dims(bott.sdg_cohomology_on_P(4, 5, -1)) == {1: 35}
        gc = bott.sdg_cohomology_on_P(4, 4, 1)
        assert gc == {1: {dualize((3, 2, 0, 0)): 1}}


class TestRestrictionToQ:
    def test_low_degree_rows(self):
        for n in range(3, 6):
            assert bott.les_restriction_to_Q(n, 0) == {0: n}
            assert bott.les_restriction_to_Q(n, 1) == {0: 1 + n * (n - 1) // 2}
            assert bott.les_restriction_to_Q(n, 2) == {0: n}

    def test_n4_d3(self):
        assert bott.les_restriction_to_Q(4, 3) == {1: 20 - 10}

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            bott.les_restriction_to_Q(2, 1)

    def test_euler_characteristic(self):
        # chi(restriction) = chi(S^d(G)(1)) - chi(S^d(G)(-1))
        for n in range(3, 6):
            for d in range(11):
                outer = bott.graded_dims(bott.sdg_cohomology_on_P(n, d, 1))
                inner = bott.graded_dims(bott.sdg_cohomology_on_P(n, d, -1))
                chi = sum((-1) ** i * v for i, v in outer.items())
                chi -= sum((-1) ** i * v for i, v in inner.items())
                got = bott.les_restriction_to_Q(n, d)
                assert sum((-1) ** i * v for i, v in got.items()) == chi

    def test_inconsistent_coker_rejected(self, monkeypatch):
        # skew the Weyl-dimension side of the cokernel alone: the Bott side
        # reaches weyl_dim through weights, not through bott's own name
        def skewed(lam):
            return weyl_dim(lam) + (lam == pad((3, 2), 4))

        monkeypatch.setattr(bott, "weyl_dim", skewed)
        with pytest.raises(ArithmeticError):
            bott.les_restriction_to_Q(4, 4)


def test_graded_json_shape():
    gc = bott.sdg_cohomology_on_P(4, 5, -1)
    payload = bott.graded_to_json(gc)
    assert payload["dims"] == {"1": 35}
    assert payload["cohomology"]["1"] == [
        {"weight": [0, 0, 0, -4], "multiplicity": 1}
    ]
