import json
import random
import re
from itertools import product

import pytest

from liouville import bott, cli, reconf, weights
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


# the eight statement rows: expected (degree, weight) per (d-pattern, b)
def statement_table_expected(n, d, b):
    if b == -1:
        if d == 0:
            return None
        return 1, dualize(pad((d - 1,), n))  # S^{d-1}(M*)
    # b == +1
    if d == 0:
        return 0, dualize(pad((1,), n))      # M*
    if d == 1:
        return 0, dualize(pad((1, 1), n))    # Lambda^2(M*)
    if d == 2:
        return None
    return 1, dualize(pad((d - 1, 2), n))    # Sigma^{d-1,2}(M*)


def dims(gc):
    """{degree: dim} of a sdg_cohomology_on_P answer."""
    return {} if gc is None else {gc[0]: weyl_dim(gc[1])}


class TestSheafCohomologyOnP:
    # n = 2 too: `sheaf --n 2` checks its answers against bott.sdg_table
    @pytest.mark.parametrize("n", range(2, 12))
    def test_full_table(self, n):
        for d in range(40):
            for b in (-1, 1):
                gc = bott.sdg_cohomology_on_P(n, d, b)
                assert gc == statement_table_expected(n, d, b)

    def test_table_covers_only_twists_plus_minus_one(self):
        with pytest.raises(ValueError, match="b = [+]-1"):
            bott.sdg_table(4, 2, 0)
        assert bott.sdg_cohomology_on_P(4, 2, 0) == (1, (0, 0, -1, -1))

    def test_bott_vanishing_single_degree(self):
        # S^d(G)(+-1) has cohomology in degree 0 or 1 only, also at n = 2
        for n, d, b in product(range(2, 6), range(11), (-1, 1)):
            gc = bott.sdg_cohomology_on_P(n, d, b)
            assert gc is None or gc[0] in (0, 1)

    def test_wrong_weyl_dimension_rejected(self, monkeypatch):
        # S^{1}(M*) at n = 4 has dimension 4 = h_1 h_0 - h_2 h_{-1}; the
        # restriction to Q reads it first, as the inner answer at d = 2
        monkeypatch.setattr(bott, "weyl_dim", lambda lam: weyl_dim(lam) + 1)
        with pytest.raises(ArithmeticError, match=re.escape(
                "S^2(G)(-1) on P(C^4) has Weyl dimension 5, not "
                "Jacobi-Trudi's")):
            bott.les_restriction_to_Q(4, 2)

    def test_named_examples(self):
        assert bott.sdg_cohomology_on_P(4, 2, 1) is None
        assert dims(bott.sdg_cohomology_on_P(4, 5, -1)) == {1: 35}
        gc = bott.sdg_cohomology_on_P(4, 4, 1)
        assert gc == (1, dualize((3, 2, 0, 0)))


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
                outer = dims(bott.sdg_cohomology_on_P(n, d, 1))
                inner = dims(bott.sdg_cohomology_on_P(n, d, -1))
                chi = sum((-1) ** i * v for i, v in outer.items())
                chi -= sum((-1) ** i * v for i, v in inner.items())
                got = bott.les_restriction_to_Q(n, d)
                assert sum((-1) ** i * v for i, v in got.items()) == chi

    def test_inconsistent_coker_rejected(self, monkeypatch):
        # skew the dimension formula at one row, with no exact rank to
        # catch it first: only Bott's two sides are left to disagree
        formula = reconf.coker_dim_formula
        monkeypatch.setattr(reconf, "EXACT_RANGE", {})
        monkeypatch.setattr(reconf, "coker_dim_formula",
                            lambda n, d: formula(n, d) + ((n, d) == (4, 3)))
        with pytest.raises(ArithmeticError, match="restriction sequence at "
                           "n=4, d=4 gives H.1 = 40 from Bott, not the "
                           "formula's 41"):
            reconf.reconf_table(4, 4)

    @pytest.mark.parametrize("d,answer,message", [
        (0, (2, (0, 0, 0, 0)), "(2, (0, 0, 0, 0)), not None"),
        (1, (2, (0, 0, 0, 0)), "(2, (0, 0, 0, 0)), not (1, (0, 0, 0, 0))"),
        (3, None, "None, not (1, (0, 0, 0, -2))"),
    ], ids=["d0-in-degree-2", "d1-in-degree-2", "d3-lost"])
    def test_answer_in_unexpected_degree_rejected(self, monkeypatch, d,
                                                  answer, message):
        # a wrong or missing S^d(G)(-1) answer from Bott is an integrity
        # failure where it is computed, never a KeyError
        real = bott.bott_cohomology
        monkeypatch.setattr(bott, "bott_cohomology",
                            lambda a: answer if a[-1] == 1 else real(a))
        with pytest.raises(ArithmeticError, match=re.escape(
                f"S^{d}(G)(-1) on P(C^4) has cohomology {message}")):
            bott.les_restriction_to_Q(4, d)


def test_graded_json_shape(capsys):
    assert cli.run(["sheaf", "--n", "4", "--d", "5", "--b", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dims"] == {"1": 35}
    assert payload["cohomology"]["1"] == [
        {"weight": [0, 0, 0, -4], "multiplicity": 1}
    ]
