import json
from itertools import combinations, product
from math import comb

import pytest

from liouville import cech, cli


class TestCechSlice:
    def test_all_negative_n2(self):
        _, cohom = cech.cech_slice(2, (-1, -1))
        assert cohom == [0, 1]

    def test_trivial_monomial_n3(self):
        _, cohom = cech.cech_slice(3, (0, 0, 0))
        assert cohom == [1, 0, 0]

    def test_mixed_sign_kills_everything(self):
        _, cohom = cech.cech_slice(2, (-1, 0))
        assert cohom == [0, 0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cech.cech_slice(3, (0, 0))

    def test_euler_characteristic_is_combinatorial(self):
        # chi of the cochain complex = alternating sum of subset counts
        for n in range(1, 5):
            for m in product(range(-2, 3), repeat=n):
                cochain, cohom = cech.cech_slice(n, m)
                s = len(cech.neg_support(m))
                counts = [comb(n - s, p + 1 - s) if p + 1 >= s else 0
                          for p in range(n)]
                assert cochain == counts
                chi = sum((-1) ** p * c for p, c in enumerate(cochain))
                assert chi == sum((-1) ** p * c for p, c in enumerate(cohom))


class TestClosedForm:
    def test_exhaustive_small_boxes(self):
        for n in range(1, 5):
            for m in product(range(-3, 4), repeat=n):
                _, cohom = cech.cech_slice(n, m)
                got = {i: d for i, d in enumerate(cohom) if d}
                assert got == cech.closed_form(n, m), (n, m)


def table_by_every_slice(n, box):
    """Reference table: one exact complex per multidegree of the box."""
    rows, totals = [], {}
    for m in product(range(-box, box + 1), repeat=n):
        _, cohom = cech.cech_slice(n, m)
        dims = {i: d for i, d in enumerate(cohom) if d}
        assert dims == cech.closed_form(n, m), m
        for i, d in sorted(dims.items()):
            rows.append((m, i, d))
            by_i = totals.setdefault(sum(m), {})
            by_i[i] = by_i.get(i, 0) + d
    rows.sort()
    return rows, totals


class TestTable:
    def test_n1_is_laurent_ring(self):
        rows, _ = cech.punctured_affine_table(1, 3)
        assert all(i == 0 and d == 1 for _, i, d in rows)
        assert len(rows) == 7

    def test_n3_top_count(self):
        rows, _ = cech.punctured_affine_table(3, 2)
        top = [r for r in rows if r[1] == 2]
        assert len(top) == 8  # m_i in {-2, -1} componentwise

    def test_n2_h0_monomials(self):
        rows, _ = cech.punctured_affine_table(2, 2)
        h0 = {m for m, i, _ in rows if i == 0}
        assert h0 == {m for m in product(range(-2, 3), repeat=2)
                      if all(x >= 0 for x in m)}

    def test_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(cech, "closed_form", lambda n, m: {})
        with pytest.raises(ArithmeticError):
            cech.punctured_affine_table(2, 1)

    def test_tsv_and_json_round(self, capsys):
        out = {}
        for fmt in ("json", "tsv"):
            assert cli.run(["cech", "--n", "2", "--box", "1",
                            "--format", fmt]) == 0
            out[fmt] = capsys.readouterr().out
        lines = out["tsv"].splitlines()
        assert lines[0] == "multidegree\ti\tdim"
        payload = json.loads(out["json"])
        assert {"multidegree": [-1, -1], "i": 1, "dim": 1} in payload["slices"]
        rows, totals = cech.punctured_affine_table(2, 1)
        assert [line.split("\t") for line in lines[1:]] == [
            [",".join(map(str, m)), str(i), str(d)] for m, i, d in rows]
        assert payload["totals_by_degree"] == {
            str(deg): {str(i): d for i, d in by_i.items()}
            for deg, by_i in totals.items()}

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("box", range(4))
    def test_matches_every_slice_reference(self, n, box):
        assert cech.punctured_affine_table(n, box) == \
            table_by_every_slice(n, box)

    @pytest.mark.parametrize("n,box", [(1, 0), (3, 0), (3, 3), (6, 2)])
    def test_one_complex_per_negative_support(self, monkeypatch, n, box):
        calls = []
        real = cech.cech_slice

        def counting(k, m):
            calls.append(m)
            return real(k, m)

        monkeypatch.setattr(cech, "cech_slice", counting)
        cech.punctured_affine_table(n, box)
        assert len(calls) == (2 ** n if box else 1)

    @pytest.mark.parametrize("support", [
        s for k in (1, 2) for s in combinations(range(3), k)])
    def test_wrong_mixed_support_raises(self, monkeypatch, support):
        # a mixed support has no cohomology; one extra H^1 on it alone must
        # be caught, though no row of the table would come from it
        real = cech.cech_slice

        def h1_raised_by(extra):
            def patched(n, m):
                cochain, cohom = real(n, m)
                if cech.neg_support(m) == set(support):
                    cohom = [cohom[0], cohom[1] + extra, cohom[2]]
                return cochain, cohom
            return patched

        monkeypatch.setattr(cech, "cech_slice", h1_raised_by(0))
        cech.punctured_affine_table(3, 1)
        monkeypatch.setattr(cech, "cech_slice", h1_raised_by(1))
        with pytest.raises(ArithmeticError):
            cech.punctured_affine_table(3, 1)
