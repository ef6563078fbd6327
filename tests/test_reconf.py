import json

import pytest

from liouville import cli, killing, reconf
from liouville.weights import pad, weyl_dim


class TestTable:
    def test_n3_rows(self):
        table = reconf.reconf_table(3, 6)
        assert [table[d]["h0"] for d in range(3)] == [3, 4, 3]
        assert reconf.h0_total(table) == 10
        # source indexing: Coker(y_{d,q}) at degree d
        assert table[2]["h1"] == 0
        assert table[3]["h1"] == 5
        for d in range(2, 7):
            assert table[d]["h1"] == \
                weyl_dim(pad((d, 2), 3)) - weyl_dim(pad((d,), 3))

    def test_n4_first_nonzero_h1(self):
        table = reconf.reconf_table(4, 4)
        assert table[2]["h1"] == 10

    def test_bundle_indexing_shift(self):
        source = reconf.reconf_table(4, 6, indexing="source")
        bundle = reconf.reconf_table(4, 6, indexing="bundle")
        for d in range(2, 6):
            assert bundle[d + 1]["h1"] == source[d]["h1"]
        assert bundle[2]["h1"] == 0  # nothing below bundle degree 3

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_h0_total_and_grading(self, n):
        table = reconf.reconf_table(n, 4)
        assert reconf.h0_total(table) == (n + 2) * (n + 1) // 2
        graded = [len(killing.ck_kernel(n, d)) for d in range(3)]
        assert graded == [n, n * (n - 1) // 2 + 1, n]
        assert [table[d]["h0"] for d in range(3)] == graded

    def test_h1_monotone_for_large_n(self):
        for n in (4, 5):
            table = reconf.reconf_table(n, 8)
            vals = [table[d]["h1"] for d in range(3, 9)]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert all(v >= 0 for v in vals)

    @pytest.mark.parametrize("n", sorted(reconf.EXACT_RANGE))
    def test_exact_range_is_certified(self, n):
        # every h1_entry up to EXACT_RANGE[n] recomputes its exact rank and
        # raises ArithmeticError if it disagrees with the formula
        # a table needs dmax >= 3; rows past EXACT_RANGE[n] use the formula
        dmax = reconf.EXACT_RANGE[n]
        table = reconf.reconf_table(n, max(dmax, 3))
        assert [table[d]["h1"] for d in range(2, dmax + 1)] == \
            [reconf.coker_dim_formula(n, d) for d in range(2, dmax + 1)]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            reconf.reconf_table(2, 5)
        with pytest.raises(ValueError):
            reconf.reconf_table(3, 2)
        with pytest.raises(ValueError):
            reconf.reconf_table(3, 5, indexing="rows")


class TestIntegrityCheck:
    def test_formula_disagreement_is_hard_failure(self, monkeypatch):
        # one column, and its monomial, lost below kernel_cokernel_dims
        from liouville import young_map
        cols = young_map.y_dq_columns
        monkeypatch.setattr(young_map, "y_dq_columns", lambda n, d, q=None:
                            tuple(x[1:] for x in cols(n, d, q)))
        with pytest.raises(ArithmeticError):
            reconf.h1_entry(3, 2)


class TestContinuity:
    def test_n2_series(self):
        report = reconf.continuity_report([2], 6)
        assert report[2]["h0"] == [2] * 7
        assert report[2]["h1"] == [0] * 7

    def test_n3_series(self):
        report = reconf.continuity_report([3], 6)
        assert sum(report[3]["h0"]) == 10
        h1 = report[3]["h1"]
        assert h1[:3] == [0, 0, 0]
        assert all(v > 0 for v in h1[3:])

    def test_n4_first_nonzero(self):
        report = reconf.continuity_report([4], 5)
        nonzero = [v for v in report[4]["h1"] if v]
        assert nonzero[0] == 10

    def test_range_guard(self):
        with pytest.raises(ValueError):
            reconf.continuity_report([7], 4)


def test_serializers(capsys):
    out = {}
    for fmt in ("json", "tsv", "pretty"):
        assert cli.run(["reconf", "--n", "3", "--dmax", "4",
                        "--format", fmt]) == 0
        out[fmt] = capsys.readouterr().out
    payload = json.loads(out["json"])
    assert payload["h0_total"] == 10
    table = reconf.reconf_table(3, 4)
    assert payload["rows"] == [{"d": d, **table[d]} for d in range(5)]
    lines = out["tsv"].splitlines()
    assert lines[0] == "d\th0\th1"
    assert [tuple(map(int, line.split("\t"))) for line in lines[1:]] == [
        (r["d"], r["h0"], r["h1"]) for r in payload["rows"]]
    assert "H^0 total: 10" in out["pretty"]
