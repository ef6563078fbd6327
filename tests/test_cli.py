import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from liouville import cli


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def src_env():
    """The environment for a child interpreter that imports liouville from
    this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return env


def decimal_digits(x):
    """str(x) for a positive int of any size, 100 digits at a time."""
    chunks = []
    while x:
        x, r = divmod(x, 10 ** 100)
        chunks.append(str(r).zfill(100))
    return "".join(reversed(chunks)).lstrip("0")


class TestCommands:
    def test_reconf_tsv_h0_total(self, capsys):
        code, out, _ = run(capsys, "reconf", "--n", "4", "--dmax", "6",
                           "--format", "tsv")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        assert sum(int(h0) for _, h0, _ in rows) == 15

    def test_cech_box1_h1_count(self, capsys):
        code, out, _ = run(capsys, "cech", "--n", "2", "--box", "1")
        assert code == 0
        payload = json.loads(out)
        h1 = [s for s in payload["slices"] if s["i"] == 1]
        assert len(h1) == 1 and h1[0]["multidegree"] == [-1, -1]

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_bott(self, capsys):
        code, out, _ = run(capsys, "bott", "--weight", "0,0,-3,1")
        payload = json.loads(out)
        assert code == 0
        assert payload["degree"] == 1
        assert payload["dominant_weight"] == [0, 0, 0, -2]

    @pytest.mark.parametrize("fmt,field", [
        ("json", '"dim":{}'), ("tsv", "dim\t{}"), ("pretty", '"dim": {}')])
    def test_bott_prints_dimension_past_int_str_limit(self, capsys, fmt,
                                                      field):
        # the staircase weight 200,..,1 has dim 2^19900: 5,991 digits, past
        # CPython's default int-to-str limit of 4,300
        weight = ",".join(map(str, range(200, 0, -1)))
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "bott", "--weight", weight,
                             "--format", fmt)
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        digits = decimal_digits(2 ** 19900)
        assert len(digits) == 5991
        assert field.format(digits) in out

    def test_sheaf(self, capsys):
        code, out, _ = run(capsys, "sheaf", "--n", "4", "--d", "2", "--b", "1")
        assert code == 0
        assert json.loads(out)["dims"] == {}

    def test_killing(self, capsys):
        code, out, _ = run(capsys, "killing", "--n", "3", "--d", "1")
        assert code == 0
        assert json.loads(out)["dim"] == 4

    def test_ydq_oracle_flag_only_verifies(self, capsys):
        code1, out1, _ = run(capsys, "ydq", "--n", "3", "--d", "2")
        code2, out2, _ = run(capsys, "ydq", "--n", "3", "--d", "2",
                             "--oracle")
        assert code1 == code2 == 0
        p1, p2 = json.loads(out1), json.loads(out2)
        p2.pop("oracle")
        assert p1 == p2

    def test_continuity(self, capsys):
        code, out, _ = run(capsys, "continuity", "--n-range", "2,3",
                           "--dmax", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["series"]["2"]["h0"] == [2] * 5

    def test_readme_examples_run(self, capsys):
        # each `liouville ...` line of the README's CLI block, as written
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [line for line in readme.read_text().splitlines()
                 if line.startswith("liouville ")]
        assert lines
        for line in lines:
            code, out, err = run(capsys, *shlex.split(line)[1:])
            assert (code, bool(out.strip())) == (0, True), (line, err)


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["reconf", "--n", "4"],  # missing --dmax
        ["bott", "--weight", "0", "--seed", "1"],  # no such option
    ], ids=["missing-dmax", "unknown-option"])
    def test_usage_error(self, capsys, argv):
        assert run(capsys, *argv)[0] == 1

    def test_precondition_error(self, capsys):
        code, _, err = run(capsys, "reconf", "--n", "2", "--dmax", "5")
        assert code == 1
        assert "reconf" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_integrity_failure_is_2(self, capsys, monkeypatch):
        from liouville import reconf as reconf_mod

        def boom(n, dmax, indexing="source"):
            raise ArithmeticError("rank/formula mismatch")

        monkeypatch.setattr(reconf_mod, "reconf_table", boom)
        code, _, err = run(capsys, "reconf", "--n", "3", "--dmax", "4")
        assert code == 2
        assert "integrity" in err

    def test_failed_selftest_check_is_2(self, capsys, monkeypatch):
        from liouville import young_map

        monkeypatch.setattr(young_map, "kernel_cokernel_dims",
                            lambda n, d: (1, 1))
        code, _, err = run(capsys, "selftest")
        assert code == 2
        assert "integrity" in err

    def test_failed_selftest_check_is_2_under_optimize(self):
        # python -O strips asserts; the integrity checks must not be asserts
        script = ("import sys\n"
                  "from liouville import cli, young_map\n"
                  "young_map.kernel_cokernel_dims = lambda n, d: (1, 1)\n"
                  "sys.exit(cli.run(['selftest']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=src_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "y_dq at n=2, d=2 has ker=1" in proc.stderr

    def test_cech_mismatch_is_2_under_optimize(self):
        script = ("import sys\n"
                  "from liouville import cech, cli\n"
                  "cech.closed_form = lambda n, m: {}\n"
                  "sys.exit(cli.run(['cech', '--n', '3', '--box', '1']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=src_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "integrity failure [cech]" in proc.stderr

    def test_reader_closing_early_is_1_without_traceback(self):
        # about 200 kB of JSON, more than a pipe holds, so the write is
        # still going when the reader goes away
        with subprocess.Popen(
                [sys.executable, "-m", "liouville.cli", "cech", "--n", "6",
                 "--box", "3"],
                env=src_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{"box":3,"'
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err, err


class TestBudgets:
    @pytest.fixture
    def heavy(self, monkeypatch):
        """The work under each command, patched to fail if it is called;
        the returned setter stubs a command's top-level function."""
        from liouville import bott, cech, killing, reconf, young_map

        work = [(cech, "cech_slice"), (young_map, "kernel_cokernel_dims"),
                (killing, "ck_kernel"), (reconf, "reconf_table"),
                (bott, "bott_cohomology"), (bott, "sdg_cohomology_on_P")]
        for mod, name in work:
            monkeypatch.setattr(
                mod, name, lambda *a, _name=name, **k: pytest.fail(_name))
        fns = {"cech": (cech, "punctured_affine_table"),
               "ydq": (young_map, "kernel_cokernel_dims"),
               "killing": (killing, "ck_kernel"),
               "reconf": (reconf, "reconf_table"),
               "continuity": (reconf, "continuity_report"),
               "bott": (bott, "bott_cohomology"),
               "sheaf": (bott, "sdg_cohomology_on_P")}
        return lambda cmd, result: monkeypatch.setattr(
            *fns[cmd], lambda *a, **k: result)

    @pytest.mark.parametrize("argv,message", [
        (["cech", "--n", "10", "--box", "5"], "CECH_BUDGET"),
        # one slice, but its complex has 2^13 - 1 cochains
        (["cech", "--n", "13", "--box", "0"], "CECH_BUDGET"),
        (["ydq", "--n", "12", "--d", "9"], "YDQ_BUDGET"),
        (["killing", "--n", "15", "--d", "6"], "KILLING_BUDGET"),
        (["reconf", "--n", "3", "--dmax", "300000"], "RECONF_BUDGET"),
        (["continuity", "--n-range", "2,3", "--dmax", "200"],
         "CONTINUITY_BUDGET"),
        (["bott", "--weight=" + ",".join(["0"] * 501)], "BOTT_BUDGET"),
        (["sheaf", "--n", "20000", "--d", "1", "--b", "1"], "SHEAF_BUDGET"),
        # meaningless sizes: no empty table, and no row before the refusal
        (["cech", "--n", "2", "--box", "-1"], "need box >= 0"),
        (["cech", "--n", "-1", "--box", "1"], "need n >= 1"),
        (["continuity", "--n-range", "3", "--dmax", "-1"], "need dmax >= 0"),
        (["continuity", "--n-range", "3,4,7", "--dmax", "4"],
         "n_range must lie in [2, 6]"),
        # a repeated n would compute its series twice
        (["continuity", "--n-range", "3,3", "--dmax", "4"],
         "n_range repeats an n"),
    ], ids=["cech", "cech-box-0", "ydq", "killing", "reconf", "continuity",
            "bott", "sheaf", "cech-negative-box", "cech-negative-n",
            "continuity-negative-dmax", "continuity-n-out-of-range",
            "continuity-repeated-n"])
    def test_refused_before_any_work(self, capsys, heavy, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert message in err

    def test_oracle_refused_before_any_work(self, capsys, heavy):
        # 4^4 tensor words exceed the oracle's 243: no rank is computed
        code, _, err = run(capsys, "ydq", "--n", "4", "--d", "2", "--oracle")
        assert code == 1
        assert "oracle out of range" in err

    @pytest.mark.parametrize("argv,result", [
        (["cech", "--n", "4", "--box", "3"], ([], {})),
        (["cech", "--n", "11", "--box", "0"], ([], {})),
        (["ydq", "--n", "7", "--d", "4"], (0, 0)),
        (["killing", "--n", "6", "--d", "5"], []),
        (["reconf", "--n", "3", "--dmax", "200000"], {}),
        (["continuity", "--n-range", "2", "--dmax", "399"], {}),
        (["bott", "--weight=" + ",".join(["0"] * 500)], None),
        (["sheaf", "--n", "10000", "--d", "1", "--b", "1"], {}),
    ], ids=["cech", "cech-box-0", "ydq", "killing", "reconf", "continuity",
            "bott", "sheaf"])
    def test_admits_larger_sizes(self, capsys, heavy, argv, result):
        heavy(argv[0], result)
        assert run(capsys, *argv)[0] == 0

    def test_long_sheaf_weight_is_fast(self):
        # weyl_dim skips the pairs of equal entries, whose factor is 1; the
        # flag weight (0, .., 0, -1, -1) of length 1000 has 1996 others
        proc = subprocess.run(
            [sys.executable, "-m", "liouville.cli", "sheaf", "--n", "1000",
             "--d", "1", "--b", "1"],
            env=src_env(), capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n"] == 1000


class TestReproducibility:
    def test_byte_identical_output(self, capsys):
        a = run(capsys, "reconf", "--n", "3", "--dmax", "5")
        b = run(capsys, "reconf", "--n", "3", "--dmax", "5")
        assert a == b

    def test_json_has_schema_version(self, capsys):
        _, out, _ = run(capsys, "killing", "--n", "3", "--d", "0")
        assert json.loads(out)["schema_version"] == 1
