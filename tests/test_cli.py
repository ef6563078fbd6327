import argparse
import itertools
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


EXTREMES = (-10 ** 6, -7, -5, -1, 0, 1, 2, 10 ** 6)


def extreme_argvs():
    """Every subcommand over EXTREMES in each integer argument, with at
    most one argument of size 10^6 per command line, plus a few weights.
    Two such arguments make a guard's exact size a binomial or power of
    hundreds of thousands of digits, which takes seconds to compute
    before the refusal (ydq --n 1000000 --d 1000000 about 40 s)."""
    def grid(cmd, *flags):
        for values in itertools.product(EXTREMES, repeat=len(flags)):
            if sum(abs(v) == 10 ** 6 for v in values) <= 1:
                yield [cmd, *(x for f, v in zip(flags, values)
                              for x in (f, str(v)))]

    yield from grid("sheaf", "--n", "--d", "--b")
    yield from grid("cech", "--n", "--box")
    yield from grid("killing", "--n", "--d")
    yield from grid("reconf", "--n", "--dmax")
    yield from grid("continuity", "--n-range", "--dmax")
    for argv in grid("ydq", "--n", "--d"):
        yield argv
        yield argv + ["--oracle"]
    for weight in ("0,0,-3,1", "1000000,-1000000", "-7", "", ",", "x"):
        yield ["bott", "--weight=" + weight]
    yield ["selftest"]


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


class TestParser:
    def test_built_once_per_process(self, capsys, monkeypatch):
        # the second command of a process must build no parser, not even
        # its own subparser
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *a, **k):
            built.append(self)
            init(self, *a, **k)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        assert run(capsys, "killing", "--n", "3", "--d", "0")[0] == 0
        before = len(built)
        assert run(capsys, "bott", "--weight", "0,0,-3,1")[0] == 0
        assert len(built) == before


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

    def test_oracle_below_degree_2_is_1(self, capsys):
        # the oracle's word count 0 ** (d + 2) at d = -3 would divide by
        # zero, an ArithmeticError, before the degree is refused
        code, _, err = run(capsys, "ydq", "--n", "0", "--d", "-3", "--oracle")
        assert code == 1
        assert "need d >= 2" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_extreme_integers_exit_0_1_or_2(self, capsys, monkeypatch):
        # no exception escapes cli.run; cech's table is capped at box 2,
        # since cech --n 1 --box 1000000 is admitted and prints 2*10^6 rows
        from liouville import cech
        real = cech.punctured_affine_table
        monkeypatch.setattr(cech, "punctured_affine_table",
                            lambda n, box: real(n, min(box, 2)))
        escaped = []
        for argv in extreme_argvs():
            try:
                code = cli.run(argv)
            except Exception as e:
                code = repr(e)
            if code not in (0, 1, 2):
                escaped.append((argv, code))
            capsys.readouterr()
        assert not escaped

    def test_integrity_failure_is_2(self, capsys, monkeypatch):
        from liouville import reconf as reconf_mod

        def boom(n, dmax, indexing="source"):
            raise ArithmeticError("rank/formula mismatch")

        monkeypatch.setattr(reconf_mod, "reconf_table", boom)
        code, _, err = run(capsys, "reconf", "--n", "3", "--dmax", "4")
        assert code == 2
        assert "integrity" in err

    @pytest.mark.parametrize("n,d", [(4, 0), (4, 1), (4, 2), (2, 3)])
    def test_killing_kernel_short_of_liouville_is_2(self, capsys,
                                                    monkeypatch, n, d):
        # one kernel vector lost below ck_kernel, which checks its count
        from liouville import linalg
        real = linalg.nullspace
        monkeypatch.setattr(linalg, "nullspace",
                            lambda cols: real(cols)[1:])
        code, out, err = run(capsys, "killing", "--n", str(n), "--d", str(d))
        assert code == 2 and not out
        assert f"degree-{d} kernel has dimension" in err

    def test_ydq_off_the_pieri_count_is_2(self, capsys, monkeypatch):
        # a weyl_dim one too large on shapes with lam_1 = 3 moves the
        # cokernel of (3, 2) and no rank
        from liouville import young_map
        real = young_map.weyl_dim
        monkeypatch.setattr(young_map, "weyl_dim",
                            lambda lam: real(lam) + (lam[0] == 3))
        code, out, err = run(capsys, "ydq", "--n", "5", "--d", "3")
        assert code == 2 and not out
        assert "(0, 141), not the Pieri count (0, 140)" in err

    @pytest.mark.parametrize("argv,message", [
        (["reconf", "--n", "4", "--dmax", "4"], "n=4, d=1 gives H^0 = 8, "
                                                "not Liouville's 7"),
        (["continuity", "--n-range", "3,4", "--dmax", "3"],
         "n=3, d=1 gives H^0 = 5, not Liouville's 4")],
        ids=["reconf", "continuity"])
    def test_h0_off_liouville_is_2(self, capsys, monkeypatch, argv, message):
        from liouville import bott
        real = bott.les_restriction_to_Q
        monkeypatch.setattr(bott, "les_restriction_to_Q", lambda n, d: {
            i: h + (d == 1) for i, h in real(n, d).items()})
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert message in err

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (2, 5),
                                     (3, 2), (3, 3)])
    def test_every_admitted_oracle_input_agrees(self, capsys, n, d):
        code, out, _ = run(capsys, "ydq", "--n", str(n), "--d", str(d),
                           "--oracle")
        assert code == 0
        assert json.loads(out)["oracle"] == "agrees"

    def test_killing_kernel_matches_liouville(self, capsys):
        for n in range(2, 6):
            for d in range(5):
                assert run(capsys, "killing", "--n", str(n),
                           "--d", str(d))[0] == 0

    def test_failed_selftest_check_is_2(self, capsys, monkeypatch):
        from liouville import young_map

        # one column, and its monomial, lost below kernel_cokernel_dims
        cols = young_map.y_dq_columns
        monkeypatch.setattr(young_map, "y_dq_columns", lambda n, d, q=None:
                            tuple(x[1:] for x in cols(n, d, q)))
        code, _, err = run(capsys, "selftest")
        assert code == 2
        assert "integrity" in err

    def test_failed_selftest_check_is_2_under_optimize(self):
        # python -O strips asserts; the integrity checks must not be asserts
        script = ("import sys\n"
                  "from liouville import cli, young_map\n"
                  "cols = young_map.y_dq_columns\n"
                  "young_map.y_dq_columns = lambda n, d, q=None: tuple(\n"
                  "    x[1:] for x in cols(n, d, q))\n"
                  "sys.exit(cli.run(['selftest']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=src_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert ("y_dq ranks: y_dq at n=2, d=2 has (ker, coker) = (1, 0), "
                "not the Pieri count (2, 0)") in proc.stderr

    def test_doubled_y_dq_fails_selftest(self, capsys, monkeypatch):
        # twice y_dq has the ranks of y_dq, so only the projector oracle
        # inside the selftest can tell them apart
        from liouville import young_map
        from liouville.polyspaces import Poly
        y_dq = young_map.y_dq
        monkeypatch.setattr(young_map, "y_dq", lambda f, q: Poly(
            2 * f.n, f.degree + 2,
            {k: 2 * c for k, c in y_dq(f, q).coeffs.items()}))
        code, _, err = run(capsys, "selftest")
        assert code == 2
        assert "y_dq(x^(2, 0)) at n=2, d=2 disagrees" in err

    def test_doubled_y_dq_fails_selftest_under_optimize(self):
        script = ("import sys\n"
                  "from liouville import cli, young_map\n"
                  "from liouville.polyspaces import Poly\n"
                  "y_dq = young_map.y_dq\n"
                  "young_map.y_dq = lambda f, q: Poly(2 * f.n, f.degree + 2,"
                  " {k: 2 * c for k, c in y_dq(f, q).coeffs.items()})\n"
                  "sys.exit(cli.run(['selftest']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=src_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "y_dq(x^(2, 0)) at n=2, d=2 disagrees" in proc.stderr

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

    # five wrong flag weights for S^d(G)(b), each with the (d, b) of a
    # sheaf at n = 4 that it moves: the two slots swapped, +b for -b, d off
    # by one, an answer lost only at d >= 3, b = -1, and the first slot
    # one higher at d = b = 1, which keeps Bott's degree but not its weight
    SDG_MUTATIONS = {
        "swapped": ("(0,) * (n - 2) + (-b, -d)", (2, 1)),
        "plus-b": ("(0,) * (n - 2) + (-d, b)", (0, -1)),
        "d-plus-1": ("(0,) * (n - 2) + (-d - 1, -b)", (2, 1)),
        "lost-h1": ("(0,) * (n - 2) + ((-d, 1 - d) if d >= 3 and b == -1 "
                    "else (-d, -b))", (3, -1)),
        "weight-plus-1": ("(int((d, b) == (1, 1)),) + (0,) * (n - 3) "
                          "+ (-d, -b)", (1, 1)),
    }

    @pytest.mark.parametrize("command,message", [
        ("selftest", "integrity failure [selftest]: twisted sheaf table: "),
        ("reconf", "integrity failure [reconf]: "),
        ("sheaf", "integrity failure [sheaf]: "),
    ], ids=["selftest", "reconf", "sheaf"])
    @pytest.mark.parametrize("mutation", SDG_MUTATIONS)
    def test_wrong_sheaf_weight_is_2_under_optimize(self, command, message,
                                                    mutation):
        weight, (d, b) = self.SDG_MUTATIONS[mutation]
        argv = {"selftest": ["selftest"],
                "reconf": ["reconf", "--n", "4", "--dmax", "4"],
                "sheaf": ["sheaf", "--n", "4", "--d", str(d), "--b", str(b)],
                }[command]
        script = ("import sys\n"
                  "from liouville import bott, cli\n"
                  f"bott.sdg_weight = lambda n, d, b: {weight}\n"
                  f"sys.exit(cli.run({argv!r}))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=src_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr

    # a Bott that reports one degree too many, and so(n+2) images that are
    # all zero: the first is caught by the Euler characteristic before the
    # sheaf table runs, the second only by the rank of the images
    SELFTEST_MUTATIONS = {
        "bott-degree-plus-1": (
            "real = bott.bott_cohomology\n"
            "bott.bott_cohomology = lambda a: (lambda r: r and "
            "(r[0] + 1, r[1]))(real(a))\n",
            "integrity failure [selftest]: bott vanishing: "),
        "zero-so-images": (
            "real = killing.conformal_to_so_matrices\n"
            "killing.conformal_to_so_matrices = lambda n: "
            "[(g, {}) for g, _ in real(n)]\n",
            "integrity failure [selftest]: so(n+2) isomorphism: "),
    }

    @pytest.mark.parametrize("mutation", SELFTEST_MUTATIONS)
    def test_wrong_selftest_layer_is_2_under_optimize(self, mutation):
        patch, message = self.SELFTEST_MUTATIONS[mutation]
        script = ("import sys\n"
                  "from liouville import bott, cli, killing\n"
                  f"{patch}"
                  "sys.exit(cli.run(['selftest']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              env=src_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr

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
                (killing, "ck_kernel"), (killing, "named_conformal_basis"),
                (killing, "named_generators"), (reconf, "reconf_table"),
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
        # 3 * 12,090 = 36,270 columns, one degree past the largest admitted
        (["killing", "--n", "3", "--d", "154"], "KILLING_BUDGET"),
        # 240 columns, and the 240 translations of 240 components that
        # killing builds at d = 0: 57,600 cases
        (["killing", "--n", "240", "--d", "0"], "KILLING_BUDGET"),
        # 42 * 903 = 37,926 columns, more than the 42 special conformal
        # generators of 42 components each
        (["killing", "--n", "42", "--d", "2"], "KILLING_BUDGET"),
        # at n = 2 the kernel has fields in every degree, and the columns
        # count d + 1 times: 2 * 135 * 135 = 36,450
        (["killing", "--n", "2", "--d", "134"], "KILLING_BUDGET"),
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
    ], ids=["cech", "cech-box-0", "ydq", "killing", "killing-high-degree",
            "killing-generators", "killing-n42-d2", "killing-n2-d134",
            "reconf", "continuity",
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
        # the stub returns the true (ker, coker); kernel_cokernel_dims,
        # which it replaces, checks that against the Pieri count
        (["ydq", "--n", "7", "--d", "4"], (0, 2436)),
        (["killing", "--n", "6", "--d", "5"], []),
        (["killing", "--n", "10", "--d", "4"], []),
        # the n dim S^d columns alone: 3 * 3,321 and 3 * 11,935 = 35,805
        (["killing", "--n", "3", "--d", "80"], []),
        (["killing", "--n", "3", "--d", "153"], []),
        # 2 * 134 * 134 = 35,912: the largest n = 2 degree admitted
        (["killing", "--n", "2", "--d", "133"], []),
        (["reconf", "--n", "3", "--dmax", "200000"], {}),
        (["continuity", "--n-range", "2", "--dmax", "399"], {}),
        (["bott", "--weight=" + ",".join(["0"] * 500)], None),
        (["sheaf", "--n", "10000", "--d", "1", "--b", "1"], None),
    ], ids=["cech", "cech-box-0", "ydq", "killing", "killing-n10-d4",
            "killing-n3-d80", "killing-n3-d153", "killing-n2-d133",
            "reconf", "continuity", "bott", "sheaf"])
    def test_admits_larger_sizes(self, capsys, heavy, argv, result):
        heavy(argv[0], result)
        assert run(capsys, *argv)[0] == 0

    def test_admits_the_translations_at_n_189(self, capsys, heavy,
                                              monkeypatch):
        # 189 * 189 = 35,721 cases: the budget counts the 189 translations
        # that killing builds at d = 0, not all 191 * 190 / 2 generators
        from liouville import killing
        heavy("killing", [])
        monkeypatch.setattr(killing, "named_generators", lambda n, d: [])
        assert run(capsys, "killing", "--n", "189", "--d", "0")[0] == 0

    def test_admits_the_special_conformal_maps_at_n_41(self, capsys, heavy,
                                                       monkeypatch):
        # 41 * 861 = 35,301 columns, more than the 41 special conformal
        # generators of 41 components each
        from liouville import killing
        heavy("killing", [])
        monkeypatch.setattr(killing, "named_generators", lambda n, d: [])
        assert run(capsys, "killing", "--n", "41", "--d", "2")[0] == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_negative_degree_is_refused(self, capsys, n):
        # Liouville's count is 0 below degree 0, as dim S^d is, so the
        # size is 0 at n = 2 and n >= 3 alike and ck_kernel refuses d
        code, out, err = run(capsys, "killing", "--n", str(n), "--d", "-5")
        assert (code, out) == (1, "")
        assert "need n >= 2, d >= 0" in err

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
