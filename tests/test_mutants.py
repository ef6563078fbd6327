"""A catalogue of source mutants that some integrity check must catch.

Each row (name, file, old, new) puts one fault into a temporary copy of
src/liouville. A fixed list of commands then runs in one `python -O`
subprocess, so a check that is an assert would be stripped. Every command
whose stdout the mutant changes must exit 2, and at least one must
change: a mutant that no command notices tests no check. A row is added
with each check that closes an escape. One known escape has no row:
`sheaf` at a twist b other than +-1, which nothing checks.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liouville"

COMMANDS = [
    ["reconf", "--n", "5", "--dmax", "10"],
    ["continuity", "--n-range", "2,3", "--dmax", "4"],
    ["killing", "--n", "2", "--d", "2"],
    ["killing", "--n", "3", "--d", "1"],
    ["killing", "--n", "3", "--d", "2"],
    ["ydq", "--n", "5", "--d", "3"],
    ["ydq", "--n", "5", "--d", "10"],
    ["ydq", "--n", "3", "--d", "3", "--oracle"],
    ["cech", "--n", "3", "--box", "1"],
    ["cech", "--n", "4", "--box", "0"],
    ["sheaf", "--n", "4", "--d", "3", "--b", "1"],
    ["sheaf", "--n", "4", "--d", "2", "--b", "-1"],
    ["sheaf", "--n", "5", "--d", "0", "--b", "1"],
    ["bott", "--weight", "0,0,-3,1"],
    ["selftest"],
]

# prints [exit code, stdout] per command; an exception that escapes
# cli.run is recorded by its name in place of an exit code
SCRIPT = """\
import contextlib, io, json, sys
from liouville import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv)
        except Exception as e:
            code = type(e).__name__
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""

MUTANTS = [
    # CK's trace term: continuity's n = 2 rows come from ck_kernel alone
    ("ck-trace-weight", "killing.py",
     "w = -2 * e[c]", "w = -3 * e[c]"),
    # CK's L term on packed row keys moves x_i to y_i twice over, so its
    # terms land on the wrong rows: ck_kernel's dimension check fires
    ("ck-l-key-shift-doubled", "killing.py",
     "shift = key - kw[i] + kw[n + i]",
     "shift = key + 2 * (kw[n + i] - kw[i])"),
    # Liouville's count of the rotations and the dilation, the one count
    # that ck_kernel's check, reconf's H^0 rows and the killing guard read
    ("liouville-rotations-plus-one", "killing.py",
     "n * (n - 1) // 2 + 1", "n * (n - 1) // 2 + 2"),
    # beyond EXACT_RANGE, Bott's H^1 at n = 5, d = 10 moves with Sigma^{10,2}
    ("weyl-two-parts-with-a-10", "weights.py",
     "    return d\n",
     "    return d + (sum(map(bool, lam)) >= 2 and 10 in map(abs, lam))\n"),
    ("weyl-lambda1-is-3", "weights.py",
     "    return d\n", "    return d + (lam[0] == 3)\n"),
    ("les-h1-plus-one", "bott.py",
     "return {1: outer - inner}", "return {1: outer - inner + 1}"),
    # the so(n+2) closure fails in selftest, which names the pair that
    # left the graph's span by linalg.solve
    ("k-image-halved", "killing.py", "x_ab(v, i, 2)", "x_ab(v, i, 1)"),
    ("bracket-negated", "killing.py",
     "w = sign * e[j] * c", "w = -sign * e[j] * c"),
    ("cech-sign-dropped", "cech.py", "(-1) ** J.index(k)", "1"),
    # the twist enters the last weight slot with the wrong sign
    ("sdg-weight-plus-b", "bott.py", "(-d, -b)", "(-d, b)"),
    # the named generators `killing` prints at d = 1, 2, which it checks
    # to be nonzero and conformal Killing before it prints them
    ("k-square-term-tripled", "killing.py",
     "e[k]))), -1)", "e[k]))), -3)"),
    ("d-first-term-dropped", "killing.py",
     "(k, e[k]): 1 for k in range(n)}", "(k, e[k]): 1 for k in range(1, n)}"),
    ("r-sign-flipped", "killing.py", "(i, e[j]): -1}", "(i, e[j]): 1}"),
    # Bott's answer, which bott_cohomology checks against the sign and
    # the values of the permutation that sorts a+rho downwards
    ("bott-degree-plus-one", "bott.py",
     "res = inversions, ", "res = inversions + 1, "),
    ("bott-sort-ascending", "bott.py",
     "key=v.__getitem__, reverse=True)", "key=v.__getitem__)"),
    # weyl_dim's integrality check stops `bott` printing it, and the
    # Jacobi-Trudi binomials of bott._sdg_dim the b = +-1 `sheaf`
    ("weyl-den-plus-one", "weights.py",
     "den *= j - i", "den *= j - i + 1"),
    # the Young oracle loses a column of its y-map, which it checks
    # against the Pieri count that `ydq` sets y_dq's ranks against
    ("oracle-y-column-dropped", "young_map.py",
     "_oracle_y_columns(c_lam, n, lam[0], q))",
     "_oracle_y_columns(c_lam, n, lam[0], q)[1:])"),
    # the z_i z_j table that y_dq reads: a wrong but injective y_dq keeps
    # its ranks, so `ydq` and `reconf` print the same, and selftest's
    # projector comparison, whose q(y) comes from QuadraticForm.as_poly
    # and not this table, catches it
    ("pairs-index-shifted", "polyspaces.py",
     "(k == j)", "(k == (j + 1) % n)"),
]


def run_commands(root):
    """[exit code, stdout] of each command, importing liouville from root."""
    env = dict(os.environ, PYTHONPATH=str(root))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT, json.dumps(COMMANDS)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def unmutated():
    results = run_commands(PACKAGE.parent)
    assert [code for code, _ in results] == [0] * len(COMMANDS)
    return results


@pytest.mark.parametrize("name,file,old,new", MUTANTS,
                         ids=[row[0] for row in MUTANTS])
def test_mutant_exits_2(tmp_path, unmutated, name, file, old, new):
    copy = tmp_path / "liouville"
    shutil.copytree(PACKAGE, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / file).read_text()
    assert source.count(old) == 1, f"{name}: {old!r} is not one line"
    (copy / file).write_text(source.replace(old, new))
    changed = [(argv, code) for argv, (code, out), (_, want)
               in zip(COMMANDS, run_commands(tmp_path), unmutated)
               if out != want]
    assert changed, f"{name} changes no command's output"
    escaped = [(argv, code) for argv, code in changed if code != 2]
    assert not escaped, f"{name} changed output without exit 2: {escaped}"
