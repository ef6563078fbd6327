"""Each narrative demo, the README's Python examples and the selftest run
warning-free against the source tree. Each demo's stdout is pinned by
sha256, as tests/test_cli_golden.py pins the CLI: a refactor that is
meant to leave the demos unchanged must leave each digest unchanged, and
a change that alters a demo's text on purpose re-records its digest, with
the reason, in the same commit."""

import doctest
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DIGESTS = {
    "01_bott_tables":
        "0a07df4c8b4fcc27e0a55dc75464a69552dd384977574919d4270077c763a96a",
    "02_cech_punctured_affine":
        "cfbd59b9f04bf11516748b29b82a9a41d40824d643e1699510272165d1f88890",
    "03_harmonics_and_young_map":
        "f2b0d5cfdd650f1b73a3fae4db9cd9089c44fa995bc0e62368a5f4765e139818",
    "04_conformal_killing":
        "41bfa2a8b275e7dbdf46f8f5ca734e2d1db0da02bc5f8b01ebc2267fbe6100d8",
    "05_cohomology_table":
        "219af1c75c72a27836936540f2dbe5095ab94125fa1134c19d2fbb4466aa5137",
    "06_oracles_and_cli":
        "f098bfb3213bc938cdd99845294bf8b6cc5f0c25fc0dfa38261cefecdaf5f521",
}


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          cwd=ROOT, env=src_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert (hashlib.sha256(proc.stdout.encode()).hexdigest()
            == DIGESTS[demo.stem]), proc.stdout


def test_readme_python_examples():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        test = doctest.DocTestParser().get_doctest(
            block, {}, "README.md", str(ROOT / "README.md"), 0)
        report = []
        result = doctest.DocTestRunner().run(test, out=report.append)
        assert result.attempted and not result.failed, "".join(report)


def test_selftest_is_clean_in_dev_mode():
    # dev mode turns on ResourceWarning and friends; -W error makes any
    # warning the suite would print a failure
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "liouville.cli",
         "selftest"], cwd=ROOT, env=src_env(), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["status"] == "ok"
