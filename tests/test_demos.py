"""Each narrative demo, the README's Python examples and the selftest run
warning-free against the source tree."""

import doctest
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
