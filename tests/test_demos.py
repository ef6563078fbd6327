"""Each narrative demo, and the selftest, runs warning-free against the
source tree."""

import json
import os
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
