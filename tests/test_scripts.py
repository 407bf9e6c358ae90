"""The scripts under ``scripts/`` run to completion and exit 0."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv, cwd):
    """A script in a child process, killed if it outlives 120 seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120, env=env,
    )


def test_oap_demo(tmp_path):
    proc = run_script("oap_demo.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "solver and oracle agree" in proc.stdout


def test_tmcne_report(tmp_path):
    out = tmp_path / "reports"
    proc = run_script("tmcne_report.py", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for p in (3, 5, 7):
        name = f"tmcne_p{p}.json"
        text = (out / name).read_text()
        assert json.loads(text)["verdict"] == "pass"
        # the committed golden files pin the certificate format too
        assert text == (ROOT / "tests" / "data" / name).read_text()
