"""Every ``valfield ...`` line of the README's CLI block exits 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def readme_cli_lines():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    joined = re.sub(r"\\\n\s*", "", block)
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("valfield ")]


def test_readme_has_cli_examples():
    assert len(readme_cli_lines()) == 9


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_line_exits_zero(line, tmp_path):
    argv = shlex.split(line)[1:]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "valfield", *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
