"""README.md's "Quick start" block runs as written."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quick_start() -> str:
    """README.md's "Quick start" section, one indented code block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Quick start\n", 1)[1].split("\n## ", 1)[0]
    return textwrap.dedent(section)


def test_quick_start_runs_as_written(tmp_path):
    code = _quick_start()
    assert "solve(" in code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    t_end, mean = done.stdout.split()
    assert float(t_end) == 0.25 and abs(float(mean) - 1.0) < 0.1
