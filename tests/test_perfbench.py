"""The benchmark's smoke run passes on the checkout's program.

perfbench/run.py --smoke runs every workload at tiny sizes, timed and
traced, with every output check, so a change to a hot path that breaks a
benchmark check fails here too.
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "perfbench", "run.py")


def test_smoke_run_passes():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == '{"smoke": "passed"}'
