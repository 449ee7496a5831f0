"""A long-lived field keeps only the levels of its latest query, so its
memory does not grow with the number of queries it answers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import freezeflow

PEAK_MB = 60  # an empty field and its imports take about 30 MB
STATUS = Path("/proc/self/status")

SETUP = """
import numpy as np
from freezeflow import SolutionField, get_fixture

field = SolutionField(get_fixture("parabolas").build(), tolerance=1e-7)
"""

SCRIPTS = {
    # one grid like the boundary-parabolas window's at each of 20 shifts
    "grids": """
for i in range(20):
    s = 0.06 * i
    field.eval_grid(np.linspace(0.8 + s, 2.0 + s, 40), np.linspace(0.4 + s, 2.0 + s, 40))
""",
    "points": """
rng = np.random.default_rng(3)
for x, t in zip(rng.uniform(-1.0, 5.0, 20000).tolist(), rng.uniform(0.0, 3.5, 20000).tolist()):
    field.eval_pair(x, t)
""",
}


# the peak of the process's own memory; ru_maxrss would start from the
# size of the process that started it
REPORT = f"""
with open({str(STATUS)!r}) as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(peak_kb // 1024, len(field._last))
"""


@pytest.mark.skipif(not STATUS.exists(), reason="reads the peak resident set size from /proc")
@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_many_queries_on_one_field_stay_small(name):
    # a field that kept every level it ever built peaked at 85 MB on the 20
    # grids and at 355 MB on the 20,000 point pairs
    env = dict(os.environ, PYTHONPATH=str(Path(freezeflow.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP + SCRIPTS[name] + REPORT], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb, kept = (int(word) for word in proc.stdout.split())
    assert peak_mb < PEAK_MB, (name, peak_mb, kept)
