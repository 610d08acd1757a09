import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles(path):
    compile(path.read_text(), str(path), "exec")


# lines of each demo's output that its computations decide
EXPECTED = {
    "01": ("7/5 = [2, 2, 3]   s=3  q'=3  excess=1", "17/7 = [3, 2, 4]  (reversed)"),
    "02": ("    17      15      3", "2 in O_17: True    16 in O_17: False"),
    "03": ("minimal v = (1, 1, 1)", "F^3 = 7   K.F^2 = -4   K^2.F = 1"),
    "04": ("chi = 1", "K^3 = -14", "e   = 18"),
    "05": ("targets: 0.63 and d/(d-2) = 1.5", "exit code: 0"),
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_end_to_end(path):
    # every demo takes well under a second
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    for line in EXPECTED[path.name[:2]]:
        assert line in proc.stdout, line
