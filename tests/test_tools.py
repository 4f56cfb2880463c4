"""The measuring tools under tools/ run and report as they say."""

import re
import subprocess
import sys
from pathlib import Path

import sdlwr

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_ab_pass_compares_a_tree_with_itself():
    """Two blocks of one riemann_sweep pass a side, each side on this
    tree's sources: both medians, their ratio and the blocks won."""
    src = str(Path(sdlwr.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(_TOOLS / "ab_pass.py"), src, src,
         "--workload", "riemann_sweep", "--blocks", "2", "--passes", "1"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "workload riemann_sweep, seed 11, 2 blocks of 1 passes a side"
    medians = [float(re.fullmatch(rf"{side} .*: median pass (\S+) ms", line)[1])
               for side, line in zip("AB", lines[1:3])]
    assert all(m > 0.0 for m in medians)
    ratio, won = re.fullmatch(r"B/A (\S+); B lower in (\d) of 2 blocks", lines[3]).groups()
    assert abs(float(ratio) - medians[1] / medians[0]) < 1e-3
    assert 0 <= int(won) <= 2
