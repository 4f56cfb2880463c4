"""The measuring tools under tools/ run and report as they say."""

import re
import subprocess
import sys
from pathlib import Path

import sdlwr

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_ab_pass_compares_a_tree_with_itself():
    """Two blocks of one riemann_sweep pass a side, each side on this
    tree's sources: both medians, their ratio, the blocks won and the
    quartiles of each side's block medians."""
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
    quartiles = re.fullmatch(r"block-median quartiles: A (\S+) / (\S+) / (\S+) ms; "
                             r"B (\S+) / (\S+) / (\S+) ms", lines[4]).groups()
    for median, side in zip(medians, (quartiles[:3], quartiles[3:])):
        low, mid, high = map(float, side)
        assert 0.0 < low <= mid <= high
        assert abs(mid - median) < 1e-3  # one pass a block: the median pass


# Eight code lines, counted by hand: the import with its comment, the
# def line, both lines of the bracketed sum, the return, the class line,
# and both lines of the assigned string, which is not a docstring.
_SOURCE = '''\
"""Module docstring,
over two lines."""

import math  # a trailing comment


# a comment line
def f(x):
    """Function docstring."""

    total = (x
             + 1)
    return math.sqrt(total)


class C:
    """Class docstring
    on two lines."""
    text = """not a docstring:
    an assigned string"""
'''


def test_code_lines_counts_a_source_by_hand(tmp_path):
    """``tools/code_lines.py`` counts what a hand count gives: no blank,
    comment-only or docstring line, every line of a statement that spans
    several.  Run on a directory it prints each module and the total."""
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n")
    out = subprocess.run([sys.executable, str(_TOOLS / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert [line.split() for line in out.stdout.splitlines()] == [
        ["a.py", "8"], ["b.py", "1"], ["total", "9"]]
