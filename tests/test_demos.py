"""Demos: every script under demos/ runs to completion and prints the
same bytes as when its digest was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdlwr

_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout
_STDOUT_SHA256 = {
    "fundamental_diagrams.py":
        "181875a41f7f93c828516e5a1d6884fa2380acbe7fa817a1981e7354dcf3ade3",
    "godunov_simulation.py":
        "8fbb99a443c1a0388365af28978f2e38d595df4dd0a35a9ea24ada8a9ec2207b",
    "riemann_at_a_bottleneck.py":
        "f1f6fdf0506e56ca697a743036198ce33056ee7c30bb911811d035668558d394",
    "ring_experiment.py":
        "0c55a4045e0b65f8927458c0c67cde4c7eaff92dc7711d84cdda169a250bd942",
}


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.name for d in _DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(sdlwr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                         capture_output=True)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.strip()
    assert hashlib.sha256(out.stdout).hexdigest() == _STDOUT_SHA256[demo.name]
