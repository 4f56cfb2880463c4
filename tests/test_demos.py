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
        "2b661c09a74039ccb6e7107fd7052996f76c92601b55a741ebe43b333cbda5c2",
    "godunov_simulation.py":
        "8fbb99a443c1a0388365af28978f2e38d595df4dd0a35a9ea24ada8a9ec2207b",
    "riemann_at_a_bottleneck.py":
        "ca6dcb61ece0da4a172bf4b53566f2bc9da7756709076817cc600dd0eeb4d611",
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
