"""Interleaved in-process A/B timing of one benchmark workload's pass.

    python3 tools/ab_pass.py A_SRC B_SRC [--workload riemann_sweep]
                             [--seed 11] [--blocks 30] [--passes 10]

A_SRC and B_SRC are two ``src`` directories, say a copy of the parent
commit's and this checkout's.  Block k runs ``--passes`` passes on each
side, A first in odd blocks and B first in even ones.  Each side of each
block is a fresh child interpreter, which imports ``sdlwr`` from its
directory, builds the workload from this checkout's
``bench/workloads.py`` on the seed given, warms it up by one checked
pass and then times its passes by the workload's own segments, as
``bench/run.py`` times them (uncalibrated, checks excluded).  Start-up
and set-up are not timed.  A fresh child per block keeps whatever makes
one process slower than another (its memory layout, the CPU it lands
on) from biasing every block of one side.

It prints each side's median pass over all blocks, B's median over A's,
and in how many blocks B's median pass was the lower.  Standard library
and numpy only; nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child(src: str, workload: str, seed: int, passes: int) -> int:
    """Build the workload on ``src``'s sdlwr, warm it up, and print one
    JSON line of ``passes`` pass times."""
    sys.path[:0] = [src, str(ROOT / "bench")]
    from tracing import Families, NullTracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](ROOT, seed, Families(), NullTracer())
    _, problems = wl.check(wl.run_pass()[1])
    wl.segments.take()
    if problems:
        sys.stderr.write("warm-up pass failed its checks:\n  " + "\n  ".join(problems) + "\n")
        return 1
    times = []
    for _ in range(passes):
        wl.run_pass()
        times.append(wl.segments.take()[0])
    print(json.dumps(times))
    return 0


def _block(src: str, args) -> list[float]:
    """One side of one block: a fresh child's pass times."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(Path(src).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--passes", str(args.passes)],
        stdout=subprocess.PIPE, text=True, env=env)
    if out.returncode:
        raise SystemExit(f"the child on {src} failed; see its errors above")
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a_src", nargs="?")
    ap.add_argument("b_src", nargs="?")
    ap.add_argument("--workload", default="riemann_sweep")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--blocks", type=int, default=30)
    ap.add_argument("--passes", type=int, default=10)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args.child, args.workload, args.seed, args.passes)
    if args.a_src is None or args.b_src is None:
        ap.error("give the two src directories, A then B")
    if args.blocks < 1 or args.passes < 1:
        ap.error("--blocks and --passes must be at least 1")

    srcs = {"A": args.a_src, "B": args.b_src}
    times = {"A": [], "B": []}
    b_won = 0
    for k in range(args.blocks):
        medians = {}
        for side in ("AB" if k % 2 == 0 else "BA"):
            block = _block(srcs[side], args)
            times[side] += block
            medians[side] = statistics.median(block)
        b_won += medians["B"] < medians["A"]

    med = {side: statistics.median(t) for side, t in times.items()}
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.blocks} blocks of {args.passes} passes a side")
    for side, src in (("A", args.a_src), ("B", args.b_src)):
        print(f"{side} {src}: median pass {med[side] * 1e3:.4f} ms")
    print(f"B/A {med['B'] / med['A']:.4f}; B lower in {b_won} of {args.blocks} blocks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
