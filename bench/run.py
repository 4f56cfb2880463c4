"""sdlwr benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload ring_experiment --seed 1 --seconds 25 --trace 0

``--trace 0`` is the timed run.  It prints the workload's end-to-end
metrics with their units, each as a median with quartiles and sample
count; the JSON line carries the medians.  Its ``wall_s`` and ``setup_s``
are calibrated to the host's speed (see ``hostspeed.py``); the raw
figures are printed beside them.  ``--trace 1`` is the traced run.
It times every layer's public functions, records spans around the
calls into the layers, and prints the per-layer metrics: self time,
call counts, flux_curve counts and the tracing overhead.  The last line
of standard output is one JSON object with the metrics named in
BENCHMARK.json.  Details, the provenance block and, for traced runs,
the span file and self-time table go to ``bench/out/``.  The exit code
is nonzero when a correctness check fails or the checkout has no
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 10
MIN_PASSES = 3
MIN_ROUNDS, MAX_ROUNDS = 2, 3

ROOT = Path(__file__).resolve().parent.parent

# Printed with their workload's end-to-end metrics, not in the JSON line:
# each exists on only some workloads.  (unit, better)
PRINTED = {
    "wall_raw_s": ("s", "lower"),
    "setup_raw_s": ("s", "lower"),
    "calibration_loop_s": ("s", "lower"),
    "cell_steps_per_s": ("1/s", "higher"),
    "solves_per_s": ("1/s", "higher"),
    "predicts_per_s": ("1/s", "higher"),
    "cli_riemann_s": ("s", "lower"),
    "cli_ring_predict_s": ("s", "lower"),
    "cli_simulate_s": ("s", "lower"),
    "cli_verify_s": ("s", "lower"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def summarize(values, better):
    """Median, quartiles, sample count and the highest percentile with at
    least ten samples beyond it, taken on the worse side."""
    v = sorted(values)
    n = len(v)
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if n >= 2 else (med, med, med)
    out = {"median": med, "q1": q1, "q3": q3, "n": n}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            k = p if better == "lower" else 100.0 - p
            idx = min(n - 1, max(0, round(k / 100.0 * (n - 1))))
            out["tail"] = {"percentile": p, "value": v[idx]}
            break
    return out


def provenance(pinned_cpu):
    import numpy
    import yaml

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError) as exc:
            commit = f"unavailable: {exc}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": pinned_cpu,
        "cpu_model": cpu,
        "git_commit": commit,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "single_process": True,
    }


def time_setup(args):
    """Start a fresh interpreter that only sets the workload up; seconds
    from spawn until its set-up ends, read off the shared monotonic clock."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    t0 = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1]) - t0


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted, problems):
        self.attempted += attempted
        self.failed += len(problems)
        self.messages += problems[: max(0, 20 - len(self.messages))]


def timed_run(args, cls, spec):
    from hostspeed import Segments
    from tracing import Families, NullTracer

    wl = cls(ROOT, args.seed, Families(), NullTracer())
    wl.segments = cal = Segments(calibrate=True)
    checks = Checks()
    samples = defaultdict(list)
    setups = samples["setup_s"]
    walls = samples["wall_raw_s"]

    def setup_probe():
        raw = time_setup(args)
        samples["setup_raw_s"].append(raw)
        setups.append(cal.rescale(raw))

    t_start = time.perf_counter()
    while True:
        # set-up probes are spread over the run, one share before each pass
        elapsed = time.perf_counter() - t_start
        est = statistics.median(walls) if walls else 0.0
        while len(setups) < max(1, SETUP_PROBES * min(1.0, (elapsed + est) / args.seconds)):
            setup_probe()
        timings, out = wl.run_pass()
        raw, calibrated = cal.take()
        walls.append(raw)
        samples["wall_s"].append(calibrated)
        checks.add(*wl.check(out))
        for k, v in timings.items():
            samples[k] += v
        elapsed = time.perf_counter() - t_start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        setup_probe()
    samples["calibration_loop_s"] = cal.loops
    rss_kb = getattr(wl, "peak_rss_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples["peak_rss_mb"] = [rss_kb / 1024.0]

    kinds = dict(PRINTED, **{m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]})
    detail = {k: dict(summarize(v, kinds[k][1]), unit=kinds[k][0], samples=v)
              for k, v in samples.items()}
    detail["fail_ratio"] = {"median": checks.failed / max(1, checks.attempted),
                            "n": checks.attempted, "unit": "ratio"}
    metrics = {m["name"]: {"value": detail[m["name"]]["median"], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return metrics, detail, checks, {}


def traced_run(args, cls, spec):
    from layers import Probes
    from tracing import LAYERS, Families, NullTracer, Tracer, children_per_parent, self_times

    tracer = Tracer()
    traced_fam = Families(tracer)
    plain = cls(ROOT, args.seed, Families(), NullTracer())
    traced = cls(ROOT, args.seed, traced_fam, tracer)
    probes = Probes(ROOT, args.seed, Families())
    traced_probes = Probes(ROOT, args.seed, traced_fam)
    checks = Checks()
    walls = {"untraced": [], "traced": []}
    rounds = []

    def one_pass(wl, key):
        _, out = wl.run_pass()
        checks.add(*wl.check(out))
        walls[key].append(wl.segments.take()[0])

    t_start = time.perf_counter()
    while len(rounds) < MAX_ROUNDS:
        t_round = time.perf_counter()
        one_pass(plain, "untraced")
        mark = tracer.mark()
        one_pass(traced, "traced")
        traced_probes.sweep(tracer)
        rounds.append(tracer.spans[mark:])
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - t_start + (now - t_round) > args.seconds:
            break
    per_layer = dict(probes.time_all())
    per_layer.update({k: (v, "count") for k, v in probes.counts.items()})

    op_names = {}
    for sp in tracer.spans:
        if sp[1].startswith("op."):
            op_names[sp[5]] = sp[1]
    table = {scope: defaultdict(list) for scope in ("all", "workload", "probe")}
    for spans in rounds:
        scoped = {
            "all": spans,
            "workload": [s for s in spans if op_names.get(s[5]) != "op.probe"],
            "probe": [s for s in spans if op_names.get(s[5]) == "op.probe"],
        }
        for scope, subset in scoped.items():
            self_ns, calls = self_times(subset)
            for layer in LAYERS:
                table[scope][layer].append((self_ns[layer] / 1e6, calls[layer]))
    for layer in LAYERS:
        per_layer[f"trace.self_ms.{layer}"] = (
            statistics.median(ms for ms, _ in table["all"][layer]), "ms")
        per_layer[f"trace.calls.{layer}"] = (table["all"][layer][0][1], "count")
    # counted in the probe sweep only, so the counts mean the same on every workload
    probe_spans = [s for s in rounds[0] if op_names.get(s[5]) == "op.probe"]
    per_solve, n_solves = children_per_parent(probe_spans, "riemann_solver.solve",
                                              "fundamental_diagram.flux_curve")
    per_predict, n_predicts = children_per_parent(probe_spans, "ring_analysis.predict",
                                                  "fundamental_diagram.flux_curve")
    per_layer["fundamental_diagram.flux_curve_calls_per_solve"] = (per_solve, "count")
    per_layer["fundamental_diagram.flux_curve_calls_per_predict"] = (per_predict, "count")
    traced_wall = statistics.median(walls["traced"])
    untraced_wall = statistics.median(walls["untraced"])
    per_layer["trace.traced_wall_s"] = (traced_wall, "s")
    per_layer["trace.untraced_wall_s"] = (untraced_wall, "s")
    per_layer["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    out_dir = ROOT / "bench" / "out"
    stem = f"{args.workload}_seed{args.seed}"
    tracer.write(out_dir / f"{stem}_spans.csv.gz")
    lines = [f"self time per traced round (ms) and calls, {args.workload}, seed {args.seed}, "
             f"{len(rounds)} rounds of one traced pass plus one probe sweep",
             f"{'layer':<22}{'all ms':>12}{'workload ms':>14}{'probe ms':>12}"
             f"{'calls':>10}{'wl calls':>10}"]
    for layer in LAYERS:
        row = [statistics.median(ms for ms, _ in table[s][layer])
               for s in ("all", "workload", "probe")]
        lines.append(f"{layer:<22}{row[0]:>12.3f}{row[1]:>14.3f}{row[2]:>12.3f}"
                     f"{table['all'][layer][0][1]:>10d}{table['workload'][layer][0][1]:>10d}")
    lines.append(f"flux_curve calls per solve: {per_solve:.4f} over {n_solves} probe solves")
    lines.append(f"flux_curve calls per predict: {per_predict:.4f} over {n_predicts} probe predicts")
    lines.append(f"traced wall_s {traced_wall:.4f} s, untraced wall_s {untraced_wall:.4f} s, "
                 f"overhead {traced_wall - untraced_wall:.4f} s")
    (out_dir / f"{stem}_trace.txt").write_text("\n".join(lines) + "\n")

    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if names and set(names) != set(per_layer):
        raise SystemExit(f"per-layer metrics differ from BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(per_layer))}")
    metrics = {k: {"value": v, "unit": names.get(k, u)} for k, (v, u) in per_layer.items()}
    detail = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    return metrics, detail, checks, {"table": lines, "spans": len(tracer.spans)}


def main(argv=None):
    args = parse_args(argv)
    from hostspeed import pin_to_current_cpu

    pinned_cpu = pin_to_current_cpu()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "sdlwr" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"no sdlwr sources under {src}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(src))
    import sdlwr

    if Path(sdlwr.__file__).resolve().parent != (src / "sdlwr").resolve():
        sys.stderr.write(f"imported sdlwr from {sdlwr.__file__}, not from {src}\n")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    cls = WORKLOADS[args.workload]
    if args.probe_setup:
        from tracing import Families, NullTracer

        cls(ROOT, args.seed, Families(), NullTracer())
        print(time.monotonic())
        return 0

    spec = json.loads(spec_path.read_text())
    (ROOT / "bench" / "out").mkdir(parents=True, exist_ok=True)
    run_fn = traced_run if args.trace else timed_run
    metrics, detail, checks, extra = run_fn(args, cls, spec)

    prov = provenance(pinned_cpu)
    result = {
        "workload": args.workload, "seed": args.seed, "seed_used": cls.uses_seed,
        "seconds": args.seconds, "trace": args.trace, "provenance": prov,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "messages": checks.messages},
        "metrics": detail, **extra,
    }
    out_path = ROOT / "bench" / "out" / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}"
          f"{'' if cls.uses_seed else ' (unused: fixed inputs)'}, trace {args.trace}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    for name, d in sorted(detail.items()):
        if "median" not in d:
            print(f"  {name:<56} {d['value']:.6g} {d['unit']}")
            continue
        line = f"  {name:<20} median {d['median']:.6g} {d['unit']} over {d['n']}"
        if "q1" in d:
            tail = d.get("tail")
            line += (f", q1 {d['q1']:.6g}, q3 {d['q3']:.6g}, "
                     + (f"p{tail['percentile']:g} {tail['value']:.6g}" if tail
                        else "no tail percentile (under 20 samples)"))
        print(line)
    for line in extra.get("table", []):
        print("  " + line)
    for msg in checks.messages:
        print(f"  FAILED CHECK: {msg}")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed; details in {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
