"""The four benchmark workloads.

Each workload builds its inputs once in ``__init__`` (the set-up that
``setup_s`` times), then ``run_pass`` does one full pass and returns its
timings and outputs, and ``check`` turns a pass's outputs into checked
operations and failure messages.  A pass is timed by the segments it
runs under ``self.segments``, which the runner may swap for calibrated
ones; the segments cover the whole pass.  All calls into sdlwr go through
``self.tr.span`` so a traced pass records every layer boundary; with the
null tracer the spans cost one attribute lookup and a shared no-op
context.

Every workload runs in this one process, single-threaded, as a closed
loop with one caller: the next call starts when the previous returns.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import Segments
from sdlwr import (
    BoundarySpec,
    RiemannProblem,
    RingScenario,
    RingSpec,
    StepConfig,
    StepFunction,
    detect_interior_states,
    from_density,
    grid_from_segments,
    initial_density,
    predict,
    run,
    sample_profile,
    solve,
    thresholds,
    to_density,
)

# Published thresholds of the reference ring and the tolerance the
# acceptance tests hold them to (veh).
N_A, N_C, THRESHOLD_TOL = 470.3311, 1757.4746, 0.05
DRIFT_TOL = 1e-9

RING_L, RING_L1 = 16.8, 2.8
RING_CELLS, RING_DT, RING_DURATION = 600, 0.8, 6000.0
RING_LOADS = (15.4007, 28.0, 57.1911)
RING_AMPLITUDE = 3.0

CORRIDOR_SEGMENTS, CORRIDOR_SEGMENT_CELLS = 48, 100
CORRIDOR_DX, CORRIDOR_DT, CORRIDOR_STEPS = 0.028, 0.8, 400
CORRIDOR_RECORD_EVERY = 20

SWEEP_STATES_PER_PAIR = 16
SWEEP_PROFILE_EVERY = 4  # sample_profile on one state in four
SWEEP_PROFILE_POINTS = 101
SWEEP_RANDOM_N = 30
# Round trips are checked away from plateaus and the crest, where one
# flux level maps to a density interval or an ill-conditioned point.
ROUND_TRIP_TOL = 1e-9        # relative to rho_jam
ROUND_TRIP_CREST_GAP = 1e-3  # relative to rho_jam
PREDICT_COUNT_TOL = 1e-2     # veh


def ring_spec(fam):
    """The paper's reference ring: 2.8 km KK1 bottleneck plus 14 km KK2."""
    return RingSpec(RING_L, RING_L1, fam.kk(1.0), fam.kk(2.0))


def stratified(rng, lo, hi, count):
    """One uniform draw in each of ``count`` equal bins of [lo, hi],
    shuffled, so every seed covers the whole range evenly."""
    u = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    return rng.permutation(lo + (hi - lo) * u)


def count_groups(fds):
    """Runs of consecutive cells sharing one diagram object."""
    return 1 + sum(1 for a, b in zip(fds, fds[1:]) if a is not b)


class Workload:
    name = ""
    uses_seed = True

    def __init__(self, root: Path, seed: int, fam, tracer):
        self.root = root
        self.tr = tracer
        self.segments = Segments(calibrate=False)


class RingExperiment(Workload):
    """test_04's experiment: three loads on the 600-cell reference ring."""

    name = "ring_experiment"
    uses_seed = False  # the paper's fixed loads

    def __init__(self, root, seed, fam, tracer):
        super().__init__(root, seed, fam, tracer)
        self.spec = ring_spec(fam)
        self.dx = RING_L / RING_CELLS
        n1 = round(RING_L1 / self.dx)
        segs = [(self.spec.fd1, n1), (self.spec.fd2, RING_CELLS - n1)]
        self.grids = [
            grid_from_segments(segs, self.dx,
                               rho=initial_density(self.spec, rho0, RING_AMPLITUDE))
            for rho0 in RING_LOADS
        ]
        self.cfg = StepConfig(RING_DT)
        self.steps = int(round(RING_DURATION / RING_DT))

    def run_pass(self):
        tr = self.tr
        run_s = []
        rings = []
        with self.segments(), tr.span("ring_analysis.thresholds"):
            n_a, n_c = thresholds(self.spec)
        for rho0, grid in zip(RING_LOADS, self.grids):
            with tr.op(f"op.ring.{rho0}"), self.segments():
                t0 = time.perf_counter()
                with tr.span("godunov_sim.run"):
                    rec = run(grid, self.cfg, RING_DURATION, record_every=self.steps)
                run_s.append(time.perf_counter() - t0)
                with tr.span("godunov_sim.total_vehicles"):
                    n = grid.total_vehicles()
                # the outer loads land on a threshold to sub-vehicle
                # accuracy; predict there so its interior site is expected
                for threshold in (n_a, n_c):
                    if abs(n - threshold) < 1e-3:
                        n = threshold
                with tr.span("ring_analysis.with_vehicles"):
                    spec_n = self.spec.with_vehicles(n)
                with tr.span("ring_analysis.predict"):
                    pred = predict(spec_n)
                with tr.span("godunov_sim.detect_interior_states"):
                    found = detect_interior_states(rec, steady_tol=2e-2, run_tol=2e-2)
                rings.append((rho0, grid, rec, pred, found))
        cells = RING_CELLS * self.steps
        return {"cell_steps_per_s": [cells / t for t in run_s]}, (n_a, n_c, rings)

    def check(self, out):
        n_a, n_c, rings = out
        problems = []
        if abs(n_a - N_A) > THRESHOLD_TOL or abs(n_c - N_C) > THRESHOLD_TOL:
            problems.append(f"thresholds N_a={n_a:.4f}, N_c={n_c:.4f}")
        for rho0, grid, rec, pred, found in rings:
            drift = rec.conservation_drift()
            if not drift < DRIFT_TOL:
                problems.append(f"rho0={rho0}: conservation drift {drift:.3e}")
            expected = sorted({s.cell_index(self.dx, RING_CELLS)
                               for s in pred.interior_sites})
            detected = [c.cell for c in found]
            target = pred.cell_densities(RING_CELLS, RING_L)
            bad = np.flatnonzero(np.abs(rec.final_rho - target) > 1e-2 * grid.rho_jam)
            allowed = {(c + d) % RING_CELLS for c in expected for d in (-1, 0, 1)}
            if not (detected == expected and expected and len(bad) <= 3
                    and set(bad.tolist()) <= allowed):
                problems.append(f"rho0={rho0}: sites {detected} (expected "
                                f"{expected}), off-profile cells {bad.tolist()}")
        return 1 + len(rings), problems


class Corridor(Workload):
    """Open 4800-cell road of 48 segments cycling five diagrams."""

    name = "corridor"

    def __init__(self, root, seed, fam, tracer):
        super().__init__(root, seed, fam, tracer)
        rng = np.random.default_rng(seed)
        cycle = [fam.kk(1.0), fam.kk(2.0), fam.kk(3.0),
                 fam.gs(27.8e-3, 120.0), fam.tri(30e-3, 150.0, 0.6, 6e-3)]
        segs = [(cycle[i % len(cycle)], CORRIDOR_SEGMENT_CELLS)
                for i in range(CORRIDOR_SEGMENTS)]
        rho = np.concatenate([
            np.clip(rng.uniform(0.05, 0.95) * fd.rho_jam
                    * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, count)), 0.0, fd.rho_jam)
            for fd, count in segs
        ])
        c_in, c_out = segs[0][0].capacity, segs[-1][0].capacity
        t1 = rng.uniform(40.0, 100.0)
        t2 = t1 + rng.uniform(80.0, 160.0)
        off = rng.uniform(0.1, 0.3) * c_in
        rush = StepFunction((0.0, t1, t2), (off, rng.uniform(0.6, 0.95) * c_in, off))
        exit_supply = StepFunction((0.0,), (rng.uniform(0.3, 0.9) * c_out,))
        self.grid = grid_from_segments(segs, CORRIDOR_DX, rho=rho,
                                       boundaries=BoundarySpec(rush, exit_supply))
        self.cfg = StepConfig(CORRIDOR_DT)

    def run_pass(self):
        with self.tr.op("op.corridor"), self.segments():
            t0 = time.perf_counter()
            with self.tr.span("godunov_sim.run"):
                rec = run(self.grid, self.cfg, CORRIDOR_STEPS * CORRIDOR_DT,
                          record_every=CORRIDOR_RECORD_EVERY)
            run_s = time.perf_counter() - t0
        cells = self.grid.n * CORRIDOR_STEPS
        return {"cell_steps_per_s": [cells / run_s]}, rec

    def check(self, rec):
        drift = rec.conservation_drift()
        if not drift < DRIFT_TOL:
            return 1, [f"vehicle ledger drift {drift:.3e}"]
        return 1, []


def on_flat_part(fd, rho):
    """True where one flux level covers a density interval (a trapezoid
    plateau) or the density sits next to the crest."""
    gap = ROUND_TRIP_CREST_GAP * fd.rho_jam
    right_edge = fd.rho_crit
    v_cong = getattr(fd, "v_cong", None)
    if v_cong is not None:
        right_edge = fd.rho_jam - fd.capacity / v_cong
    return fd.rho_crit - gap <= rho <= right_edge + gap


class RiemannSweep(Workload):
    """All 16 ordered pairs of the verify families, plus an N sweep."""

    name = "riemann_sweep"

    def __init__(self, root, seed, fam, tracer):
        super().__init__(root, seed, fam, tracer)
        rng = np.random.default_rng(seed)
        fds = fam.verify_set()
        self.cases = []
        for up in fds.values():
            for down in fds.values():
                r_up = stratified(rng, 0.0, up.rho_jam, SWEEP_STATES_PER_PAIR)
                r_down = stratified(rng, 0.0, down.rho_jam, SWEEP_STATES_PER_PAIR)
                vmax = 1.1 * max(up.max_wave_speed(), down.max_wave_speed())
                xi = np.linspace(-vmax, vmax, SWEEP_PROFILE_POINTS)
                self.cases += [(up, down, float(a), float(b), xi)
                               for a, b in zip(r_up, r_down)]
        self.ring = RingSpec(RING_L, RING_L1, fds["kk1"], fds["kk2"])
        self.n_a, self.n_c = thresholds(self.ring)
        self.counts = [float(n) for n in
                       stratified(rng, 0.0, self.ring.max_vehicles, SWEEP_RANDOM_N)]
        self.counts += [self.n_a, self.n_c]

    def run_pass(self):
        with self.segments():
            return self._sweep()

    def _sweep(self):
        tr = self.tr
        solved = []
        solve_s = 0.0
        for k, (up, down, r1, r2, xi) in enumerate(self.cases):
            with tr.op("op.riemann"):
                t0 = time.perf_counter()
                with tr.span("supply_demand.from_density"):
                    u1 = from_density(up, r1)
                with tr.span("supply_demand.from_density"):
                    u2 = from_density(down, r2)
                with tr.span("riemann_solver.RiemannProblem"):
                    p = RiemannProblem(up, down, u1, u2)
                with tr.span("riemann_solver.solve"):
                    sol = solve(p)
                with tr.span("supply_demand.to_density"):
                    to_density(up, sol.stat_up)
                with tr.span("supply_demand.to_density"):
                    to_density(down, sol.stat_down)
                solve_s += time.perf_counter() - t0
                profile = None
                if k % SWEEP_PROFILE_EVERY == 0:
                    with tr.span("riemann_solver.sample_profile"):
                        profile = sample_profile(p, xi, sol)
            solved.append((u1, u2, sol.boundary_flux, profile))
        t_predicts = time.perf_counter()
        preds = []
        for n in self.counts:
            with tr.op("op.predict"):
                with tr.span("ring_analysis.with_vehicles"):
                    spec = self.ring.with_vehicles(n)
                with tr.span("ring_analysis.predict"):
                    preds.append(predict(spec))
        t_end = time.perf_counter()
        return {
            "solves_per_s": [len(self.cases) / solve_s],
            "predicts_per_s": [len(self.counts) / (t_end - t_predicts)],
        }, (solved, preds)

    def check(self, out):
        solved, preds = out
        problems = []
        for (up, down, r1, r2, _), (u1, u2, flux, profile) in zip(self.cases, solved):
            bad = []
            if flux != min(u1.demand, u2.supply):
                bad.append(f"flux {flux!r} != min(D1, S2)")
            for fd, rho, state in ((up, r1, u1), (down, r2, u2)):
                if on_flat_part(fd, rho):
                    continue
                back = to_density(fd, state)
                if abs(back - rho) > ROUND_TRIP_TOL * fd.rho_jam:
                    bad.append(f"round trip {rho!r} -> {back!r} on {type(fd).__name__}")
            if profile is not None and not np.all(np.isfinite(profile)):
                bad.append("non-finite profile")
            if bad:
                problems.append(f"{type(up).__name__}->{type(down).__name__} "
                                f"rho=({r1:.6g}, {r2:.6g}): " + "; ".join(bad))
        for n, pred in zip(self.counts, preds):
            expected = (RingScenario.BOTH_UC if n <= self.n_a else
                        RingScenario.CRITICAL_WITH_SS if n < self.n_c else
                        RingScenario.CRITICAL_WITH_SOC if n == self.n_c else
                        RingScenario.BOTH_SOC)
            gap = abs(pred.vehicle_count() - n)
            if pred.scenario is not expected or gap > PREDICT_COUNT_TOL:
                problems.append(f"predict N={n!r}: {pred.scenario.value} "
                                f"(expected {expected.value}), count off by {gap:.3g}")
        return len(solved) + len(preds), problems


CLI_COMMANDS = ("riemann", "ring-predict", "simulate", "verify")
_THRESHOLDS_RE = re.compile(r"N_a = ([0-9.]+) veh, N_c = ([0-9.]+) veh")
_DRIFT_RE = re.compile(r"conservation drift: (\S+) \(relative\)")


def cli_env(root: Path):
    """Environment for child processes: the checkout's sources, one thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, cwd, stdout_path):
    """Run one child process to completion; (seconds, exit code, rusage).

    ``os.wait4`` reaps the child so its own peak RSS is known, not the
    maximum over every child this process ever waited for.
    """
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage


class Cli(Workload):
    """Fresh ``python -m sdlwr.cli`` processes, one of each command per pass."""

    name = "cli"
    uses_seed = False  # fixed configs; verify runs with its defaults

    def __init__(self, root, seed, fam, tracer):
        super().__init__(root, seed, fam, tracer)
        from sdlwr.cli import parse_config

        self.config_dir = root / "bench" / "configs"
        self.out_dir = root / "bench" / "out" / "cli"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for cmd in CLI_COMMANDS[:3]:
            path = self.config_dir / f"{cmd.replace('-', '_')}.yaml"
            parse_config(path.read_text())  # fail in set-up, not mid-run
            self.configs[cmd] = path
        self.env = cli_env(root)
        self.peak_rss_kb = 0

    def argv(self, cmd):
        argv = [sys.executable, "-m", "sdlwr.cli", cmd]
        if cmd in self.configs:
            argv += ["--config", str(self.configs[cmd]), "--out", str(self.out_dir)]
        return argv

    def run_pass(self):
        timings = {}
        outputs = {}
        for cmd in CLI_COMMANDS:
            key = cmd.replace("-", "_")
            stdout_path = self.out_dir / f"{key}.stdout"
            with self.segments():
                with self.tr.op(f"op.cli.{key}"), self.tr.span(f"cli.{key}"):
                    elapsed, code, usage = run_child(self.argv(cmd), self.env,
                                                     self.root, stdout_path)
                outputs[cmd] = (code, stdout_path.read_text())
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            timings[f"cli_{key}_s"] = [elapsed]
        return timings, outputs

    def check(self, outputs):
        problems = []
        for cmd, (code, text) in outputs.items():
            if code != 0:
                problems.append(f"{cmd}: exit code {code}")
                continue
            if cmd == "verify":
                lines = text.splitlines()
                if not lines or any(not ln.startswith("PASS ") for ln in lines):
                    problems.append(f"verify: not every line reads PASS: {text!r}")
            elif cmd == "ring-predict":
                m = _THRESHOLDS_RE.search(text)
                if not m or abs(float(m[1]) - N_A) > THRESHOLD_TOL \
                        or abs(float(m[2]) - N_C) > THRESHOLD_TOL:
                    problems.append(f"ring-predict: thresholds line wrong: {text!r}")
            elif cmd == "simulate":
                m = _DRIFT_RE.search(text)
                if not m or not float(m[1]) < DRIFT_TOL:
                    problems.append(f"simulate: drift line wrong: {text!r}")
            elif cmd == "riemann":
                rows = (self.out_dir / "riemann_profile.csv").read_text().splitlines()
                if len(rows) != 122 or "boundary flux q =" not in text:
                    problems.append(f"riemann: {len(rows)} CSV rows, report {text!r}")
        return len(outputs), problems


WORKLOADS = {w.name: w for w in (RingExperiment, Corridor, RiemannSweep, Cli)}
