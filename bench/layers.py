"""Per-layer probes: timed calls into each module's public functions.

Every probe is one call (or a short fixed batch) on a standard input.
Untraced, ``time_all`` turns each into a median time per call; in the
traced run, ``sweep`` calls each once inside a span named after the
function, so every one of the seven layers shows up in the trace
whatever the workload.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

import numpy as np

from sdlwr import (
    RiemannProblem,
    SimRecord,
    StepConfig,
    detect_interior_states,
    from_density,
    grid_from_segments,
    initial_density,
    interface_fluxes,
    predict,
    run,
    sample_profile,
    solve,
    step,
    thresholds,
    to_density,
    vehicles_of_initial,
)
from sdlwr.cli import cmd_riemann, cmd_ring_predict, cmd_simulate, cmd_verify, parse_config
from sdlwr.verify_cases import run_case_table

from workloads import (
    RING_AMPLITUDE,
    RING_CELLS,
    RING_DT,
    RING_L,
    Corridor,
    cli_env,
    count_groups,
    ring_spec,
)

_RUN_STEPS = 100
_SAMPLE_S = 0.01   # aim for at least this much work per timed sample
_SAMPLES = 5
_HEAVY_SAMPLES = 3  # for probes that take longer than a sample


class Probe:
    """``fn`` does ``per`` units of work; ``scale`` converts seconds per
    unit to the metric's unit."""

    def __init__(self, metric, unit, span, fn, per=1, scale=1e6):
        self.metric, self.unit, self.span = metric, unit, span
        self.fn, self.per, self.scale = fn, per, scale


class Probes:
    def __init__(self, root, seed, fam):
        self.counts = {}
        self.items = []
        self._fd_probes(fam)
        self._riemann_probes(fam)
        self._sim_probes(root, seed, fam)
        self._ring_probes(fam)
        self._cli_probes(root)

    def add(self, *args, **kw):
        self.items.append(Probe(*args, **kw))

    def _fd_probes(self, fam):
        fds = fam.verify_set()
        kk1, kk2 = fds["kk1"], fds["kk2"]
        self.add("fundamental_diagram.flux_curve_scalar_us", "us",
                 "fundamental_diagram.flux_curve", lambda: kk1.flux_curve(30.0))
        for tag, key in (("gs", "gs"), ("tri", "tri"), ("kk", "kk2")):
            fd = fds[key]
            levels = [f * fd.capacity for f in (0.2, 0.5, 0.8)]
            self.add(f"fundamental_diagram.inv_demand_us.{tag}", "us",
                     "fundamental_diagram.inv_demand",
                     lambda fd=fd, lv=levels: [fd.inv_demand(x) for x in lv], per=3)
            self.add(f"fundamental_diagram.inv_supply_us.{tag}", "us",
                     "fundamental_diagram.inv_supply",
                     lambda fd=fd, lv=levels: [fd.inv_supply(x) for x in lv], per=3)
        arr = np.linspace(0.0, kk2.rho_jam, 4800)
        self.add("fundamental_diagram.demand_supply_ns_per_cell", "ns",
                 "fundamental_diagram.demand_supply",
                 lambda: (kk2.demand(arr), kk2.supply(arr)), per=arr.size, scale=1e9)
        self.add("fundamental_diagram.construct_us.kk", "us",
                 "fundamental_diagram.KernerKonhauserDiagram", lambda: fam.kk(2.0))
        rhos = [20.0, 71.0, 200.0]
        states = [from_density(kk2, r) for r in rhos]
        self.add("supply_demand.from_density_us", "us", "supply_demand.from_density",
                 lambda: [from_density(kk2, r) for r in rhos], per=3)
        self.add("supply_demand.to_density_us", "us", "supply_demand.to_density",
                 lambda: [to_density(kk2, s) for s in states], per=3)

    def _riemann_probes(self, fam):
        fds = fam.verify_set()
        cases = {"gs": (fds["gs"], fds["gs"], 30.0, 90.0),
                 "tri": (fds["tri"], fds["tri"], 15.0, 100.0),
                 "kk": (fds["kk2"], fds["kk1"], 50.0, 20.0)}
        for tag, (up, down, r1, r2) in cases.items():
            p = RiemannProblem.from_densities(up, down, r1, r2)
            self.add(f"riemann_solver.solve_us.{tag}", "us", "riemann_solver.solve",
                     lambda p=p: solve(p))
        up, down = fds["kk2"], fds["kk1"]
        p = RiemannProblem.from_densities(up, down, 50.0, 20.0)
        sol = solve(p)
        xi = np.linspace(-0.6, 0.6, 101)
        self.add("riemann_solver.sample_profile_ms", "ms", "riemann_solver.sample_profile",
                 lambda: sample_profile(p, xi, sol), scale=1e3)

    def _sim_probes(self, root, seed, fam):
        spec = ring_spec(fam)
        dx = RING_L / RING_CELLS
        n1 = round(spec.L1 / dx)
        ring = grid_from_segments([(spec.fd1, n1), (spec.fd2, RING_CELLS - n1)], dx,
                                  rho=initial_density(spec, 28.0, RING_AMPLITUDE))
        corridor = Corridor(root, seed, fam, None).grid
        cfg = StepConfig(RING_DT)
        for tag, grid in (("ring600", ring), ("corridor4800", corridor)):
            n = grid.n
            self.counts[f"godunov_sim.groups.{tag}"] = count_groups(grid.fds)
            self.add(f"godunov_sim.demand_supply_ns_per_cell.{tag}", "ns",
                     "godunov_sim.demand_supply",
                     lambda g=grid: g.demand_supply(), per=n, scale=1e9)
            self.add(f"godunov_sim.interface_fluxes_ns_per_cell.{tag}", "ns",
                     "godunov_sim.interface_fluxes",
                     lambda g=grid: interface_fluxes(g, cfg, 0.0), per=n, scale=1e9)
            self.add(f"godunov_sim.step_us.{tag}", "us", "godunov_sim.step",
                     lambda g=grid: step(g, cfg, 0.0))
            self.add(f"godunov_sim.run_ns_per_cell_step.{tag}", "ns", "godunov_sim.run",
                     lambda g=grid: run(g, cfg, _RUN_STEPS * cfg.dt, _RUN_STEPS),
                     per=n * _RUN_STEPS, scale=1e9)
        self.add("godunov_sim.flux_speed_ns_per_cell", "ns", "godunov_sim.flux_speed",
                 lambda: corridor.flux_speed(), per=corridor.n, scale=1e9)
        # A steady record holding the predicted profile: detection scans
        # every cell whatever the profile, and needs no 7500-step run.
        pred = predict(spec.with_vehicles(ring.total_vehicles()))
        final = pred.cell_densities(RING_CELLS, RING_L)
        rho = np.stack([ring.rho, final])
        q, v = ring.flux_speed(final)
        steady = SimRecord(ring.with_density(final), np.array([0.0, 1.0]), rho,
                           np.stack([v, v]), np.stack([q, q]), 0.0, 0.0,
                           np.array([0.0, 0.0]))
        self.add("godunov_sim.detect_interior_states_ms", "ms",
                 "godunov_sim.detect_interior_states",
                 lambda: detect_interior_states(steady), scale=1e3)

    def _ring_probes(self, fam):
        spec = ring_spec(fam)
        for tag, n in (("both_uc", 300.0), ("critical_with_ss", 858.3893),
                       ("both_soc", 2500.0)):
            s = spec.with_vehicles(n)
            self.add(f"ring_analysis.predict_us.{tag}", "us", "ring_analysis.predict",
                     lambda s=s: predict(s))
        self.add("ring_analysis.thresholds_us", "us", "ring_analysis.thresholds",
                 lambda: thresholds(spec))
        self.add("ring_analysis.vehicles_of_initial_us", "us",
                 "ring_analysis.vehicles_of_initial",
                 lambda: vehicles_of_initial(spec, 28.0, RING_AMPLITUDE))
        self.add("verify_cases.run_case_table_ms", "ms", "verify_cases.run_case_table",
                 run_case_table, scale=1e3)

    def _cli_probes(self, root):
        config_dir = root / "bench" / "configs"
        out_dir = root / "bench" / "out" / "cli_inproc"
        env = cli_env(root)
        texts = {k: (config_dir / f"{k}.yaml").read_text()
                 for k in ("riemann", "ring_predict", "simulate")}
        cfgs = {k: parse_config(t) for k, t in texts.items()}

        def quiet(fn, *args):
            with contextlib.redirect_stdout(io.StringIO()):
                code = fn(*args)
            if code != 0:
                raise RuntimeError(f"{fn.__name__} returned {code}")

        def import_sdlwr():
            subprocess.run([sys.executable, "-c", "import sdlwr"], env=env,
                           cwd=root, check=True)

        self.add("cli.import_s", "s", "cli.import", import_sdlwr, scale=1.0)
        self.add("cli.parse_config_ms", "ms", "cli.parse_config",
                 lambda: parse_config(texts["simulate"]), scale=1e3)
        self.add("cli.cmd_riemann_ms", "ms", "cli.cmd_riemann",
                 lambda: quiet(cmd_riemann, cfgs["riemann"], out_dir), scale=1e3)
        self.add("cli.cmd_ring_predict_ms", "ms", "cli.cmd_ring_predict",
                 lambda: quiet(cmd_ring_predict, cfgs["ring_predict"], out_dir), scale=1e3)
        self.add("cli.cmd_simulate_s", "s", "cli.cmd_simulate",
                 lambda: quiet(cmd_simulate, cfgs["simulate"], out_dir), scale=1.0)
        self.add("cli.cmd_verify_s", "s", "cli.cmd_verify",
                 lambda: quiet(cmd_verify, 0, 200), scale=1.0)

    def time_all(self):
        """Median time per unit of every probe, in its metric's unit."""
        out = {}
        for p in self.items:
            t0 = time.perf_counter()
            p.fn()
            first = time.perf_counter() - t0
            reps = max(1, int(_SAMPLE_S / max(first, 1e-9)))
            if reps == 1:  # a heavy probe: its first call is a full sample
                per_unit, more = [first / p.per], _HEAVY_SAMPLES - 1
            else:
                per_unit, more = [], _SAMPLES
            for _ in range(more):
                t0 = time.perf_counter()
                for _ in range(reps):
                    p.fn()
                per_unit.append((time.perf_counter() - t0) / (reps * p.per))
            out[p.metric] = (statistics.median(per_unit) * p.scale, p.unit)
        return out

    def sweep(self, tracer):
        """Call every probe once, each in its own op and span."""
        for p in self.items:
            with tracer.op("op.probe"), tracer.span(p.span):
                p.fn()
