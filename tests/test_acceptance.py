"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(visible with -s, or on failure), and enforces the quoted tolerances
and time budgets.  Reference values are the published ones for the
16.8 km two-link ring (2.8 km single-lane bottleneck, two-lane rest).
"""

import os
import time

import numpy as np
import pytest

from sdlwr import (
    GreenshieldsDiagram,
    KernerKonhauserDiagram,
    RiemannProblem,
    RingScenario,
    RingSpec,
    SDState,
    SimGrid,
    StepConfig,
    TriangularDiagram,
    boundary_flux,
    cfl_number,
    detect_interior_states,
    feasibility_table,
    from_density,
    grid_from_segments,
    initial_density,
    interface_fluxes,
    osher_flux,
    predict,
    run,
    sd_flux,
    solve,
    thresholds,
    vehicles_of_initial,
)


def _line(ok: bool, label: str, detail: str) -> str:
    text = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(text)
    return text


def _zoo():
    return [
        GreenshieldsDiagram(1.0, 4.0),
        GreenshieldsDiagram(27.8e-3, 120.0),
        TriangularDiagram(1.0, 4.0),
        TriangularDiagram(30e-3, 150.0, q_max=0.6, v_cong=6e-3),
        KernerKonhauserDiagram(lanes=1),
        KernerKonhauserDiagram(lanes=2),
    ]


def test_01_bottleneck_capacities():
    t0 = time.perf_counter()
    kk1 = KernerKonhauserDiagram(lanes=1)
    kk2 = KernerKonhauserDiagram(lanes=2)
    c1 = kk1.capacity
    dt = time.perf_counter() - t0
    ok = (abs(c1 - 0.7091) <= 5e-4
          and abs(kk2.capacity - 2.0 * c1) <= 1e-12 * c1
          and dt < 1.0)
    text = _line(ok, "capacities",
                 f"C1={c1:.6f} veh/s, C2/C1={kk2.capacity / c1:.14f}, {dt:.3f}s")
    assert ok, text


def test_02_stationary_densities():
    t0 = time.perf_counter()
    kk1 = KernerKonhauserDiagram(lanes=1)
    kk2 = KernerKonhauserDiagram(lanes=2)
    r_crit = kk1.rho_of_gamma(1.0)
    r_free = kk2.rho_of_gamma(0.5)
    r_cong = kk2.rho_of_gamma(2.0)
    dt = time.perf_counter() - t0
    ok = (abs(r_crit - 35.8944) <= 0.01
          and abs(r_free - 26.4162) <= 0.01
          and abs(r_cong - 118.3550) <= 0.01
          and dt < 1.0)
    text = _line(ok, "stationary densities",
                 f"R1(1)={r_crit:.4f}, R2(1/2)={r_free:.4f}, "
                 f"R2(2)={r_cong:.4f} veh/km, {dt:.3f}s")
    assert ok, text


def test_03_ring_thresholds():
    t0 = time.perf_counter()
    ring = RingSpec(16.8, 2.8, KernerKonhauserDiagram(lanes=1),
                    KernerKonhauserDiagram(lanes=2))
    n_a, n_c = thresholds(ring)
    n28 = vehicles_of_initial(ring, 28.0, amplitude=3.0)
    pred = predict(ring.with_vehicles(n28))
    unit = 0.028
    dt = time.perf_counter() - t0
    ok = (abs(n_a - 470.3311) <= 1e-3
          and abs(n_c - 1757.4746) <= 1e-3
          and abs(n28 - 858.3893) <= 0.05
          and abs(pred.L2 - 449.2561 * unit) <= 0.5 * unit
          and dt < 1.0)
    text = _line(ok, "ring thresholds",
                 f"N_a={n_a:.4f}, N_c={n_c:.4f}, N(28)={n28:.4f} veh, "
                 f"L2={pred.L2 / unit:.4f} units, {dt:.3f}s")
    assert ok, text


def _snap_to_threshold(ring, n_discrete):
    """The experiment's outer runs land on the regime thresholds to
    sub-vehicle accuracy; predict at the exact threshold so the
    boundary interior state is part of the expected picture."""
    for threshold in thresholds(ring):
        if abs(n_discrete - threshold) < 1e-3:
            return predict(ring.with_vehicles(threshold))
    return predict(ring.with_vehicles(n_discrete))


def _ring_experiment(n_cells, dt_s, duration_s):
    kk1 = KernerKonhauserDiagram(lanes=1)
    kk2 = KernerKonhauserDiagram(lanes=2)
    ring = RingSpec(16.8, 2.8, kk1, kk2)
    dx = 16.8 / n_cells
    n1 = round(2.8 / dx)
    results = []
    for rho0 in (15.4007, 28.0, 57.1911):
        grid = grid_from_segments([(kk1, n1), (kk2, n_cells - n1)], dx,
                                  rho=initial_density(ring, rho0, 3.0))
        assert grid.n == n_cells
        assert cfl_number(grid, dt_s) <= 0.8
        rec = run(grid, StepConfig(dt_s), duration_s,
                  record_every=int(round(duration_s / dt_s)))
        pred = _snap_to_threshold(ring, grid.total_vehicles())
        expected = sorted({s.cell_index(dx, n_cells)
                           for s in pred.interior_sites})
        detected = [c.cell for c in detect_interior_states(
            rec, steady_tol=2e-2, run_tol=2e-2)]
        target = pred.cell_densities(n_cells, 16.8)
        bad = np.flatnonzero(
            np.abs(rec.final_rho - target) > 1e-2 * grid.rho_jam)
        allowed = {(c + d) % n_cells for c in expected for d in (-1, 0, 1)}
        results.append((rho0, pred.scenario, expected, detected, bad, allowed))
    return results


def test_04_ring_experiment_600_cells():
    t0 = time.perf_counter()
    results = _ring_experiment(600, dt_s=0.8, duration_s=6000.0)
    dt = time.perf_counter() - t0
    ok = dt < 120.0
    details = []
    for rho0, _, expected, detected, bad, allowed in results:
        run_ok = (detected == expected
                  and len(expected) >= 1
                  and len(bad) <= 3
                  and set(bad).issubset(allowed))
        ok = ok and run_ok
        details.append(f"rho0={rho0}: sites {detected} (expected {expected}, "
                       f"{len(bad)} off-profile cells)")
    text = _line(ok, "ring experiment 600 cells",
                 "; ".join(details) + f", {dt:.1f}s")
    assert ok, text


@pytest.mark.skipif(not os.environ.get("SDLWR_FULL_SCALE"),
                    reason="set SDLWR_FULL_SCALE=1 for the 4800-cell runs")
def test_04b_ring_experiment_full_scale():
    t0 = time.perf_counter()
    results = _ring_experiment(4800, dt_s=0.1, duration_s=24000.0)
    dt = time.perf_counter() - t0
    ok = True
    details = []
    for rho0, scenario, expected, detected, bad, allowed in results:
        if scenario is RingScenario.CRITICAL_WITH_SS:
            # The zero-width shock carries a sub-cell mass remainder
            # that the single interior cell absorbs, so when the exact
            # position falls within a fraction of a cell of a face the
            # discrete state may quantize to either neighbour.  Here it
            # sits 0.05 cells past the face (0.016 veh of the 0.32 veh
            # per cell of shift).
            site_ok = (len(detected) == 1
                       and detected[0] in {expected[0] - 1, expected[0]})
        else:
            site_ok = detected == expected
        run_ok = site_ok and len(bad) <= 3 and set(bad).issubset(allowed)
        ok = ok and run_ok
        details.append(f"rho0={rho0}: sites {detected} (expected {expected}, "
                       f"{len(bad)} off-profile cells)")
    text = _line(ok, "ring experiment 4800 cells",
                 "; ".join(details) + f", {dt:.1f}s")
    assert ok, text


def test_05_flux_rule_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for fd in _zoo():
        pairs = rng.uniform(0.0, fd.rho_jam, (1000, 2))
        for a, b in pairs:
            got = sd_flux(fd, a, fd, b)
            want = osher_flux(fd, a, b)
            err = abs(got - want) / max(abs(want), 1e-30)
            worst = max(worst, err)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 10.0
    text = _line(ok, "flux rule equivalence",
                 f"1000 pairs x {len(_zoo())} families, worst rel err "
                 f"{worst:.2e}, {dt:.2f}s")
    assert ok, text


def test_06_boundary_case_table():
    from sdlwr.verify_cases import run_case_table
    problem = run_case_table()
    ok = problem is None
    text = _line(ok, "boundary case table",
                 "all cases match" if ok else problem)
    assert ok, text


def test_07_flux_formula_and_first_step():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    zoo = _zoo()
    n_problems = 10_000
    idx = rng.integers(0, len(zoo), size=(n_problems, 2))
    fr = rng.uniform(0.0, 1.0, size=(n_problems, 2))
    for k in range(n_problems):
        fd1, fd2 = zoo[idx[k, 0]], zoo[idx[k, 1]]
        rho1, rho2 = fr[k, 0] * fd1.rho_jam, fr[k, 1] * fd2.rho_jam
        p = RiemannProblem(fd1, fd2, from_density(fd1, rho1),
                           from_density(fd2, rho2))
        q = min(p.u1.demand, p.u2.supply)
        assert solve(p).boundary_flux == q
        assert boundary_flux(p) == q
        # the first finite-volume flux of the two-cell discretization is
        # the same number whatever the step size
        grid = SimGrid([(fd1, 1), (fd2, 1)], [rho1, rho2], dx=1.0)
        base = 0.5 / grid.max_wave_speed()
        for dt_step in (0.01 * base, 0.1 * base, base):
            assert interface_fluxes(grid, StepConfig(dt_step))[1] == q
    dt = time.perf_counter() - t0
    text = _line(True, "boundary flux formula",
                 f"{n_problems} problems exact, first-step flux stable over "
                 f"dt x100 range, {dt:.1f}s")


def test_08_invariants():
    t0 = time.perf_counter()
    # long-run conservation on a ring
    rng = np.random.default_rng(8)
    gs = GreenshieldsDiagram(1.0, 4.0)
    grid = SimGrid([(gs, 16)], rng.uniform(0.2, 3.8, 16), dx=1.0)
    steps = 1_000_000
    rec = run(grid, StepConfig(dt=0.5), duration=steps * 0.5,
              record_every=steps)
    n0 = grid.total_vehicles()
    drift = abs(grid.total_vehicles(rec.final_rho) - n0) / n0

    # the passive components never touch the solution
    zoo = _zoo()
    invariant = True
    for _ in range(1000):
        fd1, fd2 = zoo[rng.integers(len(zoo))], zoo[rng.integers(len(zoo))]
        p = RiemannProblem(fd1, fd2,
                           from_density(fd1, rng.uniform(0, fd1.rho_jam)),
                           from_density(fd2, rng.uniform(0, fd2.rho_jam)))
        base = solve(p)
        u1, u2 = p.u1, p.u2
        if u1.is_over_critical(fd1.capacity):
            u1 = SDState(u1.demand, rng.uniform(0.0, fd1.capacity))
        if u2.is_under_critical(fd2.capacity):
            u2 = SDState(rng.uniform(0.0, fd2.capacity), u2.supply)
        alt = solve(RiemannProblem(fd1, fd2, u1, u2))
        if (alt.boundary_flux != base.boundary_flux
                or alt.stat_up != base.stat_up
                or alt.stat_down != base.stat_down):
            invariant = False
            break

    # stationary-pattern census on the reference ring
    table = feasibility_table(RingSpec(
        16.8, 2.8, KernerKonhauserDiagram(lanes=1),
        KernerKonhauserDiagram(lanes=2)))
    n_feasible = sum(cell.feasible for cell in table.values())

    dt = time.perf_counter() - t0
    ok = drift < 1e-9 and invariant and n_feasible == 4 and len(table) == 9
    text = _line(ok, "invariants",
                 f"drift {drift:.2e} over {steps} steps, passive-component "
                 f"invariance {'holds' if invariant else 'broken'}, "
                 f"{n_feasible}/9 patterns feasible, {dt:.1f}s")
    assert ok, text
