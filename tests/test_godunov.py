"""Finite-volume simulator: fluxes, stepping, conservation, detection."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdlwr import (
    BoundarySpec,
    ConfigError,
    FundamentalDiagram,
    GreenshieldsDiagram,
    KernerKonhauserDiagram,
    RiemannProblem,
    SimGrid,
    SimulationDiverged,
    StepConfig,
    StepFunction,
    TriangularDiagram,
    boundary_flux,
    cfl_number,
    detect_interior_states,
    from_density,
    grid_from_segments,
    interface_fluxes,
    osher_flux,
    run,
    sd_flux,
    step,
)


# -- interface fluxes ----------------------------------------------------


def test_sd_flux_both_critical(gs):
    narrow = GreenshieldsDiagram(1.0, 3.0)  # capacity 0.75
    q = sd_flux(gs, gs.rho_crit, narrow, narrow.rho_crit)
    assert q == min(gs.capacity, narrow.capacity) == 0.75


def test_sd_flux_transonic_pair(gs):
    assert sd_flux(gs, 1.0, gs, 3.0) == pytest.approx(0.75, abs=1e-15)


def test_sd_flux_ring_bottleneck_boundary(kk1, kk2):
    """Two-lane link congested at the bottleneck flux feeding the
    single-lane link at critical density: the interface carries C1."""
    rho_left = kk2.rho_of_gamma(2.0)  # about 118.3550 veh/km
    rho_right = kk1.rho_crit
    assert rho_left == pytest.approx(118.3550, abs=0.01)
    q = sd_flux(kk2, rho_left, kk1, rho_right)
    assert q == pytest.approx(kk1.capacity, abs=1e-9)
    assert q == pytest.approx(0.7091, abs=5e-4)


def test_osher_examples(gs):
    assert osher_flux(gs, 1.7, 1.7) == gs.flux(1.7)
    assert osher_flux(gs, 1.0, 3.0) == pytest.approx(0.75, abs=1e-12)
    assert osher_flux(gs, 3.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_osher_equals_sd_flux(family_zoo):
    """Same-diagram interfaces: the two flux formulas agree to roundoff."""
    rng = np.random.default_rng(31)
    for fd in family_zoo:
        pairs = rng.uniform(0.0, fd.rho_jam, (300, 2))
        for rho_l, rho_r in pairs:
            a = sd_flux(fd, rho_l, fd, rho_r)
            b = osher_flux(fd, rho_l, rho_r)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15), (
                f"{fd}: ({rho_l}, {rho_r})"
            )


@pytest.mark.parametrize("rho_left, rho_right", [
    (math.nan, 10.0), (-5.0, 10.0), (10.0, math.inf), (-math.inf, 10.0),
    (10.0, 120.0 + 1e-6)])
def test_osher_refuses_densities_outside_range(family_zoo, rho_left, rho_right):
    """As ``fd.flux`` does: not a NaN, a negative flux or a numpy warning."""
    with pytest.raises(ValueError, match="density outside"):
        osher_flux(family_zoo[1], rho_left, rho_right)


def test_flux_rules_agree_on_homogeneous_ring(gs):
    """Every interface flux of the march, the wrap included, equals the
    osher oracle on the densities either side of it."""
    rng = np.random.default_rng(8)
    rho = rng.uniform(0.1, 3.9, 32)
    grid = grid_from_segments([(gs, 32)], dx=0.5, rho=rho)
    a = interface_fluxes(grid, StepConfig(dt=0.1))
    b = [osher_flux(gs, rho[i - 1], rho[i]) for i in range(grid.n)]
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


# -- stepping ------------------------------------------------------------


def test_step_uniform_critical_ring_is_fixed_point(gs):
    grid = grid_from_segments([(gs, 12)], dx=1.0, rho=gs.rho_crit)
    after = step(grid, StepConfig(dt=0.9))
    assert np.array_equal(after.rho, grid.rho)


def test_step_two_cell_hand_example(gs):
    """Wrap flux 1.0 into cell 0, interface flux 0.75 into cell 1: the
    half-second step moves an eighth of a vehicle per km each way."""
    grid = SimGrid([(gs, 2)], [1.0, 3.0], dx=1.0)
    after = step(grid, StepConfig(dt=0.5))
    assert after.rho == pytest.approx([1.125, 2.875], abs=1e-15)


def test_step_rejects_high_cfl(gs):
    grid = grid_from_segments([(gs, 8)], dx=1.0, rho=1.0)
    with pytest.raises(ConfigError, match="CFL"):
        step(grid, StepConfig(dt=0.96))
    # explicit override lets a deliberate CFL=0.96 run proceed
    step(grid, StepConfig(dt=0.96, allow_high_cfl=True))


def test_cfl_number_full_scale_grid(kk1, kk2):
    """dx=3.5 m and dt=0.1 s keep the full-scale experiment just under
    the 0.8 mark (the free-flow speed 27.83 m/s dominates)."""
    grid = grid_from_segments(
        [(kk1, 800), (kk2, 4000)], dx=0.0035, rho=28.0
    )
    nu = cfl_number(grid, 0.1)
    assert nu == pytest.approx(0.795, abs=0.005)
    assert nu <= 0.8


def test_density_bounds_hold_under_cfl(family_zoo):
    rng = np.random.default_rng(77)
    for fd in family_zoo:
        rho = rng.uniform(0.0, fd.rho_jam, 40)
        grid = grid_from_segments([(fd, 40)], dx=0.25, rho=rho)
        cfg = StepConfig(dt=0.9 * 0.25 / fd.max_wave_speed())
        for _ in range(50):
            grid = step(grid, cfg)
        slack = 1e-9 * fd.rho_jam
        assert np.all(grid.rho >= -slack)
        assert np.all(grid.rho <= fd.rho_jam + slack)


def test_mass_balance_open_road(gs):
    """Density change equals (inflow - outflow) * dt / length exactly."""
    bs = BoundarySpec(StepFunction((0.0,), (0.4,)), StepFunction((0.0,), (1.0,)))
    grid = grid_from_segments([(gs, 25)], dx=0.4, rho=0.8, boundaries=bs)
    cfg = StepConfig(dt=0.3)
    rec = run(grid, cfg, duration=60.0, record_every=10)
    gained = rec.inflow - rec.outflow
    assert grid.total_vehicles(rec.final_rho) - grid.total_vehicles() == (
        pytest.approx(gained, abs=1e-10)
    )


def test_open_road_relaxes_to_inflow_state(gs):
    """Constant demand 0.3 at the left edge drives the whole road to the
    free state carrying that flux."""
    bs = BoundarySpec(StepFunction((0.0,), (0.3,)), StepFunction((0.0,), (1.0,)))
    grid = grid_from_segments([(gs, 16)], dx=1.0, rho=0.5, boundaries=bs)
    rec = run(grid, StepConfig(dt=0.5), duration=400.0, record_every=100)
    assert np.allclose(rec.final_rho, gs.inv_demand(0.3), atol=1e-6)


def test_time_varying_boundary_steps(gs):
    """A demand step at t=30 s shows up in the recorded inflow."""
    demand = StepFunction((0.0, 30.0), (0.2, 0.6))
    bs = BoundarySpec(demand, StepFunction((0.0,), (1.0,)))
    grid = grid_from_segments([(gs, 10)], dx=1.0, rho=gs.inv_demand(0.2), boundaries=bs)
    rec = run(grid, StepConfig(dt=0.5), duration=60.0, record_every=20)
    # first 60 half-steps at 0.2, next 60 at 0.6
    assert rec.inflow == pytest.approx(30.0 * 0.2 + 30.0 * 0.6, abs=1e-9)


# -- run records ---------------------------------------------------------


def test_run_zero_duration_snapshot_only(gs):
    grid = grid_from_segments([(gs, 6)], dx=1.0, rho=1.3)
    rec = run(grid, StepConfig(dt=0.5), duration=0.0)
    assert rec.times.tolist() == [0.0]
    assert rec.rho.shape == (1, 6)


def test_run_uniform_ring_identical_snapshots(gs):
    grid = grid_from_segments([(gs, 9)], dx=1.0, rho=0.7)
    rec = run(grid, StepConfig(dt=0.5), duration=20.0, record_every=8)
    assert np.all(rec.rho == 0.7)
    assert rec.convergence_metric == 0.0
    assert rec.converged


def test_ring_conservation(gs):
    rng = np.random.default_rng(3)
    grid = grid_from_segments([(gs, 24)], dx=0.5, rho=rng.uniform(0.2, 3.8, 24))
    n0 = grid.total_vehicles()
    rec = run(grid, StepConfig(dt=0.4), duration=8000.0, record_every=5000)
    drift = abs(grid.total_vehicles(rec.final_rho) - n0) / n0
    assert drift < 1e-9, f"relative drift {drift:.2e} over 20000 steps"
    # the ledger form absorbs the cumulative in/outflow (~5600 veh) into
    # the balance, so it only resolves drift down to its ulp
    assert rec.conservation_drift() < 1e-12


def test_doubling_dx_and_dt_keeps_the_records(kk1, kk2):
    """The march reads dx and dt only through their ratio, so doubling
    both on the KK1 | KK2 reference ring, from random densities, gives
    the same rho, q and v records, bit for bit."""
    rng = np.random.default_rng(29)
    segments = [(kk1, 100), (kk2, 500)]
    rho = np.concatenate([rng.uniform(0.0, kk1.rho_jam, 100),
                          rng.uniform(0.0, kk2.rho_jam, 500)])
    a, b = (run(SimGrid(segments, rho, dx), StepConfig(dt), 40 * dt, record_every=10)
            for dx, dt in ((0.028, 0.8), (0.056, 1.6)))
    for x, y in ((a.rho, b.rho), (a.q, b.q), (a.v, b.v)):
        assert np.array_equal(_bits(x), _bits(y))


def test_rotated_ring_start_rotates_its_end():
    """Every cell of a homogeneous ring is marched alike: a Greenshields
    ring started rotated by k cells ends rotated by k cells, bit for
    bit, at every record."""
    rng = np.random.default_rng(29)
    fd = GreenshieldsDiagram(27.8e-3, 120.0)
    rho = rng.uniform(0.0, fd.rho_jam, 600)
    cfg = StepConfig(0.8)
    rec = run(grid_from_segments([(fd, 600)], dx=0.028, rho=rho), cfg, 160.0,
              record_every=50)
    for k in (1, 37, 239):
        rotated = run(grid_from_segments([(fd, 600)], dx=0.028, rho=np.roll(rho, k)),
                      cfg, 160.0, record_every=50)
        assert np.array_equal(_bits(rotated.rho), _bits(np.roll(rec.rho, k, axis=1)))


def _mirror_pair(mirror, segments, seed, boundaries=None):
    """Records of 2000 steps of a road from seeded random densities and of
    its mirror image: the cells reversed, each on its mirrored diagram, at
    rho_jam - rho, with the boundary data swapped (the inflow demand is
    the original's outflow supply, and the other way round).  Also the
    per-cell jam densities of the original."""
    rng = np.random.default_rng(seed)
    rho = np.concatenate([rng.uniform(0.0, fd.rho_jam, n) for fd, n in segments])
    jam = np.repeat([fd.rho_jam for fd, _ in segments], [n for _, n in segments])
    swapped = boundaries and BoundarySpec(boundaries.right_supply, boundaries.left_demand)
    cfg = StepConfig(0.8)
    return (run(SimGrid(segments, rho, 0.028, boundaries), cfg, 1600.0, record_every=200),
            run(SimGrid([(mirror(fd), n) for fd, n in reversed(segments)],
                        (jam - rho)[::-1], 0.028, swapped), cfg, 1600.0, record_every=200),
            jam)


def _mirror_gap(rec, mirrored, jam):
    """The largest gap, in each cell's rho_jam, between a record and the
    mirror image of its mirror's."""
    return np.max(np.abs(jam - mirrored.rho[:, ::-1] - rec.rho) / jam)


@pytest.mark.parametrize("name, tol", [("kk", 2e-14), ("gs_triangle", 5e-9)])
def test_ring_march_is_mirror_symmetric(mirror, name, tol):
    """rho(x, t) -> rho_jam - rho(-x, t) on the mirrored diagram maps a
    ring's march onto its mirror's: each interface flux min(D, S) is the
    same with demand and supply swapped.  Worst over 20 seeds: 5.1e-15
    rho_jam on the KK1 | KK2 ring, whose mirror takes the generic
    ``flux_curve`` path, and 1.2e-9 rho_jam on a Greenshields | triangle
    ring, set by the mirrored triangle's capacity, which golden-section
    search puts 2.8e-11 veh/s below the triangle's."""
    segments = {
        "kk": [(KernerKonhauserDiagram(lanes=1), 100), (KernerKonhauserDiagram(lanes=2), 500)],
        "gs_triangle": [(GreenshieldsDiagram(27.8e-3, 120.0), 50),
                        (TriangularDiagram(30e-3, 150.0, v_cong=6e-3), 70)],
    }[name]
    rec, mirrored, jam = _mirror_pair(mirror, segments, 7)
    assert _mirror_gap(rec, mirrored, jam) <= tol


def test_open_march_is_mirror_symmetric(mirror):
    """The mirror of an open Greenshields | KK1 | triangle road under
    stepped boundary schedules takes the swapped schedules, and inflow and
    outflow swap with them.  Worst over 20 seeds: 6.9e-12 rho_jam and
    3.0e-12 veh."""
    rng = np.random.default_rng(7)
    fds = [GreenshieldsDiagram(27.8e-3, 120.0), KernerKonhauserDiagram(lanes=1),
           TriangularDiagram(30e-3, 150.0, v_cong=6e-3)]
    left, right = (StepFunction((0.0, 480.0, 960.0),
                                tuple(rng.uniform(0.0, fd.capacity, 3).tolist()))
                   for fd in (fds[0], fds[-1]))
    rec, mirrored, jam = _mirror_pair(mirror, [(fd, 40) for fd in fds], 7,
                                      BoundarySpec(left, right))
    assert _mirror_gap(rec, mirrored, jam) <= 5e-11
    assert mirrored.inflow == pytest.approx(rec.outflow, abs=1e-11)
    assert mirrored.outflow == pytest.approx(rec.inflow, abs=1e-11)


# -- first-step consistency with the boundary Riemann solution -----------


@settings(max_examples=120, deadline=None)
@given(
    f1=st.floats(min_value=0.01, max_value=0.99),
    f2=st.floats(min_value=0.01, max_value=0.99),
    dt_exp=st.floats(min_value=0.0, max_value=2.0),
)
def test_first_flux_matches_riemann_any_dt(family_zoo, f1, f2, dt_exp):
    """The first interface flux of a two-cell initialization equals the
    Riemann boundary flux whatever the time step (it never enters the
    formula)."""
    fd_up, fd_down = family_zoo[0], family_zoo[4]
    rho1, rho2 = f1 * fd_up.rho_jam, f2 * fd_down.rho_jam
    p = RiemannProblem(
        fd_up, fd_down, from_density(fd_up, rho1), from_density(fd_down, rho2)
    )
    bs = BoundarySpec(
        StepFunction((0.0,), (p.u1.demand,)), StepFunction((0.0,), (p.u2.supply,))
    )
    grid = grid_from_segments(
        [(fd_up, 1), (fd_down, 1)], dx=100.0, rho=np.array([rho1, rho2]), boundaries=bs
    )
    base_dt = 0.1 * 100.0 / grid.max_wave_speed()
    q_ref = boundary_flux(p)
    for dt in (base_dt * 10.0**-dt_exp, base_dt):
        fluxes = interface_fluxes(grid, StepConfig(dt=dt))
        assert fluxes[1] == q_ref


# -- interior-state detection ---------------------------------------------


def _settled_record(gs, rho):
    grid = grid_from_segments([(gs, len(rho))], dx=1.0, rho=np.asarray(rho))
    return run(grid, StepConfig(dt=0.5), duration=0.0)


def test_detect_uniform_ring_empty(gs):
    rec = _settled_record(gs, np.full(16, 1.2))
    assert detect_interior_states(rec) == []


def test_detect_single_cell_spike(gs):
    rho = np.full(16, 1.0)
    rho[5] = 2.2
    cells = detect_interior_states(_settled_record(gs, rho))
    assert len(cells) == 1
    assert cells[0].cell == 5
    assert cells[0].density == 2.2
    assert cells[0].flux == pytest.approx(gs.flux(2.2), abs=1e-12)


def test_detect_requires_uniform_flanks(gs):
    # a two-cell plateau is a structure, not an interior state
    rho = np.full(16, 1.0)
    rho[5] = rho[6] = 2.2
    assert detect_interior_states(_settled_record(gs, rho)) == []
    # a sloped flank disqualifies the candidate
    rho = np.full(16, 1.0)
    rho[5] = 2.2
    rho[7] = 1.1
    assert detect_interior_states(_settled_record(gs, rho)) == []


def test_detect_rejects_moving_record(gs):
    rng = np.random.default_rng(2)
    grid = grid_from_segments([(gs, 16)], dx=1.0, rho=rng.uniform(0.5, 3.5, 16))
    rec = run(grid, StepConfig(dt=0.5), duration=5.0, record_every=5)
    with pytest.raises(ValueError, match="not steady"):
        detect_interior_states(rec)


@pytest.mark.parametrize("value", [math.nan, -1.0])
@pytest.mark.parametrize("name", ["steady_tol", "run_tol"])
def test_detect_refuses_bad_tolerances(gs, name, value):
    """A NaN tolerance would pass every record as steady and no flank as
    uniform, and a negative one nothing: each is refused, even on a
    settled record."""
    rho = np.full(16, 1.0)
    rho[5] = 2.2
    rec = _settled_record(gs, rho)
    with pytest.raises(ValueError, match="must be nonnegative"):
        detect_interior_states(rec, **{name: value})


@pytest.mark.parametrize("jump, cells", [(0.3, []), (0.7, [5])])
def test_detect_jump_threshold(gs, jump, cells):
    """A settled one-cell spike counts from a 0.5 veh/km jump on."""
    rho = np.full(16, 1.0)
    rho[5] += jump
    assert [c.cell for c in detect_interior_states(_settled_record(gs, rho))] == cells


def test_detect_refuses_a_record_that_moved_1e_8(gs):
    """By default a record is steady only once its last step moved every
    cell by less than 1e-10 veh/km."""
    rec = _settled_record(gs, np.full(16, 1.2))
    for delta, steady in ((1e-8, False), (1e-11, True)):
        moved = dataclasses.replace(rec, max_delta=np.array([delta]))
        assert moved.converged is steady
        if steady:
            assert detect_interior_states(moved) == []
        else:
            with pytest.raises(ValueError, match="not steady"):
                detect_interior_states(moved)


def test_detect_open_road_reaches_its_fourth_cells(gs):
    """On an open road only the three cells at either end lack a
    neighbourhood: states at cell 3 and at cell n-4 are found."""
    n = 16
    rho = np.full(n, 1.0)
    rho[3] = rho[n - 4] = 2.2
    bs = BoundarySpec(StepFunction((0.0,), (0.75,)), StepFunction((0.0,), (1.0,)))
    grid = grid_from_segments([(gs, n)], dx=1.0, rho=rho, boundaries=bs)
    rec = run(grid, StepConfig(dt=0.5), duration=0.0)
    assert [c.cell for c in detect_interior_states(rec)] == [3, n - 4]


def test_detect_wraps_around_ring(gs):
    rho = np.full(16, 1.0)
    rho[0] = 2.0
    cells = detect_interior_states(_settled_record(gs, rho))
    assert [c.cell for c in cells] == [0]


# -- grid construction ----------------------------------------------------


def test_grid_from_segments_layout(gs, kk1):
    grid = grid_from_segments([(gs, 3), (kk1, 2)], dx=0.5, rho=lambda x: 1.5 * x)
    assert grid.n == 5
    assert grid.is_ring
    assert grid.x_centers.tolist() == [0.25, 0.75, 1.25, 1.75, 2.25]
    assert grid.rho == pytest.approx(1.5 * grid.x_centers)
    assert grid.total_vehicles() == pytest.approx(np.sum(grid.rho) * 0.5)


def test_grid_requires_two_cells(gs):
    with pytest.raises(ConfigError, match="at least 2 cells"):
        grid_from_segments([(gs, 1)], dx=1.0, rho=1.0)
    with pytest.raises(ConfigError, match="at least 2 cells"):
        SimGrid([], [], dx=1.0)
    for count in (0, -1):
        with pytest.raises(ConfigError, match="at least one cell"):
            SimGrid([(gs, count), (gs, 2)], [1.0, 1.0], dx=1.0)
    with pytest.raises(ConfigError, match="integer count"):
        SimGrid([(gs, 2.5)], [1.0, 1.0], dx=1.0)
    with pytest.raises(ConfigError, match="one density per cell"):
        SimGrid([(gs, 2), (gs, np.int64(1))], [1.0, 1.0], dx=1.0)


def test_grid_refuses_densities_of_another_shape(gs):
    """Only a 0-d density is broadcast over the cells; an array of any
    other shape than one density per cell is refused, by its shape."""
    segments = [(gs, 10), (gs, 10)]
    for rho in (np.ones(19), np.ones((2, 10)), np.ones((1, 20)), [1.0]):
        shape = re.escape(str(np.shape(rho)))
        with pytest.raises(ConfigError, match=f"20 cells / densities of shape {shape}"):
            grid_from_segments(segments, 0.5, rho)
        with pytest.raises(ConfigError, match=f"20 cells / densities of shape {shape}"):
            SimGrid(segments, rho, dx=0.5)
    assert np.all(grid_from_segments(segments, 0.5, np.array(1.0)).rho == 1.0)


# -- the per-cell parameter table ----------------------------------------


class _DampedKK(KernerKonhauserDiagram):
    """A user subclass with its own flux: the grid must evaluate it
    through its methods, not through the Kerner-Konhauser table form."""

    def flux_curve(self, rho):
        return 0.9 * super().flux_curve(rho)


class _Cubic(FundamentalDiagram):
    """A user family subclassing ``FundamentalDiagram`` directly:
    Q = v_free * rho * (1 - rho/rho_jam) * (1 - rho/(2 rho_jam))."""

    def __init__(self, v_free, rho_jam):
        self.v_free, self.rho_jam = v_free, rho_jam
        super().__init__()

    def flux_curve(self, rho):
        x = rho / self.rho_jam
        return self.v_free * rho * (1.0 - x) * (1.0 - 0.5 * x)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _mixed_road(family_zoo, seed, n=48, fill=1.0):
    """(diagram, count) runs of 1 to 5 cells, n cells in all, drawn from the
    three families, a triangle and a trapezoid drawn from ``seed``, and
    the two user families, so that one diagram object recurs in runs far
    apart; with densities at 0, a tiny value, rho_crit, fill*rho_jam and
    in between."""
    rng = np.random.default_rng(seed)
    v_free, v_cong = rng.uniform(0.005, 0.05, 2)
    rho_jam = rng.uniform(20.0, 200.0)
    apex_flux = v_free * v_cong * rho_jam / (v_free + v_cong)
    zoo = list(family_zoo) + [
        _DampedKK(lanes=1), _Cubic(rng.uniform(0.01, 0.04), rho_jam),
        TriangularDiagram(v_free, rho_jam, v_cong=v_cong),
        TriangularDiagram(v_free, rho_jam, rng.uniform(0.3, 0.95) * apex_flux,
                          v_cong)]
    segments, cells = [], 0
    while cells < n:
        fd = zoo[rng.integers(len(zoo))]
        count = min(int(rng.integers(1, 6)), n - cells)
        segments.append((fd, count))
        cells += count
    special = rng.integers(0, 8, n)
    rho = np.array([
        (0.0, 1e-13 * fd.rho_jam, fd.rho_crit, fill * fd.rho_jam)[k] if k < 4
        else rng.uniform(0.0, fill * fd.rho_jam)
        for fd, k in zip((fd for fd, count in segments for _ in range(count)),
                         special)
    ])
    return segments, rho


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_table_matches_diagram_methods(family_zoo, seed):
    grid = SimGrid(*_mixed_road(family_zoo, seed), dx=0.5)
    cells = list(zip(grid.fds, grid.rho))
    d, s = grid.demand_supply()
    assert np.array_equal(_bits(d), _bits([fd.demand(r) for fd, r in cells]))
    assert np.array_equal(_bits(s), _bits([fd.supply(r) for fd, r in cells]))
    q, v = grid.flux_speed()
    assert np.array_equal(_bits(q), _bits([fd.flux(r) for fd, r in cells]))
    assert np.array_equal(_bits(v), _bits([fd.speed(r) for fd, r in cells]))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ring=st.booleans())
def test_run_equals_repeated_step(family_zoo, seed, ring):
    # below jam: Kerner-Konhauser cells at rho_jam still accept ~1e-8 veh/s
    segments, rho = _mixed_road(family_zoo, seed, n=24, fill=0.9)
    cfg = StepConfig(dt=0.9 * 0.5 / max(fd.max_wave_speed() for fd, _ in segments))
    bs = None
    if not ring:
        cap = min(segments[0][0].capacity, segments[-1][0].capacity)
        bs = BoundarySpec(StepFunction((0.0, 4 * cfg.dt), (0.0, 0.9 * cap)),
                          StepFunction((0.0, 7 * cfg.dt), (cap, 0.2 * cap)))
    grid = SimGrid(segments, rho, dx=0.5, boundaries=bs)
    k = 12
    rec = run(grid, cfg, k * cfg.dt)
    g = grid
    for j in range(k):
        g = step(g, cfg, j * cfg.dt)
        assert np.array_equal(_bits(g.rho), _bits(rec.rho[j + 1]))


def _one_family_road(fds, seed, n=24):
    """Runs of 1 to 5 cells cycling through ``fds``, diagrams that share
    one table part, with seeded densities below 0.9 rho_jam."""
    rng = np.random.default_rng(seed)
    segments, cells = [], 0
    while cells < n:
        count = min(int(rng.integers(1, 6)), n - cells)
        segments.append((fds[len(segments) % len(fds)], count))
        cells += count
    rho = np.concatenate([rng.uniform(0.0, 0.9 * fd.rho_jam, count)
                          for fd, count in segments])
    return segments, rho


def _reference_march(segments, rho, dx, dt, n_steps, boundaries):
    """The march cell by cell in Python floats: each interface flux by
    ``sd_flux``, the boundary ones from the schedules and the end cells'
    supply and demand, then rho - (f_out - f_in) * dt/dx.  Returns every
    state, the inflow and the outflow."""
    fds = [fd for fd, count in segments for _ in range(count)]
    rho = rho.tolist()
    n, r = len(rho), dt / dx
    states, inflow, outflow = [rho], 0.0, 0.0
    for j in range(n_steps):
        t = j * dt
        # f[i] crosses into cell i; f[0] wraps from the last cell on a ring
        f = [sd_flux(fds[i - 1], rho[i - 1], fds[i], rho[i]) for i in range(n)]
        if boundaries is None:
            f.append(f[0])
        else:
            f[0] = min(boundaries.left_demand(t), fds[0].supply(rho[0]))
            f.append(min(fds[-1].demand(rho[-1]), boundaries.right_supply(t)))
        rho = [rho[i] - (f[i + 1] - f[i]) * r for i in range(n)]
        inflow += f[0] * dt
        outflow += f[-1] * dt
        states.append(rho)
    return np.array(states), inflow, outflow


_KK_MEMBERS = (KernerKonhauserDiagram(lanes=1), KernerKonhauserDiagram(lanes=2),
               KernerKonhauserDiagram(lanes=1.5, rho_jam_lane=150.0, tau=3.0,
                                      unit_len=0.02))


def _drift_road(family_zoo):
    """Four parts, a ``_Cubic`` among them, with one cell half
    DENSITY_SLACK below 0 in an empty stretch and one half of it above
    jam in a jammed Kerner-Konhauser block, whose Q(rho_jam) > 0, so
    that the drift outlasts the first steps."""
    gs, trapezoid, kk = family_zoo[1], family_zoo[3], family_zoo[4]
    cubic = _Cubic(0.02, 100.0)
    segments = [(gs, 6), (kk, 10), (cubic, 4), (trapezoid, 4)]
    rho = np.concatenate([np.zeros(6), np.full(10, kk.rho_jam),
                          np.full(4, 0.1 * cubic.rho_jam), np.zeros(4)])
    rho[2], rho[9] = -0.5 * _SLACK, kk.rho_jam + 0.5 * _SLACK
    return segments, rho


# Its Q(rho_crit), 0.5171306990881459 veh/s, is one ulp below its
# ``capacity``: a march that took Q(rho_crit) from ``capacity`` would
# move the flux out of a congested cell into a free one by that ulp.
_ULP_TRIANGLE = TriangularDiagram(27.8e-3, 120.0, v_cong=5.1e-3)


def _critical_road(family_zoo):
    """Every family and both user classes, the one-ulp triangle among
    them, in runs of 2 to 4 cells: the first cell of each run congested,
    the second at exactly rho_crit, so that Q(rho_crit) is the flux
    between them, and the others on either side of rho_crit."""
    rng = np.random.default_rng(23)
    fds = [*family_zoo, _DampedKK(lanes=1), _Cubic(0.02, 100.0), _ULP_TRIANGLE]
    segments = [(fd, int(rng.integers(2, 5))) for fd in fds]
    rho = []
    for fd, count in segments:
        run_rho = rng.uniform(0.0, 0.9 * fd.rho_jam, count)
        run_rho[0] = rng.uniform(fd.rho_crit, 0.9 * fd.rho_jam)
        run_rho[1] = fd.rho_crit
        rho.extend(run_rho)
    return segments, np.array(rho)


def _ulp_road(family_zoo):
    """Two runs of the one-ulp triangle, its cells alternately congested
    and free, in one part with a trapezoid, and a Greenshields run
    between them: the part-major order is not the road's."""
    tri, gs, trapezoid = _ULP_TRIANGLE, family_zoo[1], family_zoo[3]
    segments = [(tri, 6), (gs, 4), (tri, 6), (trapezoid, 4)]
    alternate = tri.rho_crit * np.array([1.5, 0.5, 1.2, 0.8, 1.0, 0.3])
    rho = np.concatenate([alternate, np.full(4, 0.6 * gs.rho_jam), alternate[::-1],
                          np.full(4, 0.2 * trapezoid.rho_jam)])
    return segments, rho


@pytest.mark.parametrize("ring", [True, False])
@pytest.mark.parametrize("road", ["mixed6", "mixed12", "mixed13", "drift", "kk",
                                  "gs", "triangular", "cubic", "critical", "ulp"])
def test_run_equals_scalar_reference_march(family_zoo, road, ring):
    """``run`` equals the scalar reference march bit for bit, states and
    ledger, on roads of many parts (every family, ``_DampedKK`` and
    ``_Cubic`` among them), on a road whose state drifts within
    DENSITY_SLACK beyond [0, rho_jam], and on roads of one part, which
    the march's own demand|supply array serves directly: several
    Kerner-Konhauser diagrams, two Greenshields, a triangle and a
    trapezoid, or a lone ``_Cubic``, whose ``flux_curve`` takes no
    ``out``.  The flux and speed of every snapshot, recorded at every
    step or every seventh, and ``detect_interior_states``' flux equal
    the diagram methods cell by cell."""
    if road.startswith("mixed"):
        segments, rho = _mixed_road(family_zoo, int(road[5:]), n=24, fill=0.9)
        assert {_DampedKK, _Cubic} <= {type(fd) for fd, _ in segments}
    elif road == "drift":
        segments, rho = _drift_road(family_zoo)
    elif road in ("critical", "ulp"):
        segments, rho = {"critical": _critical_road, "ulp": _ulp_road}[road](family_zoo)
    else:
        fds = {"kk": _KK_MEMBERS, "gs": family_zoo[:2], "triangular": family_zoo[2:4],
               "cubic": (_Cubic(0.02, 100.0),)}[road]
        segments, rho = _one_family_road(fds, seed=len(road))
    dx, k = 0.5, 30
    dt = 0.9 * dx / max(fd.max_wave_speed() for fd, _ in segments)
    bs = None
    if not ring:
        cap = min(segments[0][0].capacity, segments[-1][0].capacity)
        bs = BoundarySpec(StepFunction((0.0, 4 * dt), (0.0, 0.9 * cap)),
                          StepFunction((0.0, 7 * dt), (cap, 0.2 * cap)))
    jam = np.repeat([fd.rho_jam for fd, _ in segments], [c for _, c in segments])
    grid = SimGrid(segments, np.clip(rho, 0.0, jam), dx=dx,
                   boundaries=bs).with_density(rho)
    assert (len(grid._parts) == 1) is (road in ("kk", "gs", "triangular", "cubic"))
    rec = run(grid, StepConfig(dt), k * dt)
    states, inflow, outflow = _reference_march(segments, rho, dx, dt, k, bs)
    assert np.array_equal(_bits(rec.rho), _bits(states))
    assert (rec.inflow, rec.outflow) == (inflow, outflow)
    if road == "drift":  # still beyond [0, rho_jam] after some steps
        assert (rec.rho[3] < 0).any() and (rec.rho[3] > jam).any()
    # every snapshot's flux and speed, and each detected state's flux,
    # are the cell's own diagram's
    fds = grid.fds
    for method, table in (("flux", rec.q), ("speed", rec.v)):
        cells = [[getattr(fd, method)(r) for fd, r in zip(fds, row)] for row in rec.rho]
        assert np.array_equal(_bits(table), _bits(cells)), method
    sparse = run(grid, StepConfig(dt), k * dt, record_every=7)
    rows = [0, 7, 14, 21, 28, 30]
    assert np.array_equal(sparse.times, rec.times[rows])
    for name in ("rho", "q", "v", "max_delta"):
        assert np.array_equal(_bits(getattr(sparse, name)),
                              _bits(getattr(rec, name)[rows])), name
    found = detect_interior_states(rec, steady_tol=math.inf, run_tol=math.inf)
    assert found or not road.startswith("mixed")
    assert _bits([c.flux for c in found]).tolist() == _bits(
        [fds[c.cell].flux(c.density) for c in found]).tolist()


_LAYOUT_USERS = (_Cubic(0.02, 100.0), _DampedKK(lanes=1))


def _layout_jam(fd):
    """The jam draw of a cell: rho_jam where Q(rho_jam) = 0.  A
    Kerner-Konhauser cell at rho_jam still takes ~1e-8 veh/s that a
    jammed neighbour of zero supply does not take on, which drifts it
    beyond DENSITY_SLACK within one step, so it is drawn at 0.99 rho_jam."""
    return fd.rho_jam if fd.flux(fd.rho_jam) == 0.0 else 0.99 * fd.rho_jam


@settings(max_examples=100, deadline=None)
@given(data=st.data(), ring=st.booleans())
def test_march_layout_equals_reference_march(family_zoo, data, ring):
    """Any layout of 2 to 4 parts, ``_Cubic`` (no table form) among the
    candidates, in runs of 1 to 4 cells, with densities at 0, rho_crit,
    jam or uniform: five steps of ``run`` equal the scalar reference
    march bit for bit, states, ledger and recorded flux."""
    pool = [family_zoo[:2], (*family_zoo[2:4], _ULP_TRIANGLE), family_zoo[4:],
            _LAYOUT_USERS[:1], _LAYOUT_USERS[1:]]
    keys = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=4,
                              unique=True))
    runs = data.draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(0, 2),
                                        st.integers(1, 4)), max_size=6))
    runs += [(key, 0, 1) for key in keys if key not in {k for k, _, _ in runs}]
    runs = data.draw(st.permutations(runs))
    segments = [(pool[k][member % len(pool[k])], count) for k, member, count in runs]
    fds = [fd for fd, count in segments for _ in range(count)]
    draws = data.draw(st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 1.0)),
                               min_size=len(fds), max_size=len(fds)))
    rho = np.array([(0.0, fd.rho_crit, _layout_jam(fd), u * _layout_jam(fd))[kind]
                    for fd, (kind, u) in zip(fds, draws)])
    dx, k = 0.5, 5
    dt = 0.9 * dx / max(fd.max_wave_speed() for fd, _ in segments)
    bs = None
    if not ring:
        cap = min(segments[0][0].capacity, segments[-1][0].capacity)
        bs = BoundarySpec(StepFunction((0.0, 2 * dt), (0.0, 0.9 * cap)),
                          StepFunction((0.0, 3 * dt), (cap, 0.2 * cap)))
    grid = SimGrid(segments, rho, dx=dx, boundaries=bs)
    assert len(grid._parts) == len(keys)
    rec = run(grid, StepConfig(dt), k * dt)
    states, inflow, outflow = _reference_march(segments, rho, dx, dt, k, bs)
    assert np.array_equal(_bits(rec.rho), _bits(states))
    assert (rec.inflow, rec.outflow) == (inflow, outflow)
    cells = [[fd.flux(r) for fd, r in zip(fds, row)] for row in rec.rho]
    assert np.array_equal(_bits(rec.q), _bits(cells))


# -- input checks at the kernel's entry points ------------------------------

_NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=30, deadline=None)
@given(cell=st.integers(0, 7),
       bad=_NONFINITE | st.floats(max_value=0.0, exclude_max=True)
       | st.floats(min_value=4.0, exclude_min=True))
def test_grid_rejects_densities_outside_range(gs, cell, bad):
    """One range rule, the CLI's: the way a density breaks it (a NaN is not
    "below 0"), how many cells do and the first, never the whole list."""
    rho = np.full(8, 1.0)
    rho[cell] = bad
    what = ("is NaN" if math.isnan(bad) else "dips below 0" if bad < 0
            else "exceeds rho_jam")
    with pytest.raises(ConfigError) as info:
        SimGrid([(gs, 8)], rho, dx=1.0)
    assert str(info.value) == f"initial density {what} in 1 of 8 cells, the first cell {cell}"


@settings(max_examples=20, deadline=None)
@given(dx=_NONFINITE | st.floats(max_value=0.0))
def test_grid_rejects_bad_dx(gs, dx):
    with pytest.raises(ConfigError, match="dx must be"):
        SimGrid([(gs, 4)], np.ones(4), dx=dx)


@settings(max_examples=20, deadline=None)
@given(dt=_NONFINITE | st.floats(max_value=0.0))
def test_step_config_rejects_bad_dt(dt):
    with pytest.raises(ConfigError, match="dt must be"):
        StepConfig(dt)


@settings(max_examples=20, deadline=None)
@given(duration=_NONFINITE | st.floats(max_value=0.0, exclude_max=True))
def test_run_rejects_bad_duration(gs, duration):
    grid = grid_from_segments([(gs, 4)], dx=1.0, rho=1.0)
    with pytest.raises(ConfigError, match="duration must be"):
        run(grid, StepConfig(0.5), duration)


@pytest.mark.parametrize("record_every", [1.5, 2.0, "3", None, True, False])
def test_run_rejects_non_integer_record_every(gs, record_every):
    """A float is not taken as a modulus (1.5 at dt 0.5 recorded every
    third step), nor a bool as a count, as the CLI refuses one; numpy
    integers pass as integers do."""
    grid = grid_from_segments([(gs, 4)], dx=1.0, rho=1.0)
    with pytest.raises(ConfigError, match="record_every must be an integer"):
        run(grid, StepConfig(0.5), 5.0, record_every)
    rec = run(grid, StepConfig(0.5), 5.0, np.int64(3))
    assert rec.times.tolist() == [0.0, 1.5, 3.0, 4.5, 5.0]


@pytest.mark.parametrize("record_every", [0, -3])
def test_run_rejects_record_every_below_one(gs, record_every):
    grid = grid_from_segments([(gs, 4)], dx=1.0, rho=1.0)
    with pytest.raises(ConfigError, match="record_every must be >= 1"):
        run(grid, StepConfig(0.5), 5.0, record_every)


@settings(max_examples=20, deadline=None)
@given(bad=_NONFINITE | st.floats(max_value=0.0, exclude_max=True))
def test_boundary_rejects_bad_values(gs, bad):
    """Every breakpoint is checked once, when the grid is built."""
    bs = BoundarySpec(StepFunction((0.0, 1.0), (0.5, bad)),
                      StepFunction((0.0,), (1.0,)))
    with pytest.raises(ConfigError, match="left demand"):
        grid_from_segments([(gs, 4)], dx=1.0, rho=1.0, boundaries=bs)
    # a plain callable, which carries no breakpoints to check
    bs = BoundarySpec(lambda t: 0.5, StepFunction((0.0,), (1.0,)))
    with pytest.raises(ConfigError, match="left demand must be a StepFunction"):
        grid_from_segments([(gs, 4)], dx=1.0, rho=1.0, boundaries=bs)
    # a pair of schedules that is not a BoundarySpec
    fn = StepFunction((0.0,), (0.5,))
    with pytest.raises(ConfigError, match="boundaries must be a BoundarySpec"):
        grid_from_segments([(gs, 4)], dx=1.0, rho=1.0, boundaries=(fn, fn))
    # a non-finite time would hold 0.5 for ever, dropping the 0.2 breakpoint
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="times must be finite"):
            StepFunction((0.0, t), (0.5, 0.2))


@settings(max_examples=30, deadline=None)
@given(cell=st.integers(0, 7),
       bad=_NONFINITE | st.floats(max_value=-1e-6)
       | st.floats(min_value=4.0 + 1e-6))
def test_step_check_names_step_cell_and_density(gs, cell, bad):
    """States written into ``grid.rho`` in place, past the checks of the
    constructor and of ``with_density``, are caught by the kernel's
    per-step range check before they reach the fluxes."""
    grid = grid_from_segments([(gs, 8)], dx=1.0, rho=1.0)
    grid.rho[cell] = bad
    expected = re.escape(f"density {bad!r} veh/km in cell {cell} after 0 steps")
    with pytest.raises(ValueError, match=expected):
        run(grid, StepConfig(0.5), 5.0)
    with pytest.raises(ValueError, match=expected):
        step(grid, StepConfig(0.5))


def test_high_cfl_blowup_stops_at_its_step(gs):
    """A run pushed past the stability limit stops at the first step that
    leaves [0, rho_jam], naming it, instead of marching on."""
    rng = np.random.default_rng(4)
    grid = grid_from_segments([(gs, 16)], dx=1.0, rho=rng.uniform(0.2, 3.8, 16))
    cfg = StepConfig(dt=2.5, allow_high_cfl=True)
    with pytest.raises(ValueError, match=r"in cell \d+ after [1-9]\d* steps"):
        run(grid, cfg, 100 * cfg.dt)


def test_divergence_names_step_cell_and_density(gs):
    """The march raises SimulationDiverged carrying what its message
    says; a call outside the march, which has no step, raises a plain
    ValueError."""
    grid = grid_from_segments([(gs, 8)], dx=1.0, rho=1.0)
    grid.rho[5] = -0.5  # in place, past the checks of construction
    with pytest.raises(SimulationDiverged) as info:
        run(grid, StepConfig(0.5), 5.0)
    assert (info.value.step, info.value.cell, info.value.density) == (0, 5, -0.5)
    with pytest.raises(ValueError, match="in cell 5 lies") as info:
        interface_fluxes(grid, StepConfig(0.5))
    assert not isinstance(info.value, SimulationDiverged)


def test_density_drift_is_clamped(gs):
    """Densities within DENSITY_SLACK beyond [0, rho_jam] are clamped,
    not refused, and give the fluxes of the clamped state."""
    rho = np.full(6, 1.0)
    rho[1], rho[4] = -5e-10, gs.rho_jam + 5e-10
    clamped = np.clip(rho, 0.0, gs.rho_jam)
    base = grid_from_segments([(gs, 6)], dx=1.0, rho=1.0)
    cfg = StepConfig(0.5)
    np.testing.assert_array_equal(
        interface_fluxes(base.with_density(rho), cfg),
        interface_fluxes(base.with_density(clamped), cfg))


# DENSITY_SLACK, written out: a test that read the constant would pass
# whatever value it held.
_SLACK = 1e-9


def test_drift_within_the_slack_marches_on(gs):
    """Cells half the slack beyond [0, rho_jam] march on: the state keeps
    its drift, and only the fluxes see the clamped density."""
    rho = np.full(8, 1.0)
    rho[2], rho[5] = -0.5 * _SLACK, gs.rho_jam + 0.5 * _SLACK
    base = grid_from_segments([(gs, 8)], dx=1.0, rho=1.0)
    cfg = StepConfig(0.5)
    clamped = base.with_density(np.clip(rho, 0.0, gs.rho_jam))
    f = interface_fluxes(clamped, cfg)
    expected = rho - (np.append(f[1:], f[0]) - f) * 0.5
    rec = run(base.with_density(rho), cfg, 4 * cfg.dt)
    assert np.array_equal(_bits(rec.rho[1]), _bits(expected))
    assert np.array_equal(_bits(step(base.with_density(rho), cfg).rho), _bits(expected))
    kept = step(clamped, cfg).rho
    assert expected[2] != kept[2] and expected[5] != kept[5]


def test_with_density_refuses_what_construction_refuses(gs):
    """``with_density`` refuses a shape other than (n,) with the
    constructor's ConfigError, and a density more than the slack beyond
    [0, rho_jam], NaN included, with the range test's ValueError; drift
    within the slack, as a march may leave it, is kept."""
    grid = grid_from_segments([(gs, 20)], dx=1.0, rho=1.0)
    with pytest.raises(ConfigError, match=re.escape(
            "at least 2 cells, got 20 cells / densities of shape (5,)")):
        grid.with_density(np.ones(5))
    for cell, bad in [(3, 9.0), (0, -2.0 * _SLACK), (19, 4.0 + 2.0 * _SLACK),
                      (7, math.nan)]:
        rho = np.full(20, 1.0)
        rho[cell] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"density {bad!r} veh/km in cell {cell} lies outside [0, 4] veh/km")) as info:
            grid.with_density(rho)
        assert type(info.value) is ValueError
    rho = np.full(20, 1.0)
    rho[2], rho[5] = -0.5 * _SLACK, 4.0 + 0.5 * _SLACK
    assert np.array_equal(grid.with_density(rho).rho, rho)


@pytest.mark.parametrize("cell, beyond", [(2, -2.0 * _SLACK), (5, 4.0 + 2.0 * _SLACK)])
def test_drift_beyond_the_slack_stops_the_march(gs, cell, beyond):
    """Twice the slack beyond [0, rho_jam], written into ``grid.rho`` in
    place, stops ``run`` and ``step`` at step 0, naming the cell."""
    grid = grid_from_segments([(gs, 8)], dx=1.0, rho=1.0)
    grid.rho[cell] = beyond
    for march in (lambda: run(grid, StepConfig(0.5), 5.0),
                  lambda: step(grid, StepConfig(0.5))):
        with pytest.raises(SimulationDiverged, match=f"in cell {cell} after 0 steps") as info:
            march()
        assert (info.value.step, info.value.cell, info.value.density) == (0, cell, beyond)


# -- the range test's contracts ------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_flux_speed_of_rows_equals_row_by_row(family_zoo, seed):
    """``flux_speed`` takes densities with a leading axis, one row per
    snapshot, and gives each row the bits it gives that row alone; rows
    that need no clamping share the array with one that does."""
    grid = SimGrid(*_mixed_road(family_zoo, seed), dx=0.5)
    one_part = grid_from_segments([(family_zoo[0], 24)], dx=0.5, rho=1.0)
    for g in (grid, one_part):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 1.0, (4, g.n)) * g.rho_jam
        rows[3, 1] = -0.5 * _SLACK  # drift that only the fluxes see clamped
        q, v = g.flux_speed(rows)
        assert q.shape == v.shape == rows.shape
        for row, q_row, v_row in zip(rows, q, v):
            q_one, v_one = g.flux_speed(row)
            assert np.array_equal(_bits(q_row), _bits(q_one))
            assert np.array_equal(_bits(v_row), _bits(v_one))


class _NaNPast(GreenshieldsDiagram):
    """Greenshields whose flux turns NaN above ``nan_past`` veh/km, set
    after construction: a part of the grid on its own formula."""

    nan_past = math.inf

    def flux_curve(self, rho):
        return np.where(rho > self.nan_past, math.nan, super().flux_curve(rho))


def test_march_stops_at_the_step_a_nan_appears(gs):
    """A queue behind a closed exit fills the last cells; once one passes
    ``nan_past`` its supply is NaN, and so is the flux into it, which
    makes that cell and the one upstream NaN a step later.  The march
    stops at that step, naming the first NaN cell, as a plain march of
    the same road tells."""
    bounds = BoundarySpec(StepFunction((0.0,), (0.5,)), StepFunction((0.0,), (0.0,)))
    cfg, n = StepConfig(0.5), 8
    plain = run(grid_from_segments([(gs, n)], dx=1.0, rho=1.0, boundaries=bounds),
                cfg, 40 * cfg.dt)
    nan_past = 3.0
    over = [j for j, rho in enumerate(plain.rho) if rho.max() > nan_past]
    assert over and over[0] > 0
    first = over[0]
    # the flux into cell 0 comes from the inflow, not a cell
    expected_cell = max(int(np.flatnonzero(plain.rho[first] > nan_past)[0]) - 1, 0)
    fd = _NaNPast(gs.v_free, gs.rho_jam)
    fd.nan_past = nan_past
    grid = grid_from_segments([(fd, n)], dx=1.0, rho=1.0, boundaries=bounds)
    for every in (1, 7):
        with pytest.raises(SimulationDiverged, match=re.escape(
                f"density nan veh/km in cell {expected_cell} after {first + 1} steps")) as info:
            run(grid, cfg, 40 * cfg.dt, every)
        assert (info.value.step, info.value.cell) == (first + 1, expected_cell)
        assert math.isnan(info.value.density)
