"""Flux-density relations: closed forms, demand/supply transforms, inverses."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from sdlwr import (
    FundamentalDiagram,
    GreenshieldsDiagram,
    KernerKonhauserDiagram,
    RiemannProblem,
    RingScenario,
    RingSpec,
    SimGrid,
    TriangularDiagram,
    from_density,
    predict,
    solve,
    thresholds,
    to_density,
)
from sdlwr import fundamental_diagram
from sdlwr.fundamental_diagram import (
    _SEARCH_TOL,
    FLUX_TOL,
    _golden_section_max,
    _newton,
)
from sdlwr.riemann_solver import _fan_density

# frozen reference values for the Kerner-Konhauser single-lane diagram
# (golden-section maximum, bracket 1e-10*rho_jam)
KK1_CAPACITY = 0.7091204708305685  # veh/s
KK1_RHO_CRIT = 35.89443727406929  # veh/km


def test_greenshields_closed_form():
    fd = GreenshieldsDiagram(1.0, 4.0)
    assert fd.rho_crit == 2.0
    assert fd.capacity == 1.0
    assert fd.flux(2.0) == 1.0
    # Q(rho) = v_f rho (1 - rho/rho_j)
    assert fd.flux(1.0) == pytest.approx(0.75, abs=1e-15)
    assert fd.flux(3.0) == pytest.approx(0.75, abs=1e-15)


def test_flux_vanishes_at_edges(family_zoo):
    """Q(0) = Q(rho_jam) = 0 within each family's own tolerance.

    The Kerner-Konhauser speed function does not hit zero exactly at the
    jam density (logistic offset), so that family declares a looser
    zero_flux_tol.
    """
    for fd in family_zoo:
        assert abs(fd.flux(0.0)) <= fd.zero_flux_tol, f"{fd} at rho=0"
        assert abs(fd.flux(fd.rho_jam)) <= fd.zero_flux_tol, f"{fd} at jam"


def test_unimodal_and_capacity_is_grid_max(family_zoo):
    for fd in family_zoo:
        rho = np.linspace(0.0, fd.rho_jam, 1000)
        q = np.array([fd.flux(r) for r in rho])
        before = rho <= fd.rho_crit
        assert np.all(np.diff(q[before]) >= -1e-9), f"{fd}: Q not rising below rho_crit"
        assert np.all(np.diff(q[~before]) <= 1e-9), f"{fd}: Q not falling above rho_crit"
        # the sampled max undershoots the located capacity by at most half
        # a grid step times the steepest slope (kinked peaks are O(drho))
        undershoot = fd.capacity - q.max()
        assert -1e-9 <= undershoot <= 0.51 * fd.max_wave_speed() * fd.rho_jam / 999


def test_triangular_defaults_symmetric():
    fd = TriangularDiagram(1.0, 4.0)
    assert fd.v_cong == fd.v_free
    assert fd.rho_crit == pytest.approx(2.0, abs=1e-15)
    # with the ceiling inactive the slopes satisfy the continuity relation
    assert fd.v_cong == pytest.approx(
        fd.v_free * fd.rho_crit / (fd.rho_jam - fd.rho_crit)
    )


def test_triangular_asymmetric_critical_density():
    fd = TriangularDiagram(1.0, 4.0, q_max=100.0, v_cong=1.0)
    assert fd.rho_crit == pytest.approx(2.0, abs=1e-12)
    assert fd.capacity == pytest.approx(2.0, abs=1e-12)


def test_triangular_plateau_edges():
    """With an active ceiling, inv_demand(C) and inv_supply(C) are the two
    plateau edges, keeping each branch inverse continuous."""
    fd = TriangularDiagram(30e-3, 150.0, q_max=0.6, v_cong=6e-3)
    left = fd.q_max / fd.v_free
    right = fd.rho_jam - fd.q_max / fd.v_cong
    assert fd.rho_crit == pytest.approx(left, abs=1e-12)
    assert fd.inv_demand(fd.capacity) == pytest.approx(left, abs=1e-6 * fd.rho_jam)
    assert fd.inv_supply(fd.capacity) == pytest.approx(right, abs=1e-6 * fd.rho_jam)


@pytest.mark.parametrize("v_free, rho_jam, q_max, v_cong", [
    (1.0, 2.0, math.inf, 1e6),
    (1e-3, 150.0, math.inf, 1e4),
    (30e-3, 150.0, 0.6, 3e5),
])
def test_triangular_refuses_cancelling_slope_ratio(v_free, rho_jam, q_max, v_cong):
    """D and S sit up to (1 + v_cong/v_free) ulp(C) off C; a slope ratio
    that lets that reach FLUX_TOL/8 is refused, and one a tenth as steep
    is not."""
    with pytest.raises(ValueError, match="slope ratio v_cong/v_free"):
        TriangularDiagram(v_free, rho_jam, q_max, v_cong)
    cap = TriangularDiagram(v_free, rho_jam, q_max, 0.1 * v_cong).capacity
    assert (1.0 + 0.1 * v_cong / v_free) * math.ulp(cap) <= FLUX_TOL / 8


def test_triangular_derivative_at_kinks():
    """Slopes from below, central and from above at each kink: a
    trapezoid's plateau is flat, and a pure triangle's apex turns from
    the free branch straight onto the congested one."""
    trap = TriangularDiagram(30e-3, 150.0, q_max=0.6, v_cong=6e-3)
    tri = TriangularDiagram(30e-3, 150.0, v_cong=6e-3)
    cases = [
        (trap, trap.q_max / trap.v_free, (trap.v_free, trap.v_free, 0.0)),
        (trap, trap.rho_jam - trap.q_max / trap.v_cong,
         (0.0, 0.0, -trap.v_cong)),
        (tri, tri.rho_crit, (tri.v_free, tri.v_free, -tri.v_cong)),
    ]
    for fd, kink, slopes in cases:
        assert tuple(fd.derivative(kink, side) for side in (-1, 0, 1)) == slopes


def test_kerner_konhauser_free_speed():
    fd = KernerKonhauserDiagram(lanes=1)
    # V(0) is about 27.8 m/s for the default parameters
    assert fd.speed(0.0) * 1000.0 == pytest.approx(27.8, abs=0.1)


def test_kerner_konhauser_capacity():
    kk1 = KernerKonhauserDiagram(lanes=1)
    kk2 = KernerKonhauserDiagram(lanes=2)
    assert kk1.capacity == pytest.approx(KK1_CAPACITY, abs=1e-9)
    assert kk1.rho_crit == pytest.approx(KK1_RHO_CRIT, abs=1e-6)
    # lane scaling Q(rho, 2a) = 2 Q(rho/2, a) makes C2 = 2 C1 exactly
    assert kk2.capacity == pytest.approx(2.0 * kk1.capacity, rel=1e-12)
    assert kk2.rho_crit == pytest.approx(2.0 * kk1.rho_crit, rel=1e-7)


class _TwoHump(FundamentalDiagram):
    """Deliberately bimodal curve; the golden-section search settles on the
    wide low hump while the tall spike near rho=3.2 shows up in the
    max-speed scan."""

    rho_jam = 4.0

    def flux_curve(self, rho):
        r = np.asarray(rho, dtype=float)
        return np.exp(-(((r - 0.8) / 0.3) ** 2)) + 2.0 * np.exp(
            -(((r - 3.2) / 0.1) ** 2)
        )


def test_construction_rejects_non_unimodal():
    with pytest.raises(ValueError, match="not unimodal"):
        _TwoHump()


def _counting(cls):
    """``cls`` with a class-wide tally of its ``flux_curve`` calls."""

    class Counting(cls):
        calls = 0

        def flux_curve(self, rho):
            type(self).calls += 1
            return super().flux_curve(rho)

    return Counting


_CountingKK = _counting(KernerKonhauserDiagram)


def test_unimodality_check_costs_no_flux_evaluation():
    """Construction pays 51 flux_curve calls for the golden-section
    search, 2 for the max-speed scan and 3 for the stored Q(0),
    Q(rho_crit) and Q(rho_jam); the unimodality check reuses the scan's
    array, and a subclass builds no Kerner-Konhauser start table."""
    _CountingKK.calls = 0
    _CountingKK(lanes=2)
    assert _CountingKK.calls == 56


@pytest.mark.parametrize("make", [
    lambda: GreenshieldsDiagram(math.nan, 4.0),
    lambda: GreenshieldsDiagram(1.0, math.nan),
    lambda: GreenshieldsDiagram(1.0, math.inf),
    lambda: TriangularDiagram(math.nan, 4.0),
    lambda: TriangularDiagram(1.0, math.nan),
    lambda: TriangularDiagram(1.0, 4.0, q_max=math.nan),
    lambda: TriangularDiagram(1.0, 4.0, v_cong=math.nan),
    lambda: KernerKonhauserDiagram(lanes=math.nan),
    lambda: KernerKonhauserDiagram(rho_jam_lane=math.nan),
    lambda: KernerKonhauserDiagram(tau=math.nan),
    lambda: KernerKonhauserDiagram(unit_len=math.inf),
])
def test_constructors_reject_non_finite_parameters(make):
    with pytest.raises(ValueError, match="must be positive"):
        make()


def test_searches_end_when_tolerance_underflows(deadline):
    """A tolerance of 0, what 1e-10*rho_jam gives on a denormal rho_jam,
    still ends each search a few ulps from the answer."""
    with deadline(5):
        argmax, _ = _golden_section_max(lambda x: -(x - 1.0) ** 2, 0.0, 3.0, 0.0)
        # no slope: bisection
        bisected = _newton(lambda x: (x * x, math.nan), 2.0, 0.0, 2.0, 1.0, True, 0.0)
        newton = _newton(lambda x: (x * x, 2.0 * x), 2.0, 0.0, 2.0, 2.0, True, 0.0)
    assert argmax == pytest.approx(1.0, abs=1e-7)
    # the floor: 8 ulps of the bracket's end 2.0
    assert bisected == pytest.approx(math.sqrt(2.0), abs=8 * math.ulp(2.0))
    assert newton == pytest.approx(math.sqrt(2.0), abs=8 * math.ulp(2.0))


def test_newton_takes_halley_steps_given_curvature():
    """Given (f, f', f'') the search takes Halley steps and reaches sqrt(2)
    in fewer evaluations than Newton given (f, f'), within the same
    tolerance and from the same start."""
    tol = _SEARCH_TOL * 2.0
    counts = {}
    for name, value_slope in (("newton", lambda x: (x * x, 2.0 * x)),
                              ("halley", lambda x: (x * x, 2.0 * x, 2.0))):
        calls = []

        def counted(x, value_slope=value_slope, calls=calls):
            calls.append(x)
            return value_slope(x)

        root = _newton(counted, 2.0, 0.0, 2.0, 2.0, True, tol)
        assert root == pytest.approx(math.sqrt(2.0), abs=tol), name
        counts[name] = len(calls)
    assert counts["halley"] < counts["newton"], counts


@pytest.mark.parametrize("field", ["lanes", "rho_jam_lane"])
def test_underflowing_kerner_konhauser_is_refused(field, deadline):
    """At rho_jam ~ 1e-318 veh/km the logistic slope 1/(0.06 rho_jam)
    overflows, and the diagram is refused as degenerate before any flux
    evaluation could raise a floating-point warning."""
    with deadline(5), pytest.raises(ValueError, match="degenerate diagram"):
        KernerKonhauserDiagram(**{field: 1e-320})


@pytest.mark.parametrize("value", [0.0, math.nan])
def test_degenerate_user_diagram_is_refused(value):
    """A user family whose curve is zero or NaN everywhere has no capacity
    and no wave speed, and its construction says so with both values."""

    class Flat(FundamentalDiagram):
        rho_jam = 4.0

        def flux_curve(self, rho):
            return rho * value

    with pytest.raises(ValueError) as exc:
        Flat()
    assert str(exc.value) == (f"degenerate diagram: capacity {value!r} veh/s, "
                              f"max wave speed {value!r} km/s")


def test_zero_d_flux_curve_keeps_a_float_capacity():
    """A user curve that answers a float with a 0-d array still gets a
    float capacity, so its degenerate refusal prints "capacity 0.0", not
    "capacity array(0.)"."""

    class ZeroD(FundamentalDiagram):
        rho_jam = 4.0

        def flux_curve(self, rho):
            return np.array(rho * (4.0 - rho))

    class FlatZeroD(ZeroD):
        def flux_curve(self, rho):
            return np.array(0.0 * rho)

    fd = ZeroD()
    assert type(fd.capacity) is float
    assert fd.capacity == pytest.approx(4.0, rel=1e-15)
    with pytest.raises(ValueError, match=r"^degenerate diagram: capacity 0\.0 veh/s,"):
        FlatZeroD()


def test_density_domain_checked(gs):
    with pytest.raises(ValueError):
        gs.flux(-0.5)
    with pytest.raises(ValueError):
        gs.demand(4.5)


@pytest.mark.parametrize("method", ["flux", "demand", "supply", "speed"])
def test_nan_density_rejected(family_zoo, method):
    for fd in family_zoo:
        with pytest.raises(ValueError, match="density outside"):
            getattr(fd, method)(math.nan)
        with pytest.raises(ValueError, match="density outside"):
            getattr(fd, method)(np.array([0.0, math.nan, fd.rho_crit]))


def test_demand_supply_envelope(family_zoo):
    """max(D, S) = C everywhere; D rises, S falls."""
    for fd in family_zoo:
        rho = np.linspace(0.0, fd.rho_jam, 500)
        d = np.array([fd.demand(r) for r in rho])
        s = np.array([fd.supply(r) for r in rho])
        assert np.allclose(np.maximum(d, s), fd.capacity, atol=1e-9)
        assert np.all(np.diff(d) >= -1e-12)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.allclose(np.minimum(d, s), [fd.flux(r) for r in rho], atol=1e-12)


@pytest.mark.parametrize("seed", [3, 11])
def test_inverse_demand_round_trip(family_zoo, seed):
    rng = np.random.default_rng(seed)
    for fd in family_zoo:
        # a non-degenerate supply plateau (trapezoid) is not pointwise
        # invertible; those draws are covered by the edge test above
        supply_edge = fd.inv_supply(fd.capacity)
        flat_supply = supply_edge - fd.rho_crit > 1e-8 * fd.rho_jam
        for rho in rng.uniform(0.0, fd.rho_jam, 500):
            back = fd.inv_demand(fd.demand(rho))
            assert back == pytest.approx(
                min(rho, fd.rho_crit), abs=1e-8 * fd.rho_jam
            ), f"{fd} rho={rho}"
            if flat_supply and fd.supply(rho) >= fd.capacity - 1e-12:
                continue
            back = fd.inv_supply(fd.supply(rho))
            assert back == pytest.approx(max(rho, fd.rho_crit), abs=1e-8 * fd.rho_jam)


def test_inverse_rejects_flux_above_capacity(gs):
    with pytest.raises(ValueError):
        gs.inv_demand(gs.capacity + 1e-3)


def test_rho_of_gamma_monotone(family_zoo):
    gammas = [0.0, 0.1, 0.5, 0.9, 1.0, 1.2, 2.0, 10.0, 1e6, math.inf]
    for fd in family_zoo:
        rhos = [fd.rho_of_gamma(g) for g in gammas]
        assert rhos[0] == pytest.approx(0.0, abs=1e-8 * fd.rho_jam)
        assert all(b >= a - 1e-8 * fd.rho_jam for a, b in zip(rhos, rhos[1:])), (
            f"{fd}: rho_of_gamma not monotone: {rhos}"
        )


def test_rho_of_gamma_rejects_negative(gs):
    with pytest.raises(ValueError):
        gs.rho_of_gamma(-0.1)


@given(frac=st.floats(min_value=0.0, max_value=1.0))
def test_flux_is_density_times_speed(frac):
    fd = KernerKonhauserDiagram(lanes=2)
    rho = frac * fd.rho_jam
    assert fd.flux(rho) == pytest.approx(rho * fd.speed(rho), abs=1e-12)


def test_ctm_sending_receiving_equivalence():
    """At CFL = 1 the triangular demand/supply reproduce the cell
    transmission model's sending and receiving flows:

        D dt = min(q_max dt, n)
        S dt = min(q_max dt, (v_c/v_f) (N_max - n))

    with n = rho v_f dt the cell occupancy and N_max the jam occupancy.
    """
    fd = TriangularDiagram(1.0, 4.0, q_max=0.6, v_cong=1.0)
    dt = 0.7
    dx = fd.v_free * dt  # CFL exactly 1 on the free branch
    n_max = fd.rho_jam * dx
    for rho in np.linspace(0.0, fd.rho_jam, 97):
        n = rho * dx
        assert fd.demand(rho) * dt == pytest.approx(min(fd.q_max * dt, n), abs=1e-12)
        assert fd.supply(rho) * dt == pytest.approx(
            min(fd.q_max * dt, fd.v_cong / fd.v_free * (n_max - n)), abs=1e-12
        )


@given(v_free=st.floats(1e-3, 3.0), cong_ratio=st.floats(-3.0, 3.0),
       rho_jam=st.floats(1.0, 1000.0),
       ceiling=st.none() | st.floats(0.05, 1.5),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_triangular_demand_supply_match_ctm_forms(v_free, cong_ratio, rho_jam,
                                                  ceiling, fracs):
    """D = Q(min(rho, rho_crit)) and S = Q(max(rho, rho_crit)) equal the
    cell transmission forms min(v_free*rho, C) and min(v_cong*(rho_jam -
    rho), C) to rounding, and max(D, S) = C likewise.

    Q(rho_crit) takes rho_jam - rho_crit, whose rounding error grows by
    rho_jam/(rho_jam - rho_crit) <= 1 + v_cong/v_free: the bound is
    8 ulp of C while v_cong <= v_free and grows with v_cong/v_free beyond.
    """
    v_cong = v_free * 10.0**cong_ratio
    apex_flux = v_free * v_cong * rho_jam / (v_free + v_cong)
    q_max = math.inf if ceiling is None else ceiling * apex_flux
    # the constructor refuses ratios whose rounding could reach FLUX_TOL/8
    peak = min(q_max, v_free * (v_cong * rho_jam / (v_free + v_cong)))
    assume((1.0 + v_cong / v_free) * math.ulp(peak) <= FLUX_TOL / 8)
    fd = TriangularDiagram(v_free, rho_jam, q_max, v_cong)
    cap = fd.capacity
    tol = 8.0 * max(1.0, v_cong / v_free) * np.spacing(cap)
    rho = np.array([0.0, fd.rho_crit, fd.inv_supply(cap), rho_jam]
                   + [f * rho_jam for f in fracs])
    ctm_d = np.minimum(v_free * rho, cap)
    ctm_s = np.minimum(v_cong * (rho_jam - rho), cap)
    for d, s in [(fd.demand(rho), fd.supply(rho)),
                 ([fd.demand(r) for r in rho], [fd.supply(r) for r in rho])]:
        assert np.max(np.abs(np.subtract(d, ctm_d))) <= tol
        assert np.max(np.abs(np.subtract(s, ctm_s))) <= tol
        assert np.max(np.abs(np.maximum(d, s) - cap)) <= tol


def test_max_wave_speed_bounds_derivative(family_zoo):
    for fd in family_zoo:
        vmax = fd.max_wave_speed()
        for rho in np.linspace(0.0, fd.rho_jam, 200):
            assert abs(fd.derivative(rho)) <= vmax * (1.0 + 1e-6) + 1e-12


# -- the scalar path --------------------------------------------------------

_BUILT_IN = {
    "gs": lambda: GreenshieldsDiagram(27.8e-3, 120.0),
    "triangle": lambda: TriangularDiagram(1.0, 4.0),
    "trapezoid": lambda: TriangularDiagram(30e-3, 150.0, q_max=0.6, v_cong=6e-3),
    "kk1": lambda: KernerKonhauserDiagram(lanes=1),
    "kk2": lambda: KernerKonhauserDiagram(lanes=2),
    "kk3": lambda: KernerKonhauserDiagram(lanes=3),
    "kk_custom": lambda: KernerKonhauserDiagram(lanes=1.5, rho_jam_lane=150.0,
                                                tau=3.0, unit_len=0.02),
}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _scalar_densities(fd, seed):
    """Seeded densities, plus the exact points where a formula switches
    branch: both ends, the critical density and the plateau edges."""
    special = [0.0, fd.rho_crit, fd.rho_jam]
    if isinstance(fd, TriangularDiagram):
        special += [fd.capacity / fd.v_free, fd.rho_jam - fd.capacity / fd.v_cong]
    rng = np.random.default_rng(seed)
    return special + rng.uniform(0.0, fd.rho_jam, 300).tolist()


@pytest.mark.parametrize("name", list(_BUILT_IN))
def test_scalar_flux_curve_matches_array_path(name):
    """A float in gives a plain float out, with the bits of the array path."""
    fd = _BUILT_IN[name]()
    for rho in _scalar_densities(fd, seed=5):
        q = fd.flux_curve(rho)
        assert type(q) is float, (name, rho)
        assert _bits(q) == _bits(fd.flux_curve(np.array([rho]))[0]), (name, rho)
        assert _bits(fd.flux_curve(np.float64(rho))) == _bits(q), (name, rho)


@pytest.mark.parametrize("name", list(_BUILT_IN))
def test_scalar_methods_match_grid_table(name):
    """demand/supply/flux/speed of a float equal the simulator's per-cell
    table (the array path) bit for bit, and are plain floats."""
    fd = _BUILT_IN[name]()
    rhos = _scalar_densities(fd, seed=6)
    grid = SimGrid([(fd, len(rhos))], np.array(rhos), dx=0.5)
    d, s = grid.demand_supply()
    q, v = grid.flux_speed()
    for method, table in (("demand", d), ("supply", s), ("flux", q), ("speed", v)):
        got = [getattr(fd, method)(rho) for rho in rhos]
        assert all(type(x) is float for x in got), (name, method)
        assert np.array_equal(_bits(got), _bits(table)), (name, method)


def test_mixed_kerner_konhauser_road_matches_scalar_methods():
    """Kerner-Konhauser links of several lane counts and parameters share
    one table part whose cells carry different coefficients; each cell's
    demand, supply, flux and speed still equal its own diagram's scalar
    methods bit for bit."""
    fds = [_BUILT_IN[name]() for name in ("kk1", "kk2", "kk3", "kk_custom", "kk1")]
    segments, rhos = [], []
    for seed, fd in enumerate(fds):
        cells = _scalar_densities(fd, seed=seed)
        segments.append((fd, len(cells)))
        rhos += cells
    grid = SimGrid(segments, np.array(rhos), dx=0.5)
    assert len(grid._parts) == 1
    d, s = grid.demand_supply()
    q, v = grid.flux_speed()
    owner = [fd for fd, count in segments for _ in range(count)]
    for method, table in (("demand", d), ("supply", s), ("flux", q), ("speed", v)):
        got = [getattr(fd, method)(rho) for fd, rho in zip(owner, rhos)]
        assert np.array_equal(_bits(got), _bits(table)), method


@pytest.mark.parametrize("per_cell", [False, True])
@pytest.mark.parametrize("name", list(_BUILT_IN))
def test_table_formula_writes_into_out(name, per_cell):
    """Given ``out``, a family's table formula returns ``out`` itself, with
    the bits of the formula without it and of the scalar path, and leaves
    its densities as they were; with scalar parameters (the diagram's own
    methods) and per-cell columns (the simulator's table) alike.  ``out``
    starts as NaN, so a formula that ignores it fails every time, not
    only when ``np.empty`` hands it stale values."""
    fd = _BUILT_IN[name]()
    formula, names = fd._table_form
    rho = np.array(_scalar_densities(fd, seed=8))
    params = [getattr(fd, attr) for attr in names]
    if per_cell:
        params = [np.full(rho.size, p) for p in params]
    before = rho.copy()
    out = np.full(rho.size, np.nan)
    assert formula(rho, *params, out=out) is out
    assert np.array_equal(_bits(out), _bits(formula(rho, *params)))
    assert np.array_equal(_bits(out), _bits([fd.flux_curve(r) for r in rho.tolist()]))
    assert np.array_equal(_bits(rho), _bits(before))


# A counting class per family, and how to build its member at a scale
# (lanes for Kerner-Konhauser, jam density and ceiling otherwise).
_COUNTED_FAMILIES = {
    "gs": (_counting(GreenshieldsDiagram),
           lambda cls, k: cls(27.8e-3, 120.0 * k)),
    "trapezoid": (_counting(TriangularDiagram),
                  lambda cls, k: cls(30e-3, 150.0 * k, q_max=0.6 * k, v_cong=6e-3)),
    "kk": (_counting(KernerKonhauserDiagram),
           lambda cls, k: cls(lanes=k)),
}


def _counted(family, *scales):
    counting, make = _COUNTED_FAMILIES[family]
    return counting, [make(counting, k) for k in scales]


# Exact flux_curve counts: every inversion and search goes through the
# hook, so a scalar path that skipped it, or called it more often, would
# move them.  Q(0), Q(rho_crit) and Q(rho_jam) are evaluated once, at
# construction: the scalar demand and supply at or beyond rho_crit and
# the branch inverses' end tests read them.  Each case is named by its
# family alone, so that a re-derived count keeps the test's name.

@pytest.mark.parametrize("family, scales, rhos, calls", [
    ("gs", (1, 1), (30.0, 90.0), 2),
    ("trapezoid", (1, 1), (15.0, 100.0), 67),
    ("kk", (2, 1), (50.0, 20.0), 101),
], ids=["gs", "trapezoid", "kk"])
def test_solve_flux_curve_calls(family, scales, rhos, calls):
    """Lifting two densities and solving one Riemann problem."""
    counting, (up, down) = _counted(family, *scales)
    counting.calls = 0
    solve(RiemannProblem.from_densities(up, down, *rhos))
    assert counting.calls == calls


@pytest.mark.parametrize("family, thresholds_calls, predicts", [
    ("kk", 64, [(300.0, RingScenario.BOTH_UC, 176),
                (1000.0, RingScenario.CRITICAL_WITH_SS, 0),
                (None, RingScenario.CRITICAL_WITH_SOC, 0),
                (3000.0, RingScenario.BOTH_SOC, 186)]),
    ("gs", 66, [(300.0, RingScenario.BOTH_UC, 224),
                 (1800.0, RingScenario.CRITICAL_WITH_SS, 0),
                 (None, RingScenario.CRITICAL_WITH_SOC, 0),
                 (3400.0, RingScenario.BOTH_SOC, 224)]),
    ("trapezoid", 65, [(150.0, RingScenario.BOTH_UC, 104),
                       (1600.0, RingScenario.CRITICAL_WITH_SS, 0),
                       (None, RingScenario.CRITICAL_WITH_SOC, 0),
                       (3700.0, RingScenario.BOTH_SOC, 152)]),
], ids=["kk", "gs", "trapezoid"])
def test_ring_flux_curve_calls(family, thresholds_calls, predicts):
    """thresholds and one predict per regime (None: exactly N_c) on a
    ring of a one-lane and a two-lane link of one family.  The threshold
    densities are solved once per ring: ``with_vehicles`` copies share
    them, so the ``critical_*`` predicts make no flux_curve call, and a
    second ``thresholds`` none either.  Each Newton step of a ``both_*``
    predict on the link-1 density costs one Q1 call, a link-2 branch
    inverse and two difference quotients."""
    counting, (fd1, fd2) = _counted(family, 1, 2)
    ring = RingSpec(16.8, 2.8, fd1, fd2)
    counting.calls = 0
    n_c = thresholds(ring)[1]
    assert counting.calls == thresholds_calls
    assert thresholds(ring)[1] == n_c
    assert counting.calls == thresholds_calls
    for n, scenario, calls in predicts:
        spec = ring.with_vehicles(n_c if n is None else n)
        counting.calls = 0
        assert predict(spec).scenario is scenario
        assert counting.calls == calls, (family, n)


def test_replaced_ring_solves_its_own_thresholds():
    """A ring rebuilt by ``dataclasses.replace`` with another geometry or
    diagram solves its thresholds afresh, never reusing the stale ones of
    the ring it came from, while a ``with_vehicles`` copy shares them."""
    counting, (fd1, fd2, fd3) = _counted("kk", 1, 2, 3)
    ring = RingSpec(16.8, 2.8, fd1, fd2)
    n_a, n_c = thresholds(ring)
    for changed in (dataclasses.replace(ring, L1=5.6),
                    dataclasses.replace(ring, L=20.0),
                    dataclasses.replace(ring, fd2=fd3),
                    dataclasses.replace(ring.with_vehicles(900.0), L1=5.6)):
        fresh = RingSpec(changed.L, changed.L1, changed.fd1, changed.fd2)
        counting.calls = 0
        assert thresholds(changed) == thresholds(fresh) != (n_a, n_c)
        assert counting.calls > 0
    counting.calls = 0
    assert thresholds(ring.with_vehicles(900.0)) == (n_a, n_c)
    assert counting.calls == 0


def _rebuilt(fd, cls):
    """``fd``'s parameters given to the subclass ``cls`` of its class."""
    return cls(**{f.name: getattr(fd, f.name) for f in dataclasses.fields(fd)})


def _hook_twin(fd):
    """``fd`` rebuilt as a pass-through subclass: the same curve, which the
    exact-class closed forms do not serve, so it inverts by bisection over
    its ``flux_curve`` (and ``derivative`` for the fan)."""
    return _rebuilt(fd, type(f"Hook{type(fd).__name__}", (type(fd),), {}))


def _doubled(fd):
    """``fd`` rebuilt as a user family carrying twice its flow."""

    class Doubled(type(fd)):
        def flux_curve(self, rho):
            return 2.0 * super().flux_curve(rho)

    return _rebuilt(fd, Doubled)


@pytest.mark.parametrize("name", ["gs", "trapezoid", "kk2"])
def test_overridden_flux_curve_drives_every_method(name):
    """Doubling a curve is exact in floating point, so every search over
    the doubled curve takes the decisions of a search over the base curve:
    the critical point and the inverses of doubled levels are those of a
    pass-through subclass, which searches the same hook, bit for bit.  A
    path that bypassed the override, such as a closed form of the base
    class or the simulator's table form, would answer for the base curve.
    The exact base class does not search, so it agrees within the search
    tolerance plus the distance between the searched and the exact crest:
    the largest gap between the hook's and the base's inverses of C, where
    Q is flat in floating point and the base answers rho_crit (about
    1.1e-7 veh/km on Greenshields, 1.5e-7 on the two-lane
    Kerner-Konhauser)."""
    base = _BUILT_IN[name]()
    fd, hook = _doubled(base), _hook_twin(base)
    assert fd.rho_crit == hook.rho_crit == pytest.approx(base.rho_crit, rel=1e-8)
    crest = max(abs(getattr(hook, method)(base.capacity)
                    - getattr(base, method)(base.capacity))
                for method in ("inv_demand", "inv_supply"))
    tol = _SEARCH_TOL * base.rho_jam + crest
    assert fd.capacity == 2.0 * hook.capacity == 2.0 * base.capacity
    assert fd.max_wave_speed() == pytest.approx(2.0 * base.max_wave_speed(), rel=1e-5)
    for level in np.linspace(0.0, base.capacity, 41).tolist():
        for method in ("inv_demand", "inv_supply"):
            rho = getattr(fd, method)(2.0 * level)
            assert rho == getattr(hook, method)(level), (method, level)
            assert rho == pytest.approx(getattr(base, method)(level), abs=tol)
    rhos = np.linspace(0.0, base.rho_jam, 41).tolist()
    d, s = SimGrid([(fd, len(rhos))], np.array(rhos), dx=0.5).demand_supply()
    for k, rho in enumerate(rhos):
        assert fd.demand(rho) == d[k] == 2.0 * base.demand(rho), rho
        assert fd.supply(rho) == s[k] == 2.0 * base.supply(rho), rho
        assert fd.flux(rho) == 2.0 * base.flux(rho)
        back = to_density(fd, from_density(fd, rho))
        assert back == to_density(hook, from_density(hook, rho))
        assert back == pytest.approx(to_density(base, from_density(base, rho)), abs=tol)


@pytest.mark.parametrize("name", ["gs", "trapezoid", "kk1", "kk2"])
def test_fast_inverses_match_hook_bisection(name):
    """The closed-form and Newton inverses of the ``verify`` families
    against bisection over the same curve (a pass-through subclass).

    Off the crest band (within 1e-3*rho_jam of the crest or of a
    trapezoid's plateau, where one flux level covers an interval or is
    ill-conditioned, as the benchmark's round-trip check has it) the two
    agree within the search tolerance.  The fast residual
    |Q(rho) - min(level, C)| is at most 4 ulp of C at every level from 0
    to C + FLUX_TOL/2, except below Kerner-Konhauser's Q(rho_jam) ~ 3.4e-8
    veh/s, where both return rho_jam.  The fan inverse of Q'(rho) = xi
    agrees within the tolerance across the closed range
    [Q'(rho_jam), Q'(0)] of the exact Q', and the fan edge Q'(0) inverts
    to the empty road."""
    fd = _BUILT_IN[name]()
    hook = _hook_twin(fd)
    cap, tol = fd.capacity, _SEARCH_TOL * fd.rho_jam
    plateau_end = fd.rho_jam - cap / fd.v_cong if name == "trapezoid" else fd.rho_crit
    band_lo, band_hi = fd.rho_crit - 1e-3 * fd.rho_jam, plateau_end + 1e-3 * fd.rho_jam
    levels = np.linspace(0.0, cap, 403)[1:-1].tolist() + [0.0, cap, cap + 0.5 * FLUX_TOL]
    for method in ("inv_demand", "inv_supply"):
        for level in levels:
            rho, ref = getattr(fd, method)(level), getattr(hook, method)(level)
            where = (method, level, rho, ref)
            if not (band_lo <= rho <= band_hi and band_lo <= ref <= band_hi):
                assert abs(rho - ref) <= tol, where
            if method == "inv_supply" and level < fd.flux_curve(fd.rho_jam):
                assert rho == ref == fd.rho_jam, where
            else:
                residual = abs(fd.flux_curve(rho) - min(level, cap))
                assert residual <= 4 * math.ulp(cap), where
    if isinstance(fd, TriangularDiagram):
        return  # Q' is a step: the fan bisects on every class
    xis = np.linspace(fd.derivative(fd.rho_jam), fd.derivative(0.0), 403)
    for xi in xis.tolist():
        rho = _fan_density(fd, 0.0, fd.rho_jam, xi)
        assert abs(rho - _fan_density(hook, 0.0, fd.rho_jam, xi)) <= tol, xi
    assert _fan_density(fd, 0.0, fd.rho_jam, fd.derivative(0.0)) <= tol


@pytest.mark.parametrize("fd", [
    TriangularDiagram(27.8e-3, 120.0, v_cong=5.1e-3), TriangularDiagram(1.0, 4.0),
    TriangularDiagram(30e-3, 150.0, q_max=0.6, v_cong=6e-3)],
    ids=["asymmetric", "triangle", "trapezoid"])
def test_generic_crest_of_a_kinked_curve(fd):
    """The generic crest search on a pass-through twin of a kinked curve
    (an asymmetric triangle, a symmetric one, the ``verify`` trapezoid,
    whose crest is its plateau's left edge) lands within 1e-10 rho_jam of
    the closed-form rho_crit and FLUX_TOL/8 of its capacity.  Golden
    section misses by 5.5e-12 rho_jam and 1.8e-11 veh/s on the asymmetric
    triangle and 8.4e-12 rho_jam on the trapezoid.  Bisection for the
    root of the central quotient of Q lands 1.5e-4 veh/km above the
    trapezoid's plateau edge and 8.3e-5 above the asymmetric triangle's
    apex, 4.2e-7 veh/s below its capacity."""
    hook = _hook_twin(fd)
    assert abs(hook.rho_crit - fd.rho_crit) <= 1e-10 * fd.rho_jam
    assert abs(hook.capacity - fd.capacity) <= FLUX_TOL / 8


@pytest.mark.parametrize("name", ["gs", "triangle", "trapezoid", "kk1", "kk2"])
def test_crest_level_inverts_to_rho_crit(name):
    """R(1) = D^-1(C) is the critical density bit for bit on every class,
    the exact built-in ones and their pass-through twins on the generic
    path alike, as the module docstring has it: the located critical
    point, not wherever a search stalls on the crest, where Q is flat in
    floating point.  So is the inverse of a demand level just above C."""
    base = _BUILT_IN[name]()
    for fd in (base, _hook_twin(base)):
        assert fd.rho_of_gamma(1.0) == fd.inv_demand(fd.capacity) == fd.rho_crit, fd
        assert fd.inv_demand(fd.capacity + 0.5 * FLUX_TOL) == fd.rho_crit, fd


@pytest.mark.parametrize("name", ["gs", "triangle", "trapezoid", "kk1", "kk2"])
def test_generic_derivative_stays_inside_at_the_ends(name, mirror):
    """On the generic path a one-sided quotient whose side leaves [0,
    rho_jam] takes the inside one, as ``side=0`` and the closed forms do:
    every side at both ends gives the same finite slope, within the
    quotient's step of the exact class's, on the pass-through twins and
    on the mirrored diagrams, whose slope at one end is minus the base's
    at the other."""
    base = _BUILT_IN[name]()
    ends = (0.0, base.rho_jam)
    for fd, exact in ((_hook_twin(base), base.derivative),
                      (mirror(base), lambda rho, side: -base.derivative(
                          base.rho_jam - rho, -side))):
        for end, inside in zip(ends, (1, -1)):
            slopes = {fd.derivative(end, side) for side in (-1, 0, 1)}
            assert len(slopes) == 1, (fd, end, slopes)
            slope, = slopes
            assert slope == pytest.approx(exact(end, inside), rel=1e-5), (fd, end)


def _kk_exact_flux(mp, lanes):
    """The paper's Kerner-Konhauser flux in mpmath decimals."""
    jam = mp.mpf(180 * lanes)

    def flux(rho):
        x = (rho / jam - mp.mpf("0.25")) / mp.mpf("0.06")
        speed = mp.mpf("5.0461") * (1 / (1 + mp.exp(x)) - mp.mpf("3.72e-6"))
        return rho * speed * mp.mpf("0.028") / 5

    return flux


def _kk_flux_errors(mp):
    """Errors of the Kerner-Konhauser flux on one and two lanes against
    the paper's formula in 40-digit decimals, at 2000 seeded densities
    per lane count: 1500 uniform on [0, rho_jam] and 500 within 5% of
    jam, where the offset cancels most of the logistic.  Returns the
    maximum and mean error in ulps of the exact value, and the maximum
    absolute error (veh/s), each over all 4000 points."""
    ulps, errors = [], []
    with mp.workdps(40):
        for lanes in (1, 2):
            fd, flux = KernerKonhauserDiagram(lanes=lanes), _kk_exact_flux(mp, lanes)
            rng = np.random.default_rng(17 + lanes)
            rhos = np.concatenate([rng.uniform(0.0, fd.rho_jam, 1500),
                                   rng.uniform(0.95 * fd.rho_jam, fd.rho_jam, 500)])
            for rho, q in zip(rhos.tolist(), fd.flux_curve(rhos).tolist()):
                exact = flux(mp.mpf(rho))
                error = abs(mp.mpf(q) - exact)
                errors.append(float(error))
                ulps.append(float(error / math.ulp(float(exact))))
    return max(ulps), float(np.mean(ulps)), max(errors)


# What _kk_flux_errors gave for the formula before the per-diagram
# coefficients, exp((rho/rho_jam - 0.25)/0.06) with three divisions in
# all, on numpy 2.4.6 (x86-64): the maximum ulps, the mean ulps and the
# maximum absolute error.  The coefficient form gives 5657.9, 18.04 and
# 4.14e-16.  Per lane count its two-lane points alone are worse than the
# old formula's, 1397 against 579 ulps at most and 14.4 against 9.2 in
# the mean, all within 5% of jam: the slope 1/(0.06 rho_jam) rounds
# 9.4e-17 high, which shifts the exponent there by up to 1.2e-15, and the
# offset's cancellation amplifies that about 500 times.
_KK_THREE_DIVISION_ERRORS = (5657.920201324272, 12.839116250020892, 4.64447702605203e-16)


def test_kk_flux_accuracy_against_exact_formula():
    """The Kerner-Konhauser flux is no less accurate than the formula it
    replaced: no larger worst error in ulps or in veh/s, and a mean error
    in ulps at most 1.5 times as large."""
    mp = pytest.importorskip("mpmath")
    max_ulps, mean_ulps, max_error = _kk_flux_errors(mp)
    old_max_ulps, old_mean_ulps, old_max_error = _KK_THREE_DIVISION_ERRORS
    assert max_ulps <= old_max_ulps
    assert max_error <= old_max_error
    assert mean_ulps <= 1.5 * old_mean_ulps


def test_kk_branch_inverses_against_exact_roots():
    """Every Kerner-Konhauser branch inverse, on one and two lanes, lands
    within _SEARCH_TOL * rho_jam of the 40-digit root of the paper's
    formula: at 100 seeded levels uniform on [0, C] and at 300 levels
    C (1 - g) near the crest, g geometric over [1e-12, 1e-3].  There
    Q = level has two close roots, and a search that stalls on the crest
    returns neither.  A Halley step taken within about
    _SEARCH_TOL * rho_jam / 4 of the crest is short however far the root
    is, and a start that follows the level smoothly lands that close for
    a band of g about 9% wide (linear interpolation on the start table's
    crest interval did, near g = 1.4e-10 on one lane); the grid's ratio,
    1.072, puts a level in every such band.  Below the level Q(rho_jam)
    the supply inverse is rho_jam."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for lanes in (1, 2):
            fd = KernerKonhauserDiagram(lanes=lanes)
            flux, jam = _kk_exact_flux(mp, lanes), mp.mpf(fd.rho_jam)
            crest = mp.findroot(lambda rho: mp.diff(flux, rho), fd.rho_crit)
            rng = np.random.default_rng(40 + lanes)
            levels = np.concatenate([
                rng.uniform(0.0, fd.capacity, 100),
                fd.capacity * (1.0 - np.geomspace(1e-12, 1e-3, 300))]).tolist()
            for method, lo, hi in (("inv_demand", 0, crest), ("inv_supply", crest, jam)):
                for level in levels:
                    rho = getattr(fd, method)(level)
                    if method == "inv_supply" and flux(jam) >= level:
                        exact = jam
                    else:
                        # the nearest root, which must lie on the branch
                        exact = mp.findroot(lambda r: flux(r) - level, rho)
                        assert lo <= exact <= hi, (lanes, method, level)
                    error = float(abs(rho - exact))
                    assert error <= _SEARCH_TOL * fd.rho_jam, (lanes, method, level, error)


def test_newton_started_next_to_the_crest_reaches_the_root():
    """A Halley search on either Kerner-Konhauser branch, started on the
    crest, where Q' = 0, or within a quarter of the tolerance of it,
    takes a short step however far the root is.  It still ends within
    _SEARCH_TOL * rho_jam of the 40-digit root: a short step ends the
    search only where the residual over the slope is short too."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for lanes in (1, 2):
            fd = KernerKonhauserDiagram(lanes=lanes)
            flux, tol = _kk_exact_flux(mp, lanes), _SEARCH_TOL * fd.rho_jam
            crest = float(mp.findroot(lambda rho: mp.diff(flux, rho), fd.rho_crit))
            for fraction in (0.01, 0.5, 0.99, 1.0 - 1e-6):
                level = fraction * fd.capacity
                for rising, lo, hi in ((True, 0.0, crest), (False, crest, fd.rho_jam)):
                    # the root next to the branch inverse, on the branch
                    inverse = fd.inv_demand if rising else fd.inv_supply
                    exact = mp.findroot(lambda r: flux(r) - level, inverse(level))
                    assert lo <= exact <= hi
                    for offset in (0.0, 0.01, 0.1, 0.25):
                        start = crest - offset * tol if rising else crest + offset * tol
                        rho = _newton(lambda r: fundamental_diagram._kk_slopes(r, fd),
                                      level, lo, hi, start, rising, tol)
                        error = float(abs(rho - exact))
                        assert error <= tol, (lanes, fraction, rising, offset, error)


# The most _kk_slopes calls one exact Kerner-Konhauser branch inverse
# takes at 400 levels in [0, C], and the most any branch takes on average
# there: measured 3 and 2.0575 on either branch and lane count, from the
# start table (6 and 3.84 for demand, 7 and 4.15 for supply, from the
# fixed starts 0 and 0.3 rho_jam).  Newton without the closed-form crest
# took 26 and 32 at C.
_KK_INVERSE_SLOPES = 3
_KK_INVERSE_MEAN_SLOPES = 2.06


@pytest.mark.parametrize("lanes", [1, 2])
def test_kk_branch_inverses_take_few_evaluations(lanes, monkeypatch):
    """Every exact Kerner-Konhauser branch inverse, the crest level C
    included, ends within a few Halley steps on Q, Q' and Q'', and most
    within two: the start table puts each search next to its root."""
    calls = []
    slopes = fundamental_diagram._kk_slopes

    def counted(rho, fd):
        calls.append(rho)
        return slopes(rho, fd)

    monkeypatch.setattr(fundamental_diagram, "_kk_slopes", counted)
    fd = KernerKonhauserDiagram(lanes=lanes)
    for method in ("inv_demand", "inv_supply"):
        counts = []
        for level in np.linspace(0.0, fd.capacity, 400).tolist():
            calls.clear()
            getattr(fd, method)(level)
            assert len(calls) <= _KK_INVERSE_SLOPES, (method, level, len(calls))
            counts.append(len(calls))
        assert np.mean(counts) <= _KK_INVERSE_MEAN_SLOPES, (method, np.mean(counts))


@pytest.mark.parametrize("lanes", [1, 2])
def test_kk_newton_slopes_are_derivatives(lanes):
    """The Kerner-Konhauser Newton steps use Q with the bits of
    ``flux_curve`` and an analytic Q' and Q'' that match central
    difference quotients (step 1e-5*rho_jam)."""
    fd = KernerKonhauserDiagram(lanes=lanes)
    slopes = fundamental_diagram._kk_slopes
    h, v0 = 1e-5 * fd.rho_jam, fd.max_wave_speed()
    for rho in np.linspace(h, fd.rho_jam - h, 201).tolist():
        q, dq, d2q = slopes(rho, fd)
        assert q == fd.flux_curve(rho)
        up, down = slopes(rho + h, fd), slopes(rho - h, fd)
        assert dq == pytest.approx((up[0] - down[0]) / (2 * h), abs=1e-7 * v0)
        assert d2q == pytest.approx((up[1] - down[1]) / (2 * h), abs=1e-7 * v0 / fd.rho_jam)


def test_builtin_inversions_skip_bisection(monkeypatch):
    """No exact built-in class bisects to invert a branch, and neither
    Greenshields nor Kerner-Konhauser to invert a fan; a subclass does.
    Nor does a ring of exact links bisect to predict, in any regime."""

    def refuse(*args):
        raise AssertionError("bisection")

    # the generic inverses bisect: refused on every class that carries
    # them, and on the base class, whose methods later subclasses take
    classes = [FundamentalDiagram]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    for method in ("_invert_branch", "_invert_fan"):
        generic = vars(FundamentalDiagram)[method]
        for cls in classes:
            if vars(cls).get(method) is generic:
                monkeypatch.setattr(cls, method, refuse)
    for name, make in _BUILT_IN.items():
        fd = make()
        for gamma in (0.0, 0.25, 1.0, 4.0, math.inf):
            assert 0.0 <= fd.rho_of_gamma(gamma) <= fd.rho_jam, (name, gamma)
        if not isinstance(fd, TriangularDiagram):
            assert 0.0 < _fan_density(fd, 0.0, fd.rho_jam, 0.0) < fd.rho_jam, name
    for family, (counting, make) in _COUNTED_FAMILIES.items():
        exact = counting.__base__
        ring = RingSpec(16.8, 2.8, make(exact, 1), make(exact, 2))
        n_a, n_c = thresholds(ring)
        for n, scenario in ((0.5 * n_a, RingScenario.BOTH_UC),
                            (0.5 * (n_a + n_c), RingScenario.CRITICAL_WITH_SS),
                            (n_c, RingScenario.CRITICAL_WITH_SOC),
                            (0.5 * (n_c + ring.max_vehicles), RingScenario.BOTH_SOC)):
            assert predict(ring.with_vehicles(n)).scenario is scenario, (family, n)
    hook = _hook_twin(_BUILT_IN["kk1"]())
    for invert in (hook.inv_demand, hook.inv_supply):
        with pytest.raises(AssertionError, match="bisection"):
            invert(0.5 * hook.capacity)
    with pytest.raises(AssertionError, match="bisection"):
        _fan_density(hook, 0.0, hook.rho_jam, 0.0)
