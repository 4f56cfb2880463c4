"""Riemann problems at a capacity change: stationary states, waves, fluxes.

The exactness assertions (== on floats) are deliberate: the solver
selects stationary states by comparison and copies components, so any
drift would signal a real logic change, not numerical noise.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdlwr import (
    BoundarySpec,
    Family,
    GreenshieldsDiagram,
    KernerKonhauserDiagram,
    Regime,
    RiemannProblem,
    SDState,
    Side,
    StationaryPattern,
    StepConfig,
    StepFunction,
    TriangularDiagram,
    Unique,
    WaveDirection,
    WaveKind,
    admissible_interior_down,
    admissible_interior_up,
    admissible_stationary_down,
    admissible_stationary_up,
    boundary_flux,
    classify,
    classify_wave,
    entropy_flux,
    from_density,
    grid_from_segments,
    run,
    sample_profile,
    solve,
    stationary_pair_check,
    to_density,
)
from sdlwr import fundamental_diagram
from sdlwr.fundamental_diagram import _SEARCH_TOL, FLUX_TOL
from sdlwr.riemann_solver import _fan_density
from sdlwr.verify_cases import _verify_families


def _lifted_problem(fd_up, fd_down, rho_up, rho_down):
    return RiemannProblem(
        fd_up, fd_down, from_density(fd_up, rho_up), from_density(fd_down, rho_down)
    )


# -- boundary flux ------------------------------------------------------


def test_boundary_flux_is_min(gs):
    p = RiemannProblem(gs, gs, SDState(0.5, 1.0), SDState(0.8, 1.0))
    assert boundary_flux(p) == 0.5


def test_boundary_flux_critical(gs):
    c = gs.capacity
    assert boundary_flux(RiemannProblem(gs, gs, SDState(c, c), SDState(c, c))) == c


def test_boundary_flux_ring_bottleneck(kk1, kk2):
    """Link 2 congested at the bottleneck flux feeding link 1: q = C1."""
    c1, c2 = kk1.capacity, kk2.capacity
    p = RiemannProblem(kk2, kk1, SDState(c2, c1), SDState(c1, c1))
    assert boundary_flux(p) == c1
    assert boundary_flux(p) == pytest.approx(0.7091, abs=5e-4)


# -- solve: the worked cases -------------------------------------------


def test_solve_free_into_free(gs):
    """SUC upstream of UC: the free state passes through unchanged and a
    forward shock forms on the downstream link."""
    sol = solve(RiemannProblem(gs, gs, SDState(0.5, 1.0), SDState(0.8, 1.0)))
    assert sol.stat_up == SDState(0.5, 1.0)
    assert sol.stat_down == SDState(0.5, 1.0)
    assert sol.boundary_flux == 0.5
    assert sol.wave_up.kind is WaveKind.NONE
    assert sol.wave_down.kind is WaveKind.SHOCK
    assert sol.wave_down.direction is WaveDirection.FORWARD
    assert sol.interior_up == Unique(SDState(0.5, 1.0))
    assert sol.interior_down == Unique(SDState(0.5, 1.0))


def test_solve_congested_into_free(gs):
    """OC upstream of UC drives both links to capacity flow, with
    rarefactions spreading in both directions."""
    sol = solve(RiemannProblem(gs, gs, SDState(1.0, 0.6), SDState(0.9, 1.0)))
    assert sol.stat_up == SDState(1.0, 1.0)
    assert sol.stat_down == SDState(1.0, 1.0)
    assert sol.boundary_flux == 1.0
    assert sol.wave_up.kind is WaveKind.RAREFACTION
    assert sol.wave_up.direction is WaveDirection.BACKWARD
    assert sol.wave_down.kind is WaveKind.RAREFACTION
    assert sol.wave_down.direction is WaveDirection.FORWARD
    # critical-flux tie: the admissible interiors form one-sided families
    assert isinstance(sol.interior_up, Family)
    assert sol.interior_up.min_demand == 1.0
    assert sol.interior_up.min_supply == 1.0
    assert sol.interior_up.representative == sol.stat_up


def test_solve_capacity_step(gs):
    """Free flow into a wider road: upstream unchanged, the downstream
    link relaxes through a forward rarefaction."""
    wide = GreenshieldsDiagram(1.0, 8.0)  # capacity 2
    u1, u2 = SDState(0.7, 1.0), SDState(0.5, 2.0)
    sol = solve(RiemannProblem(gs, wide, u1, u2))
    assert sol.stat_up == u1
    assert sol.stat_down == SDState(0.7, 2.0)
    assert sol.boundary_flux == 0.7
    assert sol.wave_up.kind is WaveKind.NONE
    assert sol.wave_down.kind is WaveKind.RAREFACTION
    assert sol.wave_down.direction is WaveDirection.FORWARD


def test_solve_tie_families(gs):
    """D1 = S2 exactly: stationary states keep their own sides and both
    interiors are reported as families pinned to the common flux."""
    q = 0.37
    sol = solve(RiemannProblem(gs, gs, SDState(q, 1.0), SDState(1.0, q)))
    assert sol.stat_up == SDState(q, 1.0)
    assert sol.stat_down == SDState(1.0, q)
    assert sol.boundary_flux == q
    assert sol.wave_up.kind is WaveKind.NONE
    assert sol.wave_down.kind is WaveKind.NONE
    for interior in (sol.interior_up, sol.interior_down):
        assert isinstance(interior, Family)
        assert interior.min_demand == q
        assert interior.min_supply == q


# -- wave classification ------------------------------------------------


def test_classify_wave_equal_states(gs):
    w = classify_wave(gs, SDState(0.75, 1.0), SDState(0.75, 1.0), Side.UPSTREAM)
    assert w.kind is WaveKind.NONE


def test_classify_wave_backward_rarefaction(gs):
    # densities 3 -> 2.5 on the congested branch; Q'(rho) = 1 - rho/2
    w = classify_wave(gs, SDState(1.0, 0.75), SDState(1.0, 0.9375), Side.UPSTREAM)
    assert w.kind is WaveKind.RAREFACTION
    assert w.direction is WaveDirection.BACKWARD
    assert w.speed_range[0] == pytest.approx(-0.5, abs=1e-6)
    assert w.speed_range[1] == pytest.approx(-0.25, abs=1e-6)


def test_classify_wave_zero_shock(gs):
    # rho 1 -> 3 share the flux 0.75, so the jump stands still
    w = classify_wave(gs, SDState(0.75, 1.0), SDState(1.0, 0.75), Side.DOWNSTREAM)
    assert w.kind is WaveKind.SHOCK
    assert w.direction is WaveDirection.ZERO
    assert w.speed_range[0] == pytest.approx(0.0, abs=1e-9)


def test_classify_wave_refusals(gs):
    """A strictly congested left state against a strictly free right one
    (a transonic rarefaction) raises, and so does a wave declared on the
    link its speeds leave."""
    c = gs.capacity
    with pytest.raises(RuntimeError, match="transonic rarefaction"):
        classify_wave(gs, SDState(c, 0.5), SDState(0.5, c), Side.UPSTREAM)
    # a forward rarefaction and a backward one
    with pytest.raises(RuntimeError, match="upstream wave with positive speed"):
        classify_wave(gs, SDState(0.75, c), SDState(0.5, c), Side.UPSTREAM)
    with pytest.raises(RuntimeError, match="downstream wave with negative speed"):
        classify_wave(gs, SDState(c, 0.75), SDState(c, 0.9375), Side.DOWNSTREAM)


def test_classify_wave_refuses_states_off_the_diagram(gs):
    """An end state that is neither under- nor over-critical raises the
    ValueError ``classify`` raises, naming that state, on either end and
    whatever the other state's regime."""
    fd = TriangularDiagram(30e-3, 150.0, q_max=0.6, v_cong=6e-3)
    on, off = SDState(0.3217, 0.6000000001), SDState(0.3217, 0.5999999988)
    with pytest.raises(ValueError, match=re.escape(
            f"state {off} is not on the demand-supply set of a link with "
            "capacity 0.6 veh/s (max component must equal capacity)")):
        classify_wave(fd, on, off, Side.UPSTREAM)
    c = gs.capacity
    off = SDState(0.5, 0.75)
    for left, right in ((off, SDState(0.5, c)), (off, SDState(c, 0.5)),
                        (SDState(0.5, c), off), (SDState(c, 0.5), off)):
        with pytest.raises(ValueError, match=re.escape(f"state {off} is not on")):
            classify_wave(gs, left, right, Side.UPSTREAM)


# -- admissibility predicates -------------------------------------------


def test_stationary_admissibility(gs):
    c = gs.capacity
    for u1 in (SDState(0.5, c), SDState(c, 0.3), SDState(c, c)):
        assert admissible_stationary_up(u1, u1, c)
    # congested candidate must carry less than the upstream demand
    assert not admissible_stationary_up(SDState(0.5, c), SDState(c, 0.7), c)
    assert admissible_stationary_up(SDState(0.5, c), SDState(c, 0.3), c)
    # downstream mirror: free candidate below the downstream supply
    assert admissible_stationary_down(SDState(c, 0.6), SDState(0.4, c), c)
    assert not admissible_stationary_down(SDState(c, 0.6), SDState(0.8, c), c)
    # the borders: S = D1 (a zero-speed shock that never detaches) and S
    # within FLUX_TOL of D1 are rejected, D1 - 2 FLUX_TOL admitted; D = S2
    # downstream likewise
    for gap, admitted in ((0.0, False), (0.5 * FLUX_TOL, False),
                          (FLUX_TOL, False), (2.0 * FLUX_TOL, True)):
        level = 0.5 - gap
        assert admissible_stationary_up(SDState(0.5, c), SDState(c, level), c) is admitted
        assert admissible_stationary_down(SDState(c, 0.5), SDState(level, c), c) is admitted


def test_interior_admissibility(gs):
    c = gs.capacity
    stat_uc = SDState(0.5, c)
    assert admissible_interior_up(stat_uc, stat_uc, c)
    # any interior with supply below the stationary demand is ruled out
    assert not admissible_interior_up(stat_uc, SDState(c, 0.499), c)
    assert admissible_interior_up(stat_uc, SDState(c, 0.7), c)
    stat_oc = SDState(c, 0.6)
    assert admissible_interior_down(stat_oc, stat_oc, c)
    assert admissible_interior_down(stat_oc, SDState(c, 0.3), c)
    assert not admissible_interior_down(stat_oc, SDState(0.55, c), c)
    # over-critical stationary states pin the upstream interior uniquely
    assert not admissible_interior_up(SDState(c, 0.6), SDState(c, 0.7), c)
    # the borders: a stationary supply (upstream) or demand (downstream)
    # 2 FLUX_TOL below C is strict and pins the interior; FLUX_TOL/2 below
    # C counts as critical and admits any interior that covers it
    for below, pinned in ((2.0 * FLUX_TOL, True), (0.5 * FLUX_TOL, False)):
        stat_up, stat_down = SDState(c, c - below), SDState(c - below, c)
        assert admissible_interior_up(stat_up, stat_up, c)
        assert admissible_interior_down(stat_down, stat_down, c)
        # far from the stationary state, but letting its flux C through
        assert admissible_interior_up(stat_up, SDState(0.5 * c, c), c) is not pinned
        assert admissible_interior_down(stat_down, SDState(c, 0.5 * c), c) is not pinned


def test_down_admissibility_is_the_mirrored_up():
    """The supply-demand mirror (D, S) -> (S, D) swaps the two sides of
    the boundary, so each ``admissible_*_down`` equals its ``_up`` on the
    swapped states.  Seeded draws put each component anywhere below
    capacity, on it, or next to capacity or to an earlier component,
    within a few FLUX_TOL, so every tie band is crossed."""
    rng = np.random.default_rng(26)
    c, n = 0.7, 5000
    offsets = FLUX_TOL * np.array([-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0])
    drawn = np.empty((n, 4))
    for j in range(4):
        earlier = drawn[np.arange(n), rng.integers(j, size=n)] if j else np.full(n, c)
        base = np.choose(rng.integers(3, size=n),
                         [rng.uniform(0.0, c, n), np.full(n, c), earlier])
        drawn[:, j] = np.maximum(0.0, base + rng.choice(offsets, n))
    outcomes = set()
    for d1, s1, d2, s2 in drawn.tolist():
        u, cand = SDState(d1, s1), SDState(d2, s2)
        mirrored = SDState(s1, d1), SDState(s2, d2)
        stationary = admissible_stationary_down(u, cand, c)
        interior = admissible_interior_down(u, cand, c)
        assert stationary == admissible_stationary_up(*mirrored, c), (u, cand)
        assert interior == admissible_interior_up(*mirrored, c), (u, cand)
        outcomes.add((stationary, interior))
    assert len(outcomes) == 4


def test_entropy_flux(gs):
    c = gs.capacity
    assert entropy_flux(SDState(0.5, c), SDState(0.5, c)) == 0.5
    # family members in the tie case still produce the common flux
    q = 0.37
    assert entropy_flux(SDState(q, c), SDState(c, q)) == q
    assert entropy_flux(SDState(c, q), SDState(c, q)) == q
    # interiors at (C1, q0), (q0, C2) would force the flux up to
    # min(C1, C2): the contradiction ruling such pairs out
    q0 = 0.3
    assert entropy_flux(SDState(c, q0), SDState(q0, 2.0)) == min(c, 2.0)
    assert entropy_flux(SDState(c, q0), SDState(q0, 2.0)) != q0


def test_stationary_pair_check(gs):
    c1, c2 = 1.0, 2.0
    q = 0.6
    assert (
        stationary_pair_check(SDState(q, c1), SDState(q, c2), c1, c2)
        is StationaryPattern.BOTH_UC
    )
    assert (
        stationary_pair_check(SDState(c1, q), SDState(c2, q), c1, c2)
        is StationaryPattern.BOTH_OC
    )
    assert (
        stationary_pair_check(SDState(q, c1), SDState(c2, q), c1, c2)
        is StationaryPattern.UP_UC_DOWN_OC
    )
    assert (
        stationary_pair_check(SDState(c1, q), SDState(q, c2), c1, c2)
        is StationaryPattern.FORBIDDEN
    )
    with pytest.raises(ValueError):
        stationary_pair_check(SDState(0.3, c1), SDState(0.4, c2), c1, c2)


def test_stationary_pair_check_refuses_states_off_the_diagram():
    """Both regimes come from ``classify``: a state with neither component
    at its link's capacity, one above it, or a NaN capacity raises."""
    c1, c2 = 1.0, 2.0
    for up, down, cap_up, cap_down in [
            (SDState(0.5, 0.9), SDState(0.5, c2), c1, c2),  # upstream off
            (SDState(0.5, c1), SDState(0.5, 1.9), c1, c2),  # downstream off
            (SDState(0.5, 1.5), SDState(0.5, c2), c1, c2),  # above capacity
            (SDState(0.5, 1.0), SDState(0.5, 2.0), float("nan"), c2)]:
        with pytest.raises(ValueError, match="capacity"):
            stationary_pair_check(up, down, cap_up, cap_down)


def test_stationary_pair_check_is_mirror_symmetric():
    """The mirror (D, S) -> (S, D) with the sides swapped trades BOTH_UC
    and BOTH_OC and keeps the other two patterns; a pair of two critical
    states is both, and reads BOTH_UC either way.  A pair that is
    refused is refused mirrored too.  Seeded draws share one flux up to
    a few FLUX_TOL and put each state on, next to or off its link's
    diagram, so that every tie band is crossed."""
    rng = np.random.default_rng(28)
    mirror = {StationaryPattern.BOTH_UC: StationaryPattern.BOTH_OC,
              StationaryPattern.BOTH_OC: StationaryPattern.BOTH_UC,
              StationaryPattern.UP_UC_DOWN_OC: StationaryPattern.UP_UC_DOWN_OC,
              StationaryPattern.FORBIDDEN: StationaryPattern.FORBIDDEN}
    n = 20_000
    offsets = FLUX_TOL * np.array([-3.0, -1.0, -0.5, 0.0, 0.0, 0.0, 0.5, 1.0, 3.0])
    caps = np.where(rng.random((n, 2)) < 0.5, rng.uniform(0.5, 2.0, (n, 2)), 0.7)
    low = caps.min(axis=1)
    q = np.where(rng.random(n) < 0.3, low, rng.uniform(0.0, low))
    flux = np.maximum(0.0, q[:, None] + rng.choice(offsets, (n, 2)))
    full = np.maximum(0.0, caps + rng.choice(offsets, (n, 2)))
    under = rng.random((n, 2)) < 0.5
    demand, supply = np.where(under, flux, full), np.where(under, full, flux)
    outcomes = set()
    for caps_k, d, s in zip(caps.tolist(), demand.tolist(), supply.tolist()):
        states = up, down = SDState(d[0], s[0]), SDState(d[1], s[1])
        results = []
        for args in ((up, down, *caps_k),
                     (SDState(s[1], d[1]), SDState(s[0], d[0]), caps_k[1], caps_k[0])):
            try:
                results.append(stationary_pair_check(*args))
            except ValueError:
                results.append(ValueError)
        expected = mirror.get(results[0], ValueError)
        if results[0] is StationaryPattern.BOTH_UC and all(
                classify(state, cap) is Regime.CRITICAL
                for state, cap in zip(states, caps_k)):
            expected = StationaryPattern.BOTH_UC
            outcomes.add("critical pair")
        assert results[1] == expected, (up, down, caps_k)
        outcomes.add(results[0])
    assert outcomes == {*mirror, ValueError, "critical pair"}


# -- structural properties over random problems -------------------------


def _random_problem(rng, zoo):
    fd_up, fd_down = rng.choice(zoo), rng.choice(zoo)
    rho_up = rng.uniform(0.01, 0.99) * fd_up.rho_jam
    rho_down = rng.uniform(0.01, 0.99) * fd_down.rho_jam
    return _lifted_problem(fd_up, fd_down, rho_up, rho_down)


def test_trichotomy_structure(family_zoo):
    rng = np.random.default_rng(99)
    for _ in range(600):
        p = _random_problem(rng, family_zoo)
        sol = solve(p)
        d1, s2 = p.u1.demand, p.u2.supply
        c1, c2 = p.fd_up.capacity, p.fd_down.capacity
        if abs(d1 - s2) <= 1e-9:
            continue  # engineered ties are covered separately
        if d1 < s2:
            assert sol.stat_up == SDState(d1, c1)
            assert sol.stat_down == SDState(d1, c2)
        else:
            assert sol.stat_up == SDState(c1, s2)
            assert sol.stat_down == SDState(c2, s2)
        assert sol.interior_up == Unique(sol.stat_up)
        assert sol.interior_down == Unique(sol.stat_down)
        assert sol.boundary_flux == min(d1, s2)


def test_flux_independent_of_passive_components(family_zoo):
    """Perturbing the upstream supply or the downstream demand never moves
    the stationary states or the flux."""
    rng = np.random.default_rng(41)
    for _ in range(300):
        fd_up, fd_down = rng.choice(family_zoo), rng.choice(family_zoo)
        c1, c2 = fd_up.capacity, fd_down.capacity
        u1 = SDState(c1, rng.uniform(0.0, 1.0) * c1)  # OC: free supply slot
        u2 = SDState(rng.uniform(0.0, 1.0) * c2, c2)  # UC: free demand slot
        base = solve(RiemannProblem(fd_up, fd_down, u1, u2))
        u1b = SDState(c1, rng.uniform(0.0, 1.0) * c1)
        u2b = SDState(rng.uniform(0.0, 1.0) * c2, c2)
        alt = solve(RiemannProblem(fd_up, fd_down, u1b, u2b))
        assert alt.boundary_flux == base.boundary_flux
        assert alt.stat_up == base.stat_up
        assert alt.stat_down == base.stat_down


def test_resolving_stationary_states_is_stable(family_zoo):
    """Feeding the stationary states back in returns them unchanged with
    no waves on either link."""
    rng = np.random.default_rng(17)
    for _ in range(300):
        p = _random_problem(rng, family_zoo)
        sol = solve(p)
        again = solve(RiemannProblem(p.fd_up, p.fd_down, sol.stat_up, sol.stat_down))
        assert again.stat_up == sol.stat_up
        assert again.stat_down == sol.stat_down
        assert again.wave_up.kind is WaveKind.NONE
        assert again.wave_down.kind is WaveKind.NONE


def test_wave_speed_signs(family_zoo):
    """Upstream waves run backward (speeds <= 0), downstream forward."""
    rng = np.random.default_rng(4)
    for _ in range(400):
        sol = solve(_random_problem(rng, family_zoo))
        if sol.wave_up.kind is not WaveKind.NONE:
            assert max(sol.wave_up.speed_range) <= 1e-6
        if sol.wave_down.kind is not WaveKind.NONE:
            assert min(sol.wave_down.speed_range) >= -1e-6


_VERIFY_FAMILIES = _verify_families()


def _oracle_problems(rng, per_pair):
    """Random lifted densities on every ordered family pair, and as many
    engineered ties D1 = S2 (including ties at the smaller capacity)."""
    for fd_up in _VERIFY_FAMILIES:
        for fd_down in _VERIFY_FAMILIES:
            c1, c2 = fd_up.capacity, fd_down.capacity
            for _ in range(per_pair):
                yield RiemannProblem(
                    fd_up, fd_down,
                    from_density(fd_up, rng.uniform(0.0, fd_up.rho_jam)),
                    from_density(fd_down, rng.uniform(0.0, fd_down.rho_jam)))
                q = min(c1, c2) * (1.0 if rng.uniform() < 0.2 else rng.uniform())
                yield RiemannProblem(fd_up, fd_down, SDState(q, c1),
                                     SDState(c2, q))


def test_admissibility_conditions_certify_solve():
    """Every solution satisfies the paper's admissibility conditions:
    admissible stationary and interior states, the entropy flux of the
    interiors equal to the boundary flux, and a stationary pair that is
    not the forbidden one."""
    rng = np.random.default_rng(2024)
    ties = 0
    for p in _oracle_problems(rng, per_pair=100):
        sol = solve(p)
        c1, c2 = p.fd_up.capacity, p.fd_down.capacity
        assert admissible_stationary_up(p.u1, sol.stat_up, c1), p
        assert admissible_stationary_down(p.u2, sol.stat_down, c2), p
        up = sol.interior_up.representative
        down = sol.interior_down.representative
        assert admissible_interior_up(sol.stat_up, up, c1), p
        assert admissible_interior_down(sol.stat_down, down, c2), p
        assert entropy_flux(up, down) == sol.boundary_flux, p
        pattern = stationary_pair_check(sol.stat_up, sol.stat_down, c1, c2)
        assert pattern is not StationaryPattern.FORBIDDEN, p
        if isinstance(sol.interior_up, Family):
            ties += 1
            # the family's congested extreme is admissible too
            extreme = SDState(c1, sol.interior_up.min_supply)
            assert admissible_interior_up(sol.stat_up, extreme, c1), p
            assert entropy_flux(extreme, down) == pytest.approx(
                sol.boundary_flux, abs=FLUX_TOL)
    assert ties >= 16 * 100


_FRAC = st.floats(min_value=0.01, max_value=0.99)


@settings(max_examples=300, deadline=None)
@given(i=st.integers(0, 5), j=st.integers(0, 5), f1=_FRAC, f2=_FRAC)
def test_flux_formula_exact(family_zoo, i, j, f1, f2):
    fd_up, fd_down = family_zoo[i], family_zoo[j]
    p = _lifted_problem(fd_up, fd_down, f1 * fd_up.rho_jam, f2 * fd_down.rho_jam)
    assert solve(p).boundary_flux == min(p.u1.demand, p.u2.supply)


# -- self-similar profile -----------------------------------------------


def test_sample_profile_case_structure(gs):
    p = RiemannProblem(gs, gs, SDState(0.5, 1.0), SDState(0.8, 1.0))
    sol = solve(p)
    sigma = sol.wave_down.speed_range[0]  # forward shock speed
    rho = sample_profile(p, [-0.5, 0.5 * sigma, 2.0 * sigma], sol)
    assert rho[0] == pytest.approx(to_density(gs, p.u1), abs=1e-7)
    assert rho[1] == pytest.approx(to_density(gs, sol.stat_down), abs=1e-7)
    assert rho[2] == pytest.approx(to_density(gs, p.u2), abs=1e-7)


def test_sample_profile_rarefaction_fan(gs):
    """Inside a fan the sampled density inverts the characteristic speed:
    Q'(rho) = xi, which for Greenshields gives rho = 2 (1 - xi)."""
    p = RiemannProblem(gs, gs, SDState(1.0, 0.6), SDState(0.9, 1.0))
    for xi in (-0.4, -0.2, 0.1, 0.25):
        rho = sample_profile(p, [xi])[0]
        assert rho == pytest.approx(2.0 * (1.0 - xi), abs=1e-6)


def test_sample_profile_refuses_nan():
    """A NaN coordinate raises, naming it, where it used to sample the
    downstream state; -inf and +inf still give the far-field states."""
    fd = GreenshieldsDiagram(0.03, 120.0)
    p = _lifted_problem(fd, fd, 20.0, 80.0)
    assert sample_profile(p, [-np.inf, np.inf]) == pytest.approx([20.0, 80.0], abs=1e-9)
    with pytest.raises(ValueError, match="got nan at index 1"):
        sample_profile(p, [0.0, np.nan])


# The mean _kk_slopes calls per fan sample in
# test_kk_fan_samples_start_from_their_neighbours: measured 4.205 and 4.158
# on one and two lanes, each search starting at the sample before it (5.30
# on both from the fan's midpoint).
_KK_FAN_MEAN_SLOPES = 4.21


@pytest.mark.parametrize("lanes", [1, 2])
def test_kk_fan_samples_start_from_their_neighbours(lanes, monkeypatch):
    """On seeded Kerner-Konhauser rarefactions, sampled at 101 points as
    the benchmark's Riemann sweep samples them: each fan density lies
    within _SEARCH_TOL * rho_jam of a search from the fan's midpoint,
    the fan's densities fall as xi rises, the profile of shuffled xi is
    the same profile, bit for bit, and the searches take few Newton steps
    on average."""
    calls, per_sample = [], []
    slopes, invert_fan = fundamental_diagram._kk_slopes, KernerKonhauserDiagram._invert_fan

    def counted_slopes(rho, fd):
        calls.append(rho)
        return slopes(rho, fd)

    def counted_fan(fd, *args):
        before = len(calls)
        rho = invert_fan(fd, *args)
        per_sample.append(len(calls) - before)
        return rho

    monkeypatch.setattr(fundamental_diagram, "_kk_slopes", counted_slopes)
    monkeypatch.setattr(KernerKonhauserDiagram, "_invert_fan", counted_fan)
    fd = KernerKonhauserDiagram(lanes=lanes)
    tol = _SEARCH_TOL * fd.rho_jam
    xi = np.linspace(-1.1, 1.1, 101) * fd.max_wave_speed()
    rng = np.random.default_rng(50 + lanes)
    counts, fans = [], 0
    for _ in range(40):
        rho_down, rho_up = np.sort(rng.uniform(0.0, fd.rho_jam, 2)).tolist()
        p = _lifted_problem(fd, fd, rho_up, rho_down)
        sol = solve(p)
        waves = [(wave, xi < 0.0 if wave is sol.wave_up else xi >= 0.0)
                 for wave in (sol.wave_up, sol.wave_down)
                 if wave.kind is WaveKind.RAREFACTION]
        per_sample.clear()
        profile = sample_profile(p, xi, sol)
        counts += per_sample
        for wave, side in waves:
            s_min, s_max = wave.speed_range
            fan = side & (xi >= s_min) & (xi <= s_max)
            fans += 1
            assert np.all(np.diff(profile[fan]) <= 0.0), (rho_up, rho_down)
            for x, rho in zip(xi[fan].tolist(), profile[fan].tolist()):
                cold = _fan_density(fd, wave.rho_right, wave.rho_left, x)
                assert abs(rho - cold) <= tol, (rho_up, rho_down, x)
        order = rng.permutation(xi.size)
        assert np.array_equal(sample_profile(p, xi[order], sol), profile[order])
    assert fans >= 40 and len(counts) >= 400
    assert np.mean(counts) <= _KK_FAN_MEAN_SLOPES, np.mean(counts)


# -- the numerical limit ------------------------------------------------


def _greenshields_pair(rng):
    def draw():
        return GreenshieldsDiagram(rng.uniform(0.8, 1.25), rng.uniform(2.5, 6.0))

    return draw(), draw()


def _kerner_pair(rng):
    lanes = rng.choice([1.0, 1.5, 2.0], size=2)
    return KernerKonhauserDiagram(lanes[0]), KernerKonhauserDiagram(lanes[1])


def _characteristics_clear(fd, state_a, state_b, sign, eps):
    """True when every entropy-wave speed between the two states moves
    away from the link boundary by at least eps.

    The flux need not be concave (Kerner-Konhauser has an inflection),
    so the jump may resolve into a composite shock/fan structure; all
    its speeds still lie inside the range of Q' over the density
    interval, which is what gets bounded here.  sign is -1 for the
    upstream link (waves must run backward) and +1 downstream.
    """
    ra, rb = to_density(fd, state_a), to_density(fd, state_b)
    lo, hi = min(ra, rb), max(ra, rb)
    if hi - lo <= 1e-12 * fd.rho_jam:
        return True
    speeds = [fd.derivative(r) for r in np.linspace(lo, hi, 65)]
    if sign < 0:
        return max(speeds) <= -eps
    return min(speeds) >= eps


def test_godunov_limit_matches_stationary_states():
    """Fine-grid simulations converge to the predicted stationary states
    next to the interface (100 random problems, 2000 cells, CFL 0.5).

    The property is about the t -> inf limit, so a finite run needs the
    emitted waves clear of the checked window: problems whose shocks
    move too slowly, or whose exact self-similar profile has not yet
    settled to the stationary state at the checked rays x/T, are
    redrawn.  The tolerance is 1e-3 of the jam density on each side,
    checked two to four cells from the interface so the single
    admissible interior cell never interferes.
    """
    rng = np.random.default_rng(20260816)
    n_side, dx = 1000, 1e-3
    max_chunks, chunk = 6, 1500
    checked = 0
    while checked < 100:
        fd_up, fd_down = (
            _greenshields_pair(rng) if checked < 70 else _kerner_pair(rng)
        )
        rho_up = rng.uniform(0.02, 0.98) * fd_up.rho_jam
        rho_down = rng.uniform(0.02, 0.98) * fd_down.rho_jam
        p = _lifted_problem(fd_up, fd_down, rho_up, rho_down)
        sol = solve(p)
        vmax = max(fd_up.max_wave_speed(), fd_down.max_wave_speed())
        horizon = max_chunks * chunk * 0.5 * dx / vmax
        eps = 8 * dx / horizon
        if checked < 70:
            # concave flux: the two-wave solution is exact, so guard with
            # the emitted shock speeds and the self-similar profile at the
            # outermost checked rays (transonic fans stay covered)
            slow_shock = any(
                w.kind is WaveKind.SHOCK and abs(w.speed_range[0]) * horizon < 8 * dx
                for w in (sol.wave_up, sol.wave_down)
            )
            if slow_shock:
                continue
            ray = 3.5 * dx / horizon
            settled = sample_profile(p, [-ray, ray], sol)
            if (
                abs(settled[0] - to_density(fd_up, sol.stat_up)) > 3e-4 * fd_up.rho_jam
                or abs(settled[1] - to_density(fd_down, sol.stat_down))
                > 3e-4 * fd_down.rho_jam
            ):
                continue
        else:
            # non-concave flux: jumps may be composite waves, so require
            # the full characteristic range on each link to clear
            if not _characteristics_clear(fd_up, p.u1, sol.stat_up, -1, eps):
                continue
            if not _characteristics_clear(fd_down, sol.stat_down, p.u2, +1, eps):
                continue

        target_up = to_density(fd_up, sol.stat_up)
        target_dn = to_density(fd_down, sol.stat_down)
        tol_up, tol_dn = 1e-3 * fd_up.rho_jam, 1e-3 * fd_down.rho_jam
        bs = BoundarySpec(
            StepFunction((0.0,), (p.u1.demand,)), StepFunction((0.0,), (p.u2.supply,))
        )
        rho0 = np.concatenate(
            [np.full(n_side, rho_up), np.full(n_side, rho_down)]
        )
        grid = grid_from_segments(
            [(fd_up, n_side), (fd_down, n_side)], dx, rho=rho0, boundaries=bs
        )
        cfg = StepConfig(dt=0.5 * dx / grid.max_wave_speed())
        for _ in range(max_chunks):
            rec = run(grid, cfg, duration=chunk * cfg.dt, record_every=chunk)
            grid = grid.with_density(rec.final_rho)
            up = rec.final_rho[n_side - 4 : n_side - 1]
            dn = rec.final_rho[n_side + 1 : n_side + 4]
            if np.all(np.abs(up - target_up) < 0.3 * tol_up) and np.all(
                np.abs(dn - target_dn) < 0.3 * tol_dn
            ):
                break
        label = f"problem {checked}: {fd_up} {rho_up:.3f} | {fd_down} {rho_down:.3f}"
        assert np.all(np.abs(up - target_up) < tol_up), f"{label}: up {up}"
        assert np.all(np.abs(dn - target_dn) < tol_dn), f"{label}: down {dn}"
        checked += 1
