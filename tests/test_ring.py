"""Two-link ring: thresholds, stationary predictions, feasibility."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sdlwr import (
    BoundarySide,
    ConfigError,
    FeasibilityCell,
    GreenshieldsDiagram,
    InteriorSite,
    KernerKonhauserDiagram,
    LinkPattern,
    RingScenario,
    RingSpec,
    TriangularDiagram,
    feasibility_table,
    grid_from_segments,
    initial_density,
    predict,
    thresholds,
    vehicles_of_initial,
)
from sdlwr.ring_analysis import BOUNDARY_TOL

# Regression values for the 16.8 km ring with the 2.8 km single-lane
# bottleneck: the package's own outputs, pinned at 1e-9.  A 40-digit
# mpmath solution of the same model (test_thresholds_match_exact_reference)
# gives rho_crit_1 = 35.894437152546349, R2(C1/C2) = 26.416204364744158,
# R2(C2/C1) = 118.35503462303220, N_a = 470.33128513354799 and
# N_c = 1757.4749087495806.  The Newton inverses hit both R2 to the last
# digit, where bisection was +4.1e-9 and -1.4e-8 veh/km off.  R1(1) =
# D1^-1(C1) is the located critical density in closed form, as Q is flat
# in floating point at the crest: the golden-section search puts it
# 9.8e-8 veh/km above the exact crest, and that alone puts N_a and N_c
# +2.75e-7 veh off (1.22e-7 and +3.4e-7 with the flux formula that took
# three divisions).  A Newton search of the crest level sat 4.9e-9 veh/km
# below it (1.4e-8 veh lower thresholds; bisection: +3.7e-7 and +1.2e-7).
N_LOWER = 470.3312854090203
N_UPPER = 1757.4749090250527
N_SINE_28 = 858.3892954340843
SHOCK_POS_28 = 12.579171771765264
RHO_CRIT_1 = 35.89443725092931


# -- geometry and validation ----------------------------------------------


def test_spec_rejects_bad_geometry(kk1, kk2):
    with pytest.raises(ValueError, match="0 < L1"):
        RingSpec(16.8, 0.0, kk1, kk2)
    with pytest.raises(ValueError, match="0 < L1"):
        RingSpec(16.8, 17.0, kk1, kk2)
    with pytest.raises(ValueError, match="bottleneck"):
        RingSpec(16.8, 2.8, kk2, kk1)


@pytest.mark.parametrize("L, L1", [(math.inf, 2.8), (math.inf, math.inf),
                                   (math.nan, 2.8), (16.8, math.nan)])
def test_spec_rejects_a_ring_that_is_not_finite(kk1, kk2, L, L1):
    with pytest.raises(ValueError, match="0 < L1 <= L < inf"):
        RingSpec(L, L1, kk1, kk2)


def test_spec_derived_quantities(ring, kk1, kk2):
    assert ring.L2_len == pytest.approx(14.0)
    assert ring.max_vehicles == pytest.approx(
        kk1.rho_jam * 2.8 + kk2.rho_jam * 14.0
    )
    assert ring.N is None
    loaded = ring.with_vehicles(900.0)
    assert loaded.N == 900.0
    assert ring.N is None


def test_thresholds_frozen_and_published_values(ring):
    n_a, n_c = thresholds(ring)
    assert n_a == pytest.approx(N_LOWER, abs=1e-9)
    assert n_c == pytest.approx(N_UPPER, abs=1e-9)
    # the four-decimal values quoted for this geometry
    assert n_a == pytest.approx(470.3311, abs=1e-3)
    assert n_c == pytest.approx(1757.4746, abs=1e-3)
    assert 0.0 < n_a < n_c < ring.max_vehicles


def test_thresholds_match_exact_reference(ring, kk1, kk2):
    """The threshold densities and counts against a 40-digit mpmath
    solution of the same Kerner-Konhauser model: R2(C1/C2) and R2(C2/C1)
    to 1e-12 relative, N_a and N_c to 1e-6 veh, the limit the flat crest
    of Q sets on locating rho_crit1 = D1^-1(C1) in floating point."""
    mp = pytest.importorskip("mpmath")

    def flux(rho, lanes):  # KernerKonhauserDiagram's law in exact decimals
        x = (rho / (180 * lanes) - mp.mpf("0.25")) / mp.mpf("0.06")
        speed = mp.mpf("5.0461") * (1 / (1 + mp.exp(x)) - mp.mpf("3.72e-6"))
        return rho * speed * mp.mpf("0.028") / 5

    with mp.workdps(40):
        crest = mp.findroot(lambda r: mp.diff(lambda x: flux(x, 1), r), 36)
        c1 = flux(crest, 1)  # and C2 = 2 C1: Q(rho, 2a) = 2 Q(rho/2, a)
        free = mp.findroot(lambda r: flux(r, 2) - c1, (1, 2 * crest),
                           solver="anderson")
        cong = mp.findroot(lambda r: flux(r, 2) - c1, (2 * crest, 359),
                           solver="anderson")
        n_a, n_c = (float(crest * mp.mpf("2.8") + rho * 14) for rho in (free, cong))
    c1, c2 = kk1.capacity, kk2.capacity
    assert kk2.rho_of_gamma(c1 / c2) == pytest.approx(float(free), rel=1e-12)
    assert kk2.rho_of_gamma(c2 / c1) == pytest.approx(float(cong), rel=1e-12)
    assert thresholds(ring) == pytest.approx((n_a, n_c), abs=1e-6)


def test_threshold_densities(ring, kk1, kk2):
    c1, c2 = kk1.capacity, kk2.capacity
    assert kk1.rho_of_gamma(1.0) == pytest.approx(RHO_CRIT_1, abs=1e-9)
    # the crest level inverts to the located critical density exactly
    assert kk1.rho_of_gamma(1.0) == kk1.rho_crit
    assert kk2.rho_of_gamma(c1 / c2) == pytest.approx(26.4162, abs=1e-3)
    assert kk2.rho_of_gamma(c2 / c1) == pytest.approx(118.3550, abs=1e-3)


def test_degenerate_single_link_ring(kk1, kk2):
    solo = RingSpec(16.8, 16.8, kk1, kk2)
    n_a, n_c = thresholds(solo)
    assert n_a == n_c == pytest.approx(RHO_CRIT_1 * 16.8, abs=1e-9)


# -- stationary predictions -----------------------------------------------


def test_predict_requires_vehicle_count(ring):
    with pytest.raises(ValueError, match="not set"):
        predict(ring)
    with pytest.raises(ValueError, match="outside"):
        predict(ring.with_vehicles(-1.0))
    with pytest.raises(ValueError, match="outside"):
        predict(ring.with_vehicles(ring.max_vehicles + 1.0))
    with pytest.raises(ValueError, match="outside"):
        predict(ring.with_vehicles(math.nan))


def test_predict_light_traffic(ring, kk1):
    pred = predict(ring.with_vehicles(300.0))
    assert pred.scenario is RingScenario.BOTH_UC
    assert pred.q < kk1.capacity
    assert pred.interior_sites == ()
    assert pred.L2 is None
    assert pred.vehicle_count() == pytest.approx(300.0, rel=1e-6)
    # both links under-critical: densities below their critical values
    assert pred.profile[0].rho < kk1.rho_crit
    assert pred.profile[1].rho < ring.fd2.rho_crit


def test_predict_lower_threshold_site(ring, kk1):
    pred = predict(ring.with_vehicles(N_LOWER))
    assert pred.scenario is RingScenario.BOTH_UC
    assert pred.q == kk1.capacity
    assert pred.interior_sites == (InteriorSite(16.8, BoundarySide.MINUS),)
    assert pred.interior_sites[0].cell_index(16.8 / 600, 600) == 599
    assert pred.vehicle_count() == pytest.approx(N_LOWER, rel=1e-12)


def test_predict_standing_shock(ring, kk1, kk2):
    pred = predict(ring.with_vehicles(N_SINE_28))
    assert pred.scenario is RingScenario.CRITICAL_WITH_SS
    assert pred.q == kk1.capacity
    assert pred.L2 == pytest.approx(SHOCK_POS_28, abs=1e-9)
    assert pred.interior_sites == (
        InteriorSite(pred.L2, BoundarySide.MINUS),
        InteriorSite(pred.L2, BoundarySide.PLUS),
    )
    # the shock sits strictly inside a cell of the 600-cell grid, so
    # both faces point at the same cell
    assert {s.cell_index(16.8 / 600, 600) for s in pred.interior_sites} == {449}
    rho1, rho_free, rho_cong = (seg.rho for seg in pred.profile)
    assert rho1 == pytest.approx(RHO_CRIT_1, abs=1e-9)
    assert rho_free == pytest.approx(kk2.rho_of_gamma(0.5), rel=1e-12)
    assert rho_cong == pytest.approx(kk2.rho_of_gamma(2.0), rel=1e-12)
    assert pred.vehicle_count() == pytest.approx(N_SINE_28, rel=1e-9)


def test_predict_upper_threshold_site(ring, kk1, kk2):
    pred = predict(ring.with_vehicles(N_UPPER))
    assert pred.scenario is RingScenario.CRITICAL_WITH_SOC
    assert pred.q == kk1.capacity
    assert pred.interior_sites == (InteriorSite(2.8, BoundarySide.PLUS),)
    assert pred.interior_sites[0].cell_index(16.8 / 600, 600) == 100
    assert pred.profile[1].rho == pytest.approx(kk2.rho_of_gamma(2.0), rel=1e-12)
    assert pred.vehicle_count() == pytest.approx(N_UPPER, rel=1e-9)


def test_predict_standing_shock_reaches_within_the_boundary_tolerance(ring):
    """Just below N_c, by more than the boundary tolerance (1e-6 veh),
    the shock still stands inside link 2; within it, N counts as on the
    threshold.  The offsets are written out, so that a tolerance moved
    in the code fails here."""
    n_c = thresholds(ring)[1]
    below = predict(ring.with_vehicles(n_c - 2e-6))
    assert below.scenario is RingScenario.CRITICAL_WITH_SS
    assert below.interior_sites == (InteriorSite(below.L2, BoundarySide.MINUS),
                                    InteriorSite(below.L2, BoundarySide.PLUS))
    assert 2.8 < below.L2 < 2.8 + 1e-6
    at = predict(ring.with_vehicles(n_c - 0.5e-6))
    assert at.scenario is RingScenario.CRITICAL_WITH_SOC
    assert at.interior_sites == (InteriorSite(2.8, BoundarySide.PLUS),)


def test_predict_counts_within_the_boundary_tolerance_of_n_a(ring, kk1):
    """Within the boundary tolerance on either side of N_a, N counts as on
    the threshold: both links free at C1, with the site at x = L-.  More
    than the tolerance above it, the standing shock stands just inside
    the far end of link 2; as far below it, the flux falls short of C1
    and there is no site."""
    n_a = thresholds(ring)[0]
    for offset in (-0.5e-6, 0.5e-6):
        at = predict(ring.with_vehicles(n_a + offset))
        assert at.scenario is RingScenario.BOTH_UC
        assert at.q == kk1.capacity
        assert at.interior_sites == (InteriorSite(16.8, BoundarySide.MINUS),)
    above = predict(ring.with_vehicles(n_a + 2e-6))
    assert above.scenario is RingScenario.CRITICAL_WITH_SS
    assert 16.8 - 1e-6 < above.L2 < 16.8
    below = predict(ring.with_vehicles(n_a - 2e-6))
    assert below.scenario is RingScenario.BOTH_UC
    assert below.q < kk1.capacity
    assert below.interior_sites == ()


def test_predict_heavy_traffic(ring, kk1, kk2):
    pred = predict(ring.with_vehicles(2200.0))
    assert pred.scenario is RingScenario.BOTH_SOC
    assert 0.0 < pred.q < kk1.capacity
    assert pred.interior_sites == ()
    assert pred.vehicle_count() == pytest.approx(2200.0, rel=1e-6)
    assert pred.profile[0].rho > kk1.rho_crit
    assert pred.profile[1].rho > kk2.rho_crit


def test_predict_empty_and_jammed_ring(ring):
    empty = predict(ring.with_vehicles(0.0))
    assert empty.scenario is RingScenario.BOTH_UC
    assert empty.vehicle_count() == pytest.approx(0.0, abs=1e-6)
    jammed = predict(ring.with_vehicles(ring.max_vehicles))
    assert jammed.scenario is RingScenario.BOTH_SOC
    assert jammed.vehicle_count() == pytest.approx(ring.max_vehicles, rel=1e-6)


def test_predict_flux_monotone_in_count(ring, kk1):
    """Flux rises to C1 at the lower threshold, holds across the middle
    band, then falls again in heavy traffic."""
    counts = [100.0, 300.0, N_LOWER, 900.0, 1500.0, N_UPPER, 2000.0, 3000.0]
    q = [predict(ring.with_vehicles(n)).q for n in counts]
    assert q[0] < q[1] < q[2]
    assert q[2] == q[3] == q[4] == q[5] == kk1.capacity
    assert q[5] > q[6] > q[7]


def test_profile_lookup_and_cells(ring, kk2):
    pred = predict(ring.with_vehicles(N_SINE_28))
    assert pred.density_at(0.0) == pytest.approx(RHO_CRIT_1, abs=1e-9)
    assert pred.density_at(5.0) == pytest.approx(kk2.rho_of_gamma(0.5), rel=1e-12)
    assert pred.density_at(16.0) == pytest.approx(kk2.rho_of_gamma(2.0), rel=1e-12)
    # x = L falls past the last segment and takes its density
    assert pred.density_at(16.8) == pred.profile[-1].rho
    cells = pred.cell_densities(600, 16.8)
    assert cells.shape == (600,)
    assert np.all(cells[:100] == pred.profile[0].rho)
    assert cells[100] == pred.profile[1].rho
    assert np.all(cells[450:] == pred.profile[2].rho)
    # discretized count converges on the exact one at first order in dx
    assert np.sum(cells) * (16.8 / 600) == pytest.approx(N_SINE_28, rel=1e-3)


def test_cells_of_no_width_are_refused(ring):
    pred = predict(ring.with_vehicles(N_SINE_28))
    with pytest.raises(ValueError, match="at least one cell"):
        pred.cell_densities(0, 16.8)
    for dx in (0.0, -0.25, math.nan):
        with pytest.raises(ValueError, match="dx must be positive"):
            InteriorSite(1.0, BoundarySide.MINUS).cell_index(dx, 8)


def test_cell_index_face_and_interior():
    assert InteriorSite(1.0, BoundarySide.MINUS).cell_index(0.25, 8) == 3
    assert InteriorSite(1.0, BoundarySide.PLUS).cell_index(0.25, 8) == 4
    # off-face positions: both sides name the cell containing the point
    assert InteriorSite(1.1, BoundarySide.MINUS).cell_index(0.25, 8) == 4
    assert InteriorSite(1.1, BoundarySide.PLUS).cell_index(0.25, 8) == 4
    # wrap at the ring seam
    assert InteriorSite(2.0, BoundarySide.PLUS).cell_index(0.25, 8) == 0


def test_predict_trapezoid_plateau_above_n_c():
    """Above N_c a trapezoidal bottleneck first fills its plateau at
    flux C1: up to N_c + (rho_right1 - rho_crit1)*L1 the state is the N_c
    pattern with link 1 on the plateau, and only beyond it does the flux
    drop below C1."""
    fd1 = TriangularDiagram(30e-3, 150.0, q_max=0.6, v_cong=6e-3)
    fd2 = TriangularDiagram(30e-3, 300.0, q_max=1.2, v_cong=6e-3)
    ring = RingSpec(16.8, 2.8, fd1, fd2)
    n_c = thresholds(ring)[1]
    assert n_c == pytest.approx(2856.0, abs=1e-9)
    rho_right1 = fd1.rho_jam - fd1.capacity / fd1.v_cong
    for extra in (1.0, 40.0, (rho_right1 - fd1.rho_crit) * 2.8 - 1.0):
        pred = predict(ring.with_vehicles(n_c + extra))
        assert pred.scenario is RingScenario.CRITICAL_WITH_SOC, extra
        assert pred.q == fd1.capacity
        assert pred.profile[0].rho == pytest.approx(fd1.rho_crit + extra / 2.8,
                                                    abs=1e-9)
        assert pred.profile[1].rho == pytest.approx(
            fd2.rho_of_gamma(fd2.capacity / fd1.capacity), abs=1e-9)
        assert pred.interior_sites == (InteriorSite(2.8, BoundarySide.PLUS),)
        assert pred.vehicle_count() == pytest.approx(n_c + extra, abs=1e-9)
    beyond = predict(ring.with_vehicles(n_c + (rho_right1 - fd1.rho_crit) * 2.8 + 1.0))
    assert beyond.scenario is RingScenario.BOTH_SOC
    assert beyond.q < fd1.capacity
    assert beyond.profile[0].rho > rho_right1


def _pass_through(fd):
    """``fd`` rebuilt as a subclass with the same curve, which the
    closed forms of its class do not serve: it takes the generic path."""
    cls = type(f"PassThrough{type(fd).__name__}", (type(fd),), {})
    return cls(**{f.name: getattr(fd, f.name) for f in dataclasses.fields(fd)})


_LINK = (st.builds(KernerKonhauserDiagram, lanes=st.floats(1.0, 3.0),
                   tau=st.floats(3.0, 8.0))
         | st.builds(GreenshieldsDiagram, st.floats(0.01, 0.05),
                     st.floats(80.0, 400.0))
         | st.builds(TriangularDiagram, st.floats(0.01, 0.05),
                     st.floats(80.0, 400.0), q_max=st.floats(0.2, 1.5),
                     v_cong=st.floats(3e-3, 0.03)))


def test_predict_holds_the_vehicle_count(deadline):
    """Off the thresholds and the band between them, the predicted
    profile holds the ring's N vehicles to 1e-9 of N_max: on rings of
    any two built-in links, mixed families and trapezoid plateaus
    included, and with one link on the generic path; from the empty
    ring up to N_max - 1 vehicles.  C1 stays 1e-6 below C2: as C1 -> C2
    both links meet their flat crests together just above N_c, where one
    ulp of Q1 moves rho2 by about rho_crit2 * ulp / sqrt(1 - C1/C2)."""

    @settings(max_examples=150, deadline=None)
    @given(links=st.tuples(_LINK, _LINK), generic=st.sampled_from([None, 0, 1]),
           l1=st.floats(0.5, 5.0), l2=st.floats(2.0, 20.0),
           heavy=st.booleans(), frac=st.floats(0.0, 1.0))
    def check(links, generic, l1, l2, heavy, frac):
        links = list(links)
        if generic is not None:
            links[generic] = _pass_through(links[generic])
        fd1, fd2 = sorted(links, key=lambda fd: fd.capacity)
        assume(fd1.capacity < (1.0 - 1e-6) * fd2.capacity)
        ring = RingSpec(l1 + l2, l1, fd1, fd2)
        n_a, n_c = thresholds(ring)
        if heavy:
            lo, hi = n_c + BOUNDARY_TOL, ring.max_vehicles - 1.0
            assume(lo < hi)
            n = lo + frac * (hi - lo)
            assume(n > lo)
        else:
            n = frac * n_a
            assume(n < n_a - BOUNDARY_TOL)
        pred = predict(ring.with_vehicles(n))
        assert abs(pred.vehicle_count() - n) <= 1e-9 * ring.max_vehicles, pred

    with deadline(60):
        check()


def test_predict_ends_when_flux_tolerance_underflows(deadline):
    """A link of capacity 1.5e-321 veh/s, on which any flux tolerance
    relative to C1 underflows to 0; the prediction still ends."""
    fd1 = TriangularDiagram(1e-323, 150.0, 0.6, 6e-3)
    spec = RingSpec(5.0, 2.0, fd1, GreenshieldsDiagram(27.8e-3, 120.0))
    with deadline(5):
        pred = predict(spec.with_vehicles(100.0))
    assert pred.scenario is RingScenario.BOTH_UC
    assert 0.0 < pred.q <= fd1.capacity


# -- initial condition bookkeeping -----------------------------------------


def test_initial_density_lane_weighting(ring):
    rho = initial_density(ring, 28.0, amplitude=3.0)
    assert rho(0.0) == pytest.approx(28.0)
    # quarter period x = L/4 = 4.2 km sits on link 2 (two lanes)
    assert rho(4.2) == pytest.approx(2.0 * 31.0)
    assert rho(12.6) == pytest.approx(2.0 * 25.0)


def test_vehicle_count_closed_form(ring):
    assert vehicles_of_initial(ring, 28.0) == pytest.approx(862.4, rel=1e-12)
    assert vehicles_of_initial(ring, 28.0, amplitude=3.0) == pytest.approx(
        N_SINE_28, abs=1e-9
    )
    n = [vehicles_of_initial(ring, r, amplitude=3.0) for r in (15.0, 28.0, 57.0)]
    assert n[0] < n[1] < n[2]
    # with one lane weight on both links the sine integrates away
    flat = RingSpec(16.8, 2.8, GreenshieldsDiagram(1.0, 40.0),
                    GreenshieldsDiagram(1.0, 80.0))
    assert vehicles_of_initial(flat, 28.0, amplitude=3.0) == pytest.approx(
        28.0 * 16.8, rel=1e-12)


def test_experiment_counts_hit_the_thresholds(ring):
    """The three published starting densities bracket the regime band:
    the outer two land on the thresholds to sub-vehicle accuracy."""
    assert vehicles_of_initial(ring, 15.4007, amplitude=3.0) == pytest.approx(
        N_LOWER, abs=1e-3
    )
    assert vehicles_of_initial(ring, 57.1911, amplitude=3.0) == pytest.approx(
        N_UPPER, abs=1e-3
    )


def test_initial_profile_range_checks(ring):
    with pytest.raises(ValueError, match="below 0"):
        vehicles_of_initial(ring, 1.0, amplitude=2.0)
    with pytest.raises(ValueError, match="exceeds rho_jam"):
        vehicles_of_initial(ring, 200.0)
    with pytest.raises(ValueError, match="below 0"):
        vehicles_of_initial(ring, math.nan)
    with pytest.raises(ValueError, match="below 0"):
        vehicles_of_initial(ring, 28.0, amplitude=math.nan)


@pytest.mark.parametrize("rho0, amplitude, match", [
    (28.0, 1e6, "below 0"), (1.0, 2.0, "below 0"), (200.0, 0.0, "exceeds rho_jam"),
    (178.0, 3.0, "exceeds rho_jam"), (math.nan, 0.0, "below 0"),
    (28.0, math.nan, "below 0")])
def test_initial_density_refuses_a_profile_outside_range(ring, rho0, amplitude, match):
    """The continuous count refuses the profile, and so does the 600-cell
    grid it is laid on, with a ConfigError, or ``initial_density`` itself
    when rho0 or the amplitude is not finite: 28 +- 1e6 veh/km would reach
    -1 999 944 veh/km on the two-lane link, and 178 + 3 overfills the
    one-lane link, which jams at 180."""
    with pytest.raises(ValueError, match=match):
        vehicles_of_initial(ring, rho0, amplitude)
    if not math.isfinite(rho0 + amplitude):
        with pytest.raises(ValueError, match="need a finite rho0 and amplitude"):
            initial_density(ring, rho0, amplitude)
        return
    profile = initial_density(ring, rho0, amplitude)
    with pytest.raises(ConfigError, match=match):
        grid_from_segments([(ring.fd1, 100), (ring.fd2, 500)], 0.028, rho=profile)


@pytest.mark.parametrize("L1, rho0, amplitude, match", [
    (8.4, 167.2, 3.0, "exceeds rho_jam=170.0"), (8.4, 167.2, -3.0, None),
    (14.0, 167.2, -3.0, "exceeds rho_jam=170.0"), (2.8, 2.9, -3.0, "below 0")])
def test_vehicles_of_initial_reads_each_links_extremes(kk2, L1, rho0, amplitude, match):
    """Each link is read at the sine's crest (x = L/4) and trough (x = 3L/4)
    where it holds them, besides its ends (which
    ``test_library_and_cli_agree_on_which_sinusoids_fit`` reads), on a
    16.8 km ring whose one-lane link 1 jams at 170 veh/km: a link 1 of
    8.4 km holds the crest, 167.2 + 3, but not the trough, where a
    negative amplitude peaks; one of 14 km holds that trough; and the
    wide link of a 2.8 km link 1 holds the crest that a negative
    amplitude turns into a trough, 2.9 - 3, while link 1 ends at
    2.9 - 3 sin(60 deg) > 0."""
    ring = RingSpec(16.8, L1, KernerKonhauserDiagram(rho_jam_lane=170.0), kk2)
    if match is None:
        assert vehicles_of_initial(ring, rho0, amplitude) > 0
        return
    with pytest.raises(ValueError, match=match):
        vehicles_of_initial(ring, rho0, amplitude)


# -- stationary pattern feasibility -----------------------------------------


def test_feasibility_table(ring):
    table = feasibility_table(ring)
    assert len(table) == 9
    feasible = {pair for pair, cell in table.items() if cell.feasible}
    assert feasible == {
        (LinkPattern.UC, LinkPattern.UC),
        (LinkPattern.UC, LinkPattern.SS),
        (LinkPattern.UC, LinkPattern.SOC),
        (LinkPattern.SOC, LinkPattern.SOC),
    }
    assert table[LinkPattern.UC, LinkPattern.UC].scenario is RingScenario.BOTH_UC
    assert table[LinkPattern.UC, LinkPattern.SS].scenario is (
        RingScenario.CRITICAL_WITH_SS
    )
    assert table[LinkPattern.UC, LinkPattern.SOC].scenario is (
        RingScenario.CRITICAL_WITH_SOC
    )
    assert table[LinkPattern.SOC, LinkPattern.SOC].scenario is (
        RingScenario.BOTH_SOC
    )
    for pair, cell in table.items():
        if cell.feasible:
            continue
        assert cell.scenario is None
        assert "needs q=C1, which contradicts q<C1" in cell.reason
        where = "x=0" if pair == (LinkPattern.SS, LinkPattern.SOC) else "x=L1"
        assert where in cell.reason


def test_feasibility_mirrors_prediction_scenarios(ring):
    """Every scenario predict can produce appears as a feasible pattern."""
    table = feasibility_table(ring)
    reachable = {
        predict(ring.with_vehicles(n)).scenario
        for n in (300.0, N_SINE_28, N_UPPER, 2200.0)
    }
    feasible_scenarios = {
        cell.scenario for cell in table.values() if cell.feasible
    }
    assert reachable == feasible_scenarios == set(RingScenario)


# -- the mirror ---------------------------------------------------------


# The mirrored diagram locates its crest by golden-section search, which
# floating point resolves only to a few 1e-9 rho_jam on a smooth crest
# (measured: 1.9e-9 rho_jam1 on KK1, 5.3e-9 on Greenshields).  That error
# times L1 is the gap between the thresholds and their mirror images
# (9.9e-7 and 1.8e-6 veh) and, per cell, between the profiles.
_MIRROR_RHO_TOL = 1e-8  # of rho_jam


@pytest.mark.parametrize("spec", [
    RingSpec(16.8, 2.8, KernerKonhauserDiagram(lanes=1),
             KernerKonhauserDiagram(lanes=2)),
    RingSpec(16.8, 2.8, GreenshieldsDiagram(27.8e-3, 120.0),
             GreenshieldsDiagram(27.8e-3, 240.0)),
], ids=["kk", "greenshields"])
def test_predict_on_the_mirrored_ring(spec, mirror):
    """The mirrored ring (link 1 still at [0, L1], so x -> L1 - x) puts
    N_a at N_max - N_c' and N_c at N_max - N_a'.  At 41 counts N its
    prediction for N_max - N is this one's mirrored, cell by cell on 600
    cells (cell i -> cell n1 - 1 - i mod n), with the same flux, the
    scenarios traded (free for congested) and the shock's two sites on
    the mirrored cells."""
    mirrored_spec = RingSpec(spec.L, spec.L1, mirror(spec.fd1), mirror(spec.fd2))
    n_max = spec.max_vehicles
    assert mirrored_spec.max_vehicles == n_max
    tol = _MIRROR_RHO_TOL * spec.fd1.rho_jam * spec.L1
    n_a, n_c = thresholds(spec)
    n_a_m, n_c_m = thresholds(mirrored_spec)
    assert abs(n_max - n_c_m - n_a) <= tol
    assert abs(n_max - n_a_m - n_c) <= tol

    n, n1 = 600, 100
    dx = spec.L / n
    jam = np.where(np.arange(n) < n1, spec.fd1.rho_jam, spec.fd2.rho_jam)
    mirrored = (n1 - 1 - np.arange(n)) % n
    traded = {RingScenario.BOTH_UC: RingScenario.BOTH_SOC,
              RingScenario.BOTH_SOC: RingScenario.BOTH_UC,
              RingScenario.CRITICAL_WITH_SS: RingScenario.CRITICAL_WITH_SS}
    seen = set()
    for count in np.linspace(0.0, n_max, 41).tolist():
        pred = predict(spec.with_vehicles(count))
        pred_m = predict(mirrored_spec.with_vehicles(n_max - count))
        assert pred_m.scenario is traded[pred.scenario], count
        assert pred_m.q == pytest.approx(pred.q, abs=1e-9 * spec.fd1.capacity)
        rho = pred.cell_densities(n, spec.L)
        rho_m = pred_m.cell_densities(n, spec.L)
        assert (np.abs(rho_m[mirrored] - (jam - rho)) / jam).max() <= _MIRROR_RHO_TOL
        sites = sorted(site.cell_index(dx, n) for site in pred.interior_sites)
        sites_m = sorted(mirrored[site.cell_index(dx, n)]
                         for site in pred_m.interior_sites)
        assert sites_m == sites, count
        seen.add(pred.scenario)
    assert seen == set(traded)
