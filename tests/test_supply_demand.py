"""States as (demand, supply) pairs: classification, lifts, ratios."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sdlwr import (
    GreenshieldsDiagram,
    Regime,
    SDState,
    classify,
    from_density,
    to_density,
)


def test_gamma_examples():
    c = 0.8
    assert SDState(c, c).gamma == 1.0
    assert SDState(c / 2, c).gamma == 0.5
    assert SDState(c, 0.0).gamma == math.inf


def test_gamma_undefined_at_origin():
    with pytest.raises(ValueError, match="D = S = 0"):
        SDState(0.0, 0.0).gamma


def test_negative_components_rejected():
    with pytest.raises(ValueError):
        SDState(-0.2, 1.0)


@pytest.mark.parametrize("demand, supply", [(math.nan, 1.0), (1.0, math.nan)])
def test_nan_components_rejected(demand, supply):
    with pytest.raises(ValueError, match="negative or NaN"):
        SDState(demand, supply)


def test_flux_is_min_component():
    assert SDState(0.3, 0.9).flux == 0.3
    assert SDState(0.9, 0.3).flux == 0.3
    assert SDState(0.5, 0.5).flux == 0.5


def test_classify_by_density(gs):
    assert classify(from_density(gs, 1.0), gs.capacity) == Regime.STRICTLY_UNDER_CRITICAL
    assert classify(from_density(gs, gs.rho_crit), gs.capacity) == Regime.CRITICAL
    assert classify(from_density(gs, 3.0), gs.capacity) == Regime.STRICTLY_OVER_CRITICAL


def test_classify_rejects_off_diagram_states(gs):
    # neither component at capacity
    with pytest.raises(ValueError, match="not on the demand-supply set"):
        classify(SDState(0.5, 0.5), gs.capacity)
    # component above capacity
    with pytest.raises(ValueError, match="exceeds capacity"):
        classify(SDState(1.5, 1.0), gs.capacity)


def test_image_is_l_shaped(family_zoo):
    """Every lifted density lands on {D=C} union {S=C}."""
    for fd in family_zoo:
        for rho in np.linspace(0.0, fd.rho_jam, 200):
            u = from_density(fd, rho)
            assert max(u.demand, u.supply) == pytest.approx(fd.capacity, abs=1e-9), (
                f"{fd} rho={rho}: {u}"
            )


def test_flux_gamma_identity(family_zoo):
    """q = min(gamma, 1/gamma) * C for every on-diagram state."""
    rng = np.random.default_rng(23)
    for fd in family_zoo:
        for rho in rng.uniform(0.0, fd.rho_jam, 300):
            u = from_density(fd, rho)
            if u.demand == 0.0 and u.supply == 0.0:
                continue
            g = u.gamma
            ratio = min(g, 1.0 / g) if g > 0 else 0.0
            assert u.flux == pytest.approx(ratio * fd.capacity, rel=1e-12, abs=1e-15)


def test_density_round_trip(family_zoo):
    rng = np.random.default_rng(5)
    for fd in family_zoo:
        supply_edge = fd.inv_supply(fd.capacity)
        flat = supply_edge - fd.rho_crit > 1e-8 * fd.rho_jam
        for rho in rng.uniform(0.0, fd.rho_jam, 1000):
            if flat and fd.flux(rho) >= fd.capacity - 1e-12:
                continue  # plateau interiors all share one (D, S) pair
            back = to_density(fd, from_density(fd, rho))
            assert back == pytest.approx(rho, abs=1e-8 * fd.rho_jam), f"{fd} rho={rho}"


def test_round_trip_through_gamma(kk2):
    """R(gamma) recovers the density: the ratio carries the same
    information as the (D, S) pair away from plateaus."""
    for rho in np.linspace(1.0, kk2.rho_jam - 1.0, 101):
        u = from_density(kk2, rho)
        assert kk2.rho_of_gamma(u.gamma) == pytest.approx(
            rho, abs=1e-7 * kk2.rho_jam
        )


def test_to_density_picks_branch(gs):
    # congested state inverts the supply branch
    assert to_density(gs, SDState(1.0, 0.75)) == pytest.approx(3.0, abs=1e-7)
    # free state inverts the demand branch
    assert to_density(gs, SDState(0.75, 1.0)) == pytest.approx(1.0, abs=1e-7)
    assert to_density(gs, SDState(1.0, 1.0)) == pytest.approx(2.0, abs=1e-7)


@given(frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_round_trip_greenshields(frac):
    fd = GreenshieldsDiagram(1.0, 4.0)
    rho = frac * fd.rho_jam
    assert to_density(fd, from_density(fd, rho)) == pytest.approx(rho, abs=4e-8)
