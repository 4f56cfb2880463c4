"""Riemann solver at a linear boundary between two homogeneous links.

Link 1 occupies x < 0 with diagram fd_up (capacity C1), link 2 occupies
x > 0 with fd_down (capacity C2).  Initial data is one state per link,
given in supply-demand coordinates.  The solution consists of

* the boundary flux q = min(D1, S2),
* stationary states just left/right of x = 0, constant in time,
* interior states at x = 0-+, which differ from the stationary states
  only in the tied case D1 = S2 (then a whole family is admissible),
* at most one wave per link connecting the initial state to the
  stationary one, classified as shock or rarefaction with speeds.

A wave is decided by its two end densities: each end state is put at
its density on the demand or the supply branch, as the pair's regimes
say, and densities rising left to right make a shock, falling ones a
rarefaction (see ``classify_wave``).  Upstream waves never have
positive speed and downstream waves never negative; the solver proves
this case by case, and ``classify_wave`` re-checks it at runtime.

The trichotomy D1 < S2 / D1 > S2 / D1 = S2 uses the package flux
tolerance (1e-9 veh/s) as the tie band.  Every regime test uses the same
band: ``stationary_pair_check`` reads both regimes from
``supply_demand.classify``, and ``classify_wave`` and the admissibility
conditions test ``SDState.is_under_critical`` and ``is_over_critical``,
the two tests ``classify`` is made of; ``classify_wave`` hands a state
that passes neither to ``classify``, which refuses it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fundamental_diagram import FLUX_TOL, FundamentalDiagram
from .supply_demand import Regime, SDState, classify, from_density, to_density

__all__ = [
    "Side",
    "WaveKind",
    "WaveDirection",
    "Wave",
    "Unique",
    "Family",
    "RiemannProblem",
    "RiemannSolution",
    "StationaryPattern",
    "boundary_flux",
    "solve",
    "classify_wave",
    "admissible_stationary_up",
    "admissible_stationary_down",
    "admissible_interior_up",
    "admissible_interior_down",
    "entropy_flux",
    "stationary_pair_check",
    "sample_profile",
]


class Side(enum.Enum):
    UPSTREAM = "upstream"
    DOWNSTREAM = "downstream"


class WaveKind(enum.Enum):
    NONE = "none"
    SHOCK = "shock"
    RAREFACTION = "rarefaction"


class WaveDirection(enum.Enum):
    BACKWARD = "backward"
    FORWARD = "forward"
    ZERO = "zero"


@dataclass(frozen=True)
class Wave:
    """A single kinematic wave on one link.

    ``speed_range`` is (s_min, s_max) in km/s: equal entries for a shock
    (the Rankine-Hugoniot speed), characteristic speeds at the two end
    states for a rarefaction.  ``rho_left``/``rho_right`` are the end
    densities, branch-consistent with the wave (congested waves use the
    supply branch even for critical end states).
    """

    kind: WaveKind
    direction: WaveDirection | None = None
    speed_range: tuple[float, float] | None = None
    rho_left: float | None = None
    rho_right: float | None = None

    @property
    def is_none(self) -> bool:
        return self.kind is WaveKind.NONE


@dataclass(frozen=True)
class Unique:
    """Interior set with a single member (the stationary state)."""

    state: SDState

    @property
    def representative(self) -> SDState:
        return self.state


@dataclass(frozen=True)
class Family:
    """Interior set of the tied case: all states with D and S above the
    boundary flux.  ``representative`` is the stationary state, always a
    member."""

    min_demand: float
    min_supply: float
    representative: SDState


InteriorSet = Union[Unique, Family]


@dataclass(frozen=True)
class RiemannProblem:
    """Initial data: one diagram and one state per link."""

    fd_up: FundamentalDiagram
    fd_down: FundamentalDiagram
    u1: SDState
    u2: SDState

    def __post_init__(self):
        classify(self.u1, self.fd_up.capacity)
        classify(self.u2, self.fd_down.capacity)

    @classmethod
    def from_densities(cls, fd_up, fd_down, rho_up: float, rho_down: float):
        return cls(fd_up, fd_down, from_density(fd_up, rho_up),
                   from_density(fd_down, rho_down))


@dataclass(frozen=True)
class RiemannSolution:
    boundary_flux: float
    stat_up: SDState
    stat_down: SDState
    interior_up: InteriorSet
    interior_down: InteriorSet
    wave_up: Wave
    wave_down: Wave


class StationaryPattern(enum.Enum):
    """Joint regime of an admissible stationary pair."""

    BOTH_UC = "both_uc"
    BOTH_OC = "both_oc"
    UP_UC_DOWN_OC = "up_uc_down_oc"
    FORBIDDEN = "forbidden"


def boundary_flux(p: RiemannProblem) -> float:
    """Flux through x = 0: min(D1, S2).

    Depends only on the upstream demand and downstream supply; the
    upstream supply and downstream demand never enter.
    """
    return min(p.u1.demand, p.u2.supply)


def _states_equal(a: SDState, b: SDState) -> bool:
    return abs(a.demand - b.demand) <= FLUX_TOL and abs(a.supply - b.supply) <= FLUX_TOL


def classify_wave(fd: FundamentalDiagram, left: SDState, right: SDState,
                  side: Side) -> Wave:
    """Classify the homogeneous wave between two states on one link.

    Equal states give no wave.  Otherwise an end state that is neither
    under- nor over-critical is off the diagram, and ``classify`` raises
    its ValueError; each other end state sits at its
    density: the left one on its demand branch unless both states are
    over-critical, the right one on its supply branch unless both are
    under-critical (a pair of critical states counts as under-critical).
    Densities rising left to right give a shock, whose sign follows the
    flux difference (zero-speed when the fluxes tie); otherwise the wave
    is a rarefaction, forward when both states are under-critical and
    backward when not.  A strictly congested left state against a
    strictly free right state would be a transonic rarefaction; the
    solver never produces one, so that input raises.

    ``side`` declares which link the wave lives on; a wave moving out of
    its half-line signals a solver bug and also raises.
    """
    if _states_equal(left, right):
        return Wave(WaveKind.NONE)

    cap = fd.capacity
    left_uc, right_uc = left.is_under_critical(cap), right.is_under_critical(cap)
    free = left_uc and right_uc
    left_oc = not free and left.is_over_critical(cap)
    right_oc = not free and right.is_over_critical(cap)
    if not ((left_uc or left_oc) and (right_uc or right_oc)):
        for state in (left, right):
            classify(state, cap)  # raises on the state off the diagram
    if not (left_uc or right_oc):
        raise RuntimeError(
            "transonic rarefaction (congested left, free right) cannot occur "
            f"in an admissible solution: left={left}, right={right}"
        )
    # past the refusals, a left state that is over-critical in a pair that
    # is not free has an over-critical right state as well
    if free or not left_oc:
        rho_l = fd.inv_demand(left.demand)
    else:
        rho_l = fd.inv_supply(left.supply)
    rho_r = fd.inv_demand(right.demand) if free else fd.inv_supply(right.supply)

    if rho_l < rho_r:
        wave = _shock(left, right, rho_l, rho_r)
    else:
        direction = WaveDirection.FORWARD if free else WaveDirection.BACKWARD
        wave = _rarefaction(fd, rho_l, rho_r, direction)
    _check_side(wave, side, fd)
    return wave


def _shock(left: SDState, right: SDState, rho_l: float, rho_r: float) -> Wave:
    dq = right.flux - left.flux
    sigma = dq / (rho_r - rho_l)
    if abs(dq) <= FLUX_TOL:
        direction = WaveDirection.ZERO
    elif sigma > 0.0:
        direction = WaveDirection.FORWARD
    else:
        direction = WaveDirection.BACKWARD
    return Wave(WaveKind.SHOCK, direction, (sigma, sigma), rho_l, rho_r)


def _rarefaction(fd: FundamentalDiagram, rho_l: float, rho_r: float,
                 direction: WaveDirection) -> Wave:
    # rho_l > rho_r for every rarefaction; characteristic speeds are taken
    # one-sided into the fan so kinked diagrams yield degenerate ranges
    s_lo = fd.derivative(rho_l, side=-1)
    s_hi = fd.derivative(rho_r, side=+1)
    return Wave(WaveKind.RAREFACTION, direction, (s_lo, s_hi), rho_l, rho_r)


def _check_side(wave: Wave, side: Side, fd: FundamentalDiagram) -> None:
    slack = 1e-9 * (1.0 + fd.max_wave_speed())
    s_min, s_max = wave.speed_range
    if side is Side.UPSTREAM and s_max > slack:
        raise RuntimeError(
            f"upstream wave with positive speed {s_max:.6g} km/s (solver bug)"
        )
    if side is Side.DOWNSTREAM and s_min < -slack:
        raise RuntimeError(
            f"downstream wave with negative speed {s_min:.6g} km/s (solver bug)"
        )


def solve(p: RiemannProblem) -> RiemannSolution:
    """Full Riemann solution at the boundary.

    Stationary states follow the sign of D1 - S2; in the tied case the
    interior states are non-unique and come back as one-sided families
    (each assuming the opposite side sits at its stationary state).
    """
    c1, c2 = p.fd_up.capacity, p.fd_down.capacity
    d1, s2 = p.u1.demand, p.u2.supply

    if abs(d1 - s2) <= FLUX_TOL:
        stat_up = SDState(d1, c1)
        stat_down = SDState(c2, s2)
        interior_up: InteriorSet = Family(d1, d1, stat_up)
        interior_down: InteriorSet = Family(s2, s2, stat_down)
    elif d1 < s2:
        stat_up = SDState(d1, c1)
        stat_down = SDState(d1, c2)
        interior_up = Unique(stat_up)
        interior_down = Unique(stat_down)
    else:
        stat_up = SDState(c1, s2)
        stat_down = SDState(c2, s2)
        interior_up = Unique(stat_up)
        interior_down = Unique(stat_down)

    wave_up = classify_wave(p.fd_up, p.u1, stat_up, Side.UPSTREAM)
    wave_down = classify_wave(p.fd_down, stat_down, p.u2, Side.DOWNSTREAM)
    return RiemannSolution(boundary_flux(p), stat_up, stat_down, interior_up,
                           interior_down, wave_up, wave_down)


def admissible_stationary_up(u1: SDState, cand: SDState, capacity: float) -> bool:
    """Can ``cand`` be the stationary state left of the boundary?

    Either it keeps the initial demand at full supply, (D1, C1), or it
    is congested at a supply strictly below the initial demand, (C1, S)
    with S < D1.  The borderline S = D1 (a zero-speed shock that never
    detaches) is excluded.
    """
    keeps_demand = (cand.is_under_critical(capacity)
                    and abs(cand.demand - u1.demand) <= FLUX_TOL)
    congested = cand.is_over_critical(capacity) and cand.supply < u1.demand - FLUX_TOL
    return keeps_demand or congested


def _mirrored(state: SDState) -> SDState:
    """(D, S) -> (S, D): the supply-demand mirror, which swaps the two
    sides of the boundary."""
    return SDState(state.supply, state.demand)


def admissible_stationary_down(u2: SDState, cand: SDState, capacity: float) -> bool:
    """Mirror image for the state right of the boundary: (C2, S2), or
    (D, C2) with D strictly below the initial supply."""
    return admissible_stationary_up(_mirrored(u2), _mirrored(cand), capacity)


def admissible_interior_up(stat: SDState, cand: SDState, capacity: float) -> bool:
    """Interior states at x = 0- given the stationary state.

    A strictly congested stationary state pins the interior to itself;
    an under-critical one admits anything whose supply covers the
    stationary demand (the interior occupies zero measure, so only the
    flux it lets through matters).
    """
    if not stat.is_under_critical(capacity):  # SOC
        return _states_equal(cand, stat)
    return cand.supply >= stat.demand - FLUX_TOL


def admissible_interior_down(stat: SDState, cand: SDState, capacity: float) -> bool:
    """Mirror image at x = 0+: SUC stationary pins the interior, congested
    admits any candidate whose demand covers the stationary supply."""
    return admissible_interior_up(_mirrored(stat), _mirrored(cand), capacity)


def entropy_flux(interior_up: SDState, interior_down: SDState) -> float:
    """min(D of the left interior state, S of the right one).

    For any admissible selection out of a Riemann solution this equals
    the boundary flux; a mismatch certifies the pair inadmissible.
    """
    return min(interior_up.demand, interior_down.supply)


def stationary_pair_check(stat_up: SDState, stat_down: SDState,
                          cap_up: float, cap_down: float) -> StationaryPattern:
    """Joint regime of a stationary pair sharing one flux.

    Both regimes come from ``classify``, so a state off the diagram of
    its link, or a capacity that is NaN, raises its ValueError; so do two
    fluxes more than FLUX_TOL apart.  No strictly congested state makes
    the pair BOTH_UC, and then no strictly free one BOTH_OC (critical
    states count as either).  A strictly free upstream state over a
    strictly congested downstream one is UP_UC_DOWN_OC.  The remaining,
    impossible combination is a strictly congested upstream link feeding
    a strictly free downstream link, FORBIDDEN: the boundary would have
    to throttle below both capacities with slack on both sides.
    """
    if abs(stat_up.flux - stat_down.flux) > FLUX_TOL:
        raise ValueError(
            f"stationary states carry different fluxes: "
            f"{stat_up.flux:.9g} vs {stat_down.flux:.9g} veh/s"
        )
    up = classify(stat_up, cap_up)
    pair = {up, classify(stat_down, cap_down)}
    if Regime.STRICTLY_OVER_CRITICAL not in pair:
        return StationaryPattern.BOTH_UC
    if Regime.STRICTLY_UNDER_CRITICAL not in pair:
        return StationaryPattern.BOTH_OC
    if up is Regime.STRICTLY_UNDER_CRITICAL:
        return StationaryPattern.UP_UC_DOWN_OC
    return StationaryPattern.FORBIDDEN


def _fan_density(fd: FundamentalDiagram, rho_lo: float, rho_hi: float,
                 xi: float, start: float | None = None) -> float:
    # invert Q'(rho) = xi on [rho_lo, rho_hi], where Q' is nonincreasing
    return min(max(fd._invert_fan(xi, rho_lo, rho_hi, start), rho_lo), rho_hi)


def _sample_side(fd, wave: Wave, stat: SDState, xi):
    """Density at similarity coordinates xi for one link.

    Without a wave the link holds its stationary state ``stat``; with
    one, the wave's end densities sit left and right of its fan.  A fan's
    samples are inverted in xi order, each search starting at the density
    of the sample before it.
    """
    if wave.is_none:
        return np.full_like(xi, to_density(fd, stat))
    s_min, s_max = wave.speed_range
    out = np.where(xi < s_min, wave.rho_left, wave.rho_right)
    if wave.kind is WaveKind.RAREFACTION:
        fan = np.flatnonzero((xi >= s_min) & (xi <= s_max)).tolist()
        xs, rho = xi.tolist(), None
        for i in sorted(fan, key=xs.__getitem__):
            rho = _fan_density(fd, wave.rho_right, wave.rho_left, xs[i], rho)
            out[i] = rho
    return out


def sample_profile(p: RiemannProblem, xi, sol: RiemannSolution | None = None):
    """Density profile rho(xi) of the self-similar solution, xi = x/t in km/s.

    Negative xi samples link 1 (converging to the upstream stationary
    state as xi -> 0-), nonnegative xi samples link 2; -inf and +inf give
    the two far-field states, and a NaN raises ValueError.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.size:
        first = xi.argmin()  # the first NaN, if there is one
        if math.isnan(xi.flat[first]):
            raise ValueError(f"xi = x/t must be a number, got nan at index {first}")
    if sol is None:
        sol = solve(p)
    out = np.empty_like(xi)
    up_mask = xi < 0.0
    out[up_mask] = _sample_side(p.fd_up, sol.wave_up, sol.stat_up, xi[up_mask])
    out[~up_mask] = _sample_side(p.fd_down, sol.wave_down, sol.stat_down,
                                 xi[~up_mask])
    return out
