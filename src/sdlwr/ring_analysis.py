"""Asymptotic stationary states on a two-link ring road.

The ring has length L; link 1 on [0, L1] is the bottleneck (capacity
C1 strictly below link 2's C2).  Vehicles are conserved, so the total
count N selects the long-time state.  Writing R1, R2 for the two
density maps over the demand/supply ratio, the two thresholds are

    N_a = R1(1) L1 + R2(C1/C2) (L - L1)   (heaviest all-free ring)
    N_c = R1(1) L1 + R2(C2/C1) (L - L1)   (link 2 jammed at flux C1)

and the four regimes are: below N_a both links end up under-critical;
between the thresholds link 1 runs exactly at capacity while link 2
splits into a free head and a congested tail separated by a standing
shock at L2; at N_c link 2 is uniformly congested at flux C1; above it
both links are congested and the common flux drops below C1.  A
bottleneck whose crest is a plateau (a trapezoid, plateau up to
rho_right1) first fills it at flux C1, so the N_c pattern holds up to
N_c + (rho_right1 - R1(1)) L1.

Besides the prediction itself this module computes vehicle counts of
the sinusoid-perturbed initial profiles used in the experiments, and
the feasibility table of all nine (link 1, link 2) regime patterns,
five of which contradict the admissible boundary transitions.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .fundamental_diagram import _SEARCH_TOL, FundamentalDiagram, _newton
from .riemann_solver import StationaryPattern, stationary_pair_check
from .supply_demand import SDState

__all__ = [
    "RingSpec",
    "RingScenario",
    "BoundarySide",
    "InteriorSite",
    "ProfileSegment",
    "RingPrediction",
    "LinkPattern",
    "FeasibilityCell",
    "thresholds",
    "predict",
    "vehicles_of_initial",
    "initial_density",
    "feasibility_table",
]

# |N - threshold| at or below this (veh) counts as sitting on the
# threshold itself; thresholds are computed, so exact hits are luck.
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class RingSpec:
    """Two-link ring geometry, diagrams, and (optionally) vehicle count.

    Args:
        L: ring length (km).
        L1: length of link 1, the bottleneck (km).
        fd1: diagram of link 1; fd2: diagram of link 2 (larger capacity).
        N: total vehicles on the ring (veh); may be filled in later via
           dataclasses.replace.
    """

    L: float
    L1: float
    fd1: FundamentalDiagram
    fd2: FundamentalDiagram
    N: float | None = None

    def __post_init__(self):
        # L1 == L is the degenerate single-link ring; still useful as a
        # limiting sanity check (both thresholds collapse to R1(1) L).
        if not 0 < self.L1 <= self.L < math.inf:  # NaN fails this
            raise ValueError(f"need 0 < L1 <= L < inf, got L1={self.L1}, L={self.L}")
        if self.fd1.capacity >= self.fd2.capacity:
            raise ValueError(
                "link 1 must be the bottleneck: "
                f"C1={self.fd1.capacity:.6g} >= C2={self.fd2.capacity:.6g}"
            )

    @property
    def L2_len(self) -> float:
        return self.L - self.L1

    @property
    def max_vehicles(self) -> float:
        return self.fd1.rho_jam * self.L1 + self.fd2.rho_jam * self.L2_len

    @cached_property
    def _threshold_densities(self) -> tuple[float, ...]:
        """(R1(1), R2(C1/C2), R2(C2/C1), N_a, N_c): link 1 at capacity,
        link 2 free and congested at flux C1, and the thresholds they
        give.  Solved on first use and kept, as the spec is immutable."""
        c1, c2 = self.fd1.capacity, self.fd2.capacity
        rho_crit1 = self.fd1.rho_of_gamma(1.0)
        rho_free = self.fd2.rho_of_gamma(c1 / c2)
        rho_cong = self.fd2.rho_of_gamma(c2 / c1)
        r1_crit = rho_crit1 * self.L1
        return (rho_crit1, rho_free, rho_cong, r1_crit + rho_free * self.L2_len,
                r1_crit + rho_cong * self.L2_len)

    def with_vehicles(self, n: float) -> "RingSpec":
        """This ring holding n vehicles.  The copy shares this ring's
        threshold densities, so a sweep over n solves them once."""
        spec = replace(self, N=n)
        vars(spec)["_threshold_densities"] = self._threshold_densities
        return spec


class RingScenario(enum.Enum):
    BOTH_UC = "both_uc"
    CRITICAL_WITH_SS = "critical_with_ss"
    CRITICAL_WITH_SOC = "critical_with_soc"
    BOTH_SOC = "both_soc"


class BoundarySide(enum.Enum):
    """Which side of a position an interior state clings to."""

    MINUS = "-"
    PLUS = "+"


@dataclass(frozen=True)
class InteriorSite:
    """Predicted location of a single-cell interior state."""

    position: float  # km
    side: BoundarySide

    def cell_index(self, dx: float, n_cells: int) -> int:
        """The grid cell adjacent to the site on its side.

        Positions landing within rounding of a cell face snap to the
        face before picking the neighbour.  A cell width ``dx`` that is
        not positive raises ValueError.
        """
        if not dx > 0:  # NaN fails this
            raise ValueError(f"cell width dx must be positive, got {dx!r}")
        p = self.position / dx
        nearest = round(p)
        if abs(p - nearest) < 1e-9 * n_cells:
            p = nearest
        if self.side is BoundarySide.MINUS:
            cell = math.ceil(p) - 1
        else:
            cell = math.floor(p)
        return cell % n_cells


@dataclass(frozen=True)
class ProfileSegment:
    x_start: float
    x_end: float
    rho: float


@dataclass(frozen=True)
class RingPrediction:
    scenario: RingScenario
    q: float
    profile: tuple[ProfileSegment, ...]
    interior_sites: tuple[InteriorSite, ...]
    L2: float | None = None  # shock position, standing-shock scenario only

    def density_at(self, x: float) -> float:
        for seg in self.profile:
            if seg.x_start <= x < seg.x_end:
                return seg.rho
        return self.profile[-1].rho

    def cell_densities(self, n_cells: int, L: float) -> np.ndarray:
        """The profile at the centres of ``n_cells`` equal cells of a ring
        of length L; fewer than one cell raises ValueError."""
        if n_cells < 1:
            raise ValueError(f"need at least one cell, got {n_cells}")
        dx = L / n_cells
        return np.array([self.density_at((i + 0.5) * dx) for i in range(n_cells)])

    def vehicle_count(self) -> float:
        return sum(seg.rho * (seg.x_end - seg.x_start) for seg in self.profile)


def thresholds(spec: RingSpec) -> tuple[float, float]:
    """(N_a, N_c): the counts separating the four regimes, from the
    three threshold densities, inverted once per ring: the first call
    solves them, and later calls, on the ring or on its
    ``with_vehicles`` copies, reuse them."""
    return spec._threshold_densities[3:]


def _link1_density(spec: RingSpec, n: float, lo: float, hi: float,
                   invert2) -> float:
    """The link-1 density rho1 in [lo, hi] of a ring holding n vehicles
    with link 2 at rho2 = invert2(Q1(rho1)), by safeguarded Newton on
    N(rho1) = L1 rho1 + L2 rho2, which rises with rho1, from mid-bracket.

    dN/drho1 = L1 + L2 Q1'(rho1)/Q2'(rho2) stays bounded at both ends,
    where dN/dq does not.  A slope that is not finite comes back NaN, on
    which ``_newton`` bisects.  Where rho2 sits at 0 or rho_jam2
    (Kerner-Konhauser's Q2(rho_jam2) > 0 meets low levels there), it
    does not move and the slope is L1.
    """
    fd1, fd2, l1, l2 = spec.fd1, spec.fd2, spec.L1, spec.L2_len

    def count_slope(rho1):
        rho2 = invert2(fd1.flux_curve(rho1))
        count = l1 * rho1 + l2 * rho2
        if rho2 == 0.0 or rho2 == fd2.rho_jam:
            return count, l1
        d2 = fd2.derivative(rho2)
        slope = l1 + l2 * fd1.derivative(rho1) / d2 if d2 else math.nan
        return count, slope if math.isfinite(slope) else math.nan

    return _newton(count_slope, n, lo, hi, 0.5 * (lo + hi), True,
                   _SEARCH_TOL * fd1.rho_jam)


def predict(spec: RingSpec) -> RingPrediction:
    """Asymptotic stationary profile, flux, and interior-state sites.

    Off the thresholds and the band between them, the link-1 density
    solves the vehicle-count equation of the regime N falls in, by
    Newton to the search tolerance of link 1 (``_link1_density``), and
    the common flux is Q1 there.  The three threshold densities are
    taken from the ring (see ``thresholds``), and N on a threshold takes
    them without a search.
    Above N_c a link 1 whose crest is a plateau (a trapezoid) holds the
    extra vehicles on it at flux C1: that is the N_c pattern, with
    rho1 on the plateau.
    Interior states occupy no length, so they never enter the count:
    one can appear at x = L- when N sits exactly on the lower
    threshold, at the standing shock (either face) in between, and at
    x = L1+ when N hits the upper threshold or a plateau above it.
    """
    if spec.N is None:
        raise ValueError("RingSpec.N is not set")
    n = spec.N
    if not -BOUNDARY_TOL <= n <= spec.max_vehicles + BOUNDARY_TOL:  # NaN fails
        raise ValueError(
            f"N={n} veh outside [0, {spec.max_vehicles:.6g}] for this ring"
        )
    fd1, fd2 = spec.fd1, spec.fd2
    c1 = fd1.capacity
    rho_crit1, rho_free, rho_cong, n_a, n_c = spec._threshold_densities

    if n_a + BOUNDARY_TOL < n < n_c - BOUNDARY_TOL:
        l2 = (n - rho_crit1 * spec.L1 + rho_free * spec.L1 - rho_cong * spec.L) \
            / (rho_free - rho_cong)
        profile = (
            ProfileSegment(0.0, spec.L1, rho_crit1),
            ProfileSegment(spec.L1, l2, rho_free),
            ProfileSegment(l2, spec.L, rho_cong),
        )
        sites = tuple(InteriorSite(l2, side) for side in BoundarySide)  # - then +
        return RingPrediction(RingScenario.CRITICAL_WITH_SS, c1, profile,
                              sites, L2=l2)

    # both links free up to N_a, both congested from N_c: one search, on
    # link 1's free or congested branch with link 2 on the same one.  N
    # sits on N_c when at most N_c + BOUNDARY_TOL, as the band test above
    # has put it at or above N_c - BOUNDARY_TOL.
    free = n <= n_a + BOUNDARY_TOL
    at_threshold, rho2_at, lo, hi, invert2 = (
        (abs(n - n_a) <= BOUNDARY_TOL, rho_free, 0.0, rho_crit1, fd2.inv_demand)
        if free else
        (n <= n_c + BOUNDARY_TOL, rho_cong, rho_crit1, fd1.rho_jam, fd2.inv_supply))
    if at_threshold:
        q, rho1, rho2 = c1, rho_crit1, rho2_at
    else:
        rho1 = _link1_density(spec, n, lo, hi, invert2)
        q = fd1.flux_curve(rho1)
        rho2 = invert2(q)
    profile = (
        ProfileSegment(0.0, spec.L1, rho1),
        ProfileSegment(spec.L1, spec.L, rho2),
    )
    if free:
        sites = (InteriorSite(spec.L, BoundarySide.MINUS),) if at_threshold else ()
        return RingPrediction(RingScenario.BOTH_UC, q, profile, sites)
    if q >= c1:
        sites = (InteriorSite(spec.L1, BoundarySide.PLUS),)
        return RingPrediction(RingScenario.CRITICAL_WITH_SOC, c1, profile, sites)
    return RingPrediction(RingScenario.BOTH_SOC, q, profile, ())


def _lane_weight(fd: FundamentalDiagram) -> float:
    return float(getattr(fd, "lanes", 1.0))


def _lane_sinusoid(bounds: Sequence[float], fds: Sequence[FundamentalDiagram],
                   length: float, rho0: float, amplitude: float
                   ) -> Callable[[float], float]:
    """a(x) * (rho0 + amplitude*sin(2 pi x/length)), a(x) the lane count of
    ``fds[i]`` on piece i of a road cut at the ascending ``bounds``."""
    weights = [_lane_weight(fd) for fd in fds]

    def rho(x: float) -> float:
        return weights[bisect.bisect_right(bounds, x)] * (
            rho0 + amplitude * math.sin(2.0 * math.pi * x / length))

    return rho


def initial_density(spec: RingSpec, rho0: float, amplitude: float = 0.0
                    ) -> Callable[[float], float]:
    """The experiment's initial profile a(x) * (rho0 + amplitude*sin(2 pi x/L)).

    a(x) is each link's lane count (1 for diagrams without lanes), so
    the perturbed base density scales onto wide links the way the
    stationary densities do.  The CLI lays its ``sinusoid`` by this rule.
    Raises ValueError, as ``vehicles_of_initial`` does, when the profile
    leaves [0, rho_jam] anywhere.
    """
    _check_initial_range(spec, rho0, amplitude)
    return _lane_sinusoid((spec.L1,), (spec.fd1, spec.fd2), spec.L, rho0,
                          amplitude)


def vehicles_of_initial(spec: RingSpec, rho0: float, amplitude: float = 0.0
                        ) -> float:
    """Total vehicles of the sinusoid initial condition.

    With the per-link lane weights the sine integrates in closed form.
    Raises when the profile leaves [0, rho_jam] anywhere.
    """
    _check_initial_range(spec, rho0, amplitude)
    w1, w2 = _lane_weight(spec.fd1), _lane_weight(spec.fd2)
    # integral of sin(2 pi x / L) over [0, L1]
    sine_l1 = (spec.L / (2.0 * math.pi)) * (1.0 - math.cos(2.0 * math.pi * spec.L1 / spec.L))
    n1 = w1 * (rho0 * spec.L1 + amplitude * sine_l1)
    n2 = w2 * (rho0 * spec.L2_len - amplitude * sine_l1)
    return n1 + n2


def _check_initial_range(spec: RingSpec, rho0: float, amplitude: float) -> None:
    lo = rho0 - abs(amplitude)
    hi = rho0 + abs(amplitude)
    if not lo >= 0:  # NaN fails this
        raise ValueError(f"initial density dips below 0 (rho0={rho0}, "
                         f"amplitude={amplitude})")
    for fd in (spec.fd1, spec.fd2):
        if _lane_weight(fd) * hi > fd.rho_jam:
            raise ValueError(
                f"initial density exceeds rho_jam={fd.rho_jam} veh/km"
            )


class LinkPattern(enum.Enum):
    """Stationary regime of one whole link: uniformly under-critical,
    split by a standing shock, or uniformly strictly congested."""

    UC = "uc"
    SS = "ss"
    SOC = "soc"


@dataclass(frozen=True)
class FeasibilityCell:
    feasible: bool
    scenario: RingScenario | None = None
    reason: str | None = None


def _link_end_states(pattern: LinkPattern, cap: float, q: float
                     ) -> tuple[SDState, SDState]:
    """(start, end) states of a link in the given pattern at flux q."""
    if pattern is LinkPattern.UC:
        return SDState(q, cap), SDState(q, cap)
    if pattern is LinkPattern.SS:
        return SDState(q, cap), SDState(cap, q)
    return SDState(cap, q), SDState(cap, q)


def feasibility_table(spec: RingSpec) -> dict[tuple[LinkPattern, LinkPattern],
                                              FeasibilityCell]:
    """Which of the nine (link 1, link 2) regime patterns can be stationary.

    A pattern pair is feasible when some common flux q <= C1 makes both
    ring boundaries (x = L1 and x = 0) admissible stationary
    transitions.  The check runs the actual pair classifier on witness
    fluxes; infeasible cells record which boundary fails and the flux
    it would need.
    """
    c1, c2 = spec.fd1.capacity, spec.fd2.capacity
    scenario_of = {
        (LinkPattern.UC, LinkPattern.UC): RingScenario.BOTH_UC,
        (LinkPattern.UC, LinkPattern.SS): RingScenario.CRITICAL_WITH_SS,
        (LinkPattern.UC, LinkPattern.SOC): RingScenario.CRITICAL_WITH_SOC,
        (LinkPattern.SOC, LinkPattern.SOC): RingScenario.BOTH_SOC,
    }
    table = {}
    for p1 in LinkPattern:
        # a standing shock or a congested link needs q strictly below its
        # own capacity, so those patterns leave out q = C1 on link 1 (link
        # 2's capacity exceeds C1 and never binds)
        strict = p1 in (LinkPattern.SS, LinkPattern.SOC)
        for p2 in LinkPattern:
            for q in (0.5 * c1,) if strict else (0.5 * c1, c1):
                start1, end1 = _link_end_states(p1, c1, q)
                start2, end2 = _link_end_states(p2, c2, q)
                at_l1 = stationary_pair_check(end1, start2, c1, c2)
                at_zero = stationary_pair_check(end2, start1, c2, c1)
                if StationaryPattern.FORBIDDEN not in (at_l1, at_zero):
                    verdict = FeasibilityCell(True, scenario_of.get((p1, p2)))
                    break
                # Either way the forbidden pair would have to carry
                # min(C1, C2) = C1 across the boundary while the pattern
                # itself runs at q < C1.
                up, down, x = ((1, 2, "L1") if at_l1 is StationaryPattern.FORBIDDEN
                               else (2, 1, "0"))
                verdict = FeasibilityCell(
                    False, None, f"congested end of link {up} feeding a free start "
                    f"of link {down} at x={x} needs q=C1, which contradicts q<C1")
            table[(p1, p2)] = verdict
    return table
