"""Traffic states in supply-demand coordinates.

Instead of density, a state on a link with capacity C is the pair
U = (D, S) of its demand and supply.  Because max(D, S) = C holds,
exactly for the Greenshields and Kerner-Konhauser laws and to rounding
for the triangular one, the image of [0, rho_jam] is the L-shaped set

    {(d, C) : 0 <= d <= C}  union  {(C, s) : 0 <= s <= C},

and the corner (C, C) is the critical state.  The local flux through a
point in equilibrium is q = min(D, S), and the ratio gamma = D/S picks
out the same state the density did: rho = R(gamma).

Classification is exact up to the package flux tolerance: a state is
under-critical (UC) when S = C, strictly so (SUC) when additionally
D < C; over-critical (OC) when D = C, strictly so (SOC) when S < C.
Critical states are both UC and OC.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .fundamental_diagram import FLUX_TOL, FundamentalDiagram

__all__ = [
    "Regime",
    "SDState",
    "classify",
    "from_density",
    "to_density",
]


class Regime(enum.Enum):
    """Exclusive three-way split of the L-shaped state set."""

    CRITICAL = "critical"
    STRICTLY_UNDER_CRITICAL = "strictly_under_critical"
    STRICTLY_OVER_CRITICAL = "strictly_over_critical"


@dataclass(frozen=True)
class SDState:
    """A traffic state as its (demand, supply) pair, both in veh/s."""

    demand: float
    supply: float

    def __post_init__(self):
        # written so that NaN fails it
        if not (self.demand >= -FLUX_TOL and self.supply >= -FLUX_TOL):
            raise ValueError(f"negative or NaN demand or supply: {self}")

    @property
    def flux(self) -> float:
        """Equilibrium flux q = min(D, S)."""
        return min(self.demand, self.supply)

    @property
    def gamma(self) -> float:
        """Demand/supply ratio in [0, inf]; inf at jam (S = 0, D > 0)."""
        if self.supply == 0.0:
            if self.demand == 0.0:
                raise ValueError("gamma is undefined for D = S = 0")
            return math.inf
        return self.demand / self.supply

    def is_under_critical(self, capacity: float) -> bool:
        """UC: supply at capacity (includes critical)."""
        return abs(self.supply - capacity) <= FLUX_TOL

    def is_over_critical(self, capacity: float) -> bool:
        """OC: demand at capacity (includes critical)."""
        return abs(self.demand - capacity) <= FLUX_TOL


def classify(state: SDState, capacity: float) -> Regime:
    """Regime of a state on a link with the given capacity.

    Raises ValueError when the state is off the L-shape, i.e. neither
    component is at capacity or one exceeds it (beyond FLUX_TOL).
    """
    uc = state.is_under_critical(capacity)
    oc = state.is_over_critical(capacity)
    if state.demand > capacity + FLUX_TOL or state.supply > capacity + FLUX_TOL:
        raise ValueError(
            f"state {state} exceeds capacity {capacity:.6g} veh/s"
        )
    if uc and oc:
        return Regime.CRITICAL
    if uc:
        return Regime.STRICTLY_UNDER_CRITICAL
    if oc:
        return Regime.STRICTLY_OVER_CRITICAL
    raise _off_diagram(state, capacity)


def _off_diagram(state: SDState, capacity: float) -> ValueError:
    """The error for a state that is neither under- nor over-critical."""
    return ValueError(
        f"state {state} is not on the demand-supply set of a link with "
        f"capacity {capacity:.6g} veh/s (max component must equal capacity)"
    )


def from_density(fd: FundamentalDiagram, rho: float) -> SDState:
    """Lift a density to its (D, S) pair on the given diagram."""
    return SDState(float(fd.demand(rho)), float(fd.supply(rho)))


def to_density(fd: FundamentalDiagram, state: SDState) -> float:
    """Density of a state on the given diagram.

    Under-critical states (D <= S) invert the demand branch, congested
    states the supply branch; this is R(D/S) without the ratio detour.
    Inverse of ``from_density`` away from trapezoidal plateaus (where a
    whole density interval shares one (D, S) pair).
    """
    classify(state, fd.capacity)  # reject off-diagram states early
    if state.demand <= state.supply:
        return fd.inv_demand(state.demand)
    return fd.inv_supply(state.supply)
