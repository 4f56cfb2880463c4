"""Riemann problems at a flux-curve change, solved in (D, S) coordinates.

Two links meet at x = 0, each with its own diagram.  The solver returns
the stationary states that sit against the boundary on either side, the
boundary flux min{D1, S2}, and the kinematic wave each link sends away
from x = 0.  Both cases below are classics: a two-lane to one-lane drop
that queues, and a homogeneous tie whose rarefaction straddles x = 0.
"""

import numpy as np

from sdlwr import (
    GreenshieldsDiagram,
    KernerKonhauserDiagram,
    RiemannProblem,
    from_density,
    sample_profile,
    solve,
)


def m_per_s(speed):
    """A speed in km/s as signed m/s to two decimals.  Below 0.005 m/s it
    prints +0.00: a fan edge at the crest is Q' ~ 1e-10 km/s, whose sign
    is rounding."""
    v = speed * 1000
    return f"{0.0 if abs(v) < 0.005 else v:+.2f}"


def describe(name, p):
    sol = solve(p)
    print(name)
    print(f"  u1 = (D {p.u1.demand:.4f}, S {p.u1.supply:.4f})   "
          f"u2 = (D {p.u2.demand:.4f}, S {p.u2.supply:.4f})")
    print(f"  boundary flux q = {sol.boundary_flux:.4f} veh/s")
    print(f"  stationary up   = (D {sol.stat_up.demand:.4f}, "
          f"S {sol.stat_up.supply:.4f})  interior {type(sol.interior_up).__name__}")
    print(f"  stationary down = (D {sol.stat_down.demand:.4f}, "
          f"S {sol.stat_down.supply:.4f})  interior {type(sol.interior_down).__name__}")
    for side, wave in (("up", sol.wave_up), ("down", sol.wave_down)):
        if wave.is_none:
            print(f"  wave {side:4s}: none")
            continue
        lo, hi = wave.speed_range
        print(f"  wave {side:4s}: {wave.kind.value}, speeds "
              f"[{m_per_s(lo)}, {m_per_s(hi)}] m/s, "
              f"rho {wave.rho_left:.2f} -> {wave.rho_right:.2f} veh/km")
    print()
    return sol


kk2 = KernerKonhauserDiagram(lanes=2)
kk1 = KernerKonhauserDiagram(lanes=1)

# Lane drop under load: two free lanes sending 1.22 veh/s hit a single
# lane that can pass at most its capacity 0.71 veh/s.  The excess piles
# up as a backward shock; the narrow link runs exactly critical.
p_drop = RiemannProblem(kk2, kk1,
                        from_density(kk2, 50.0),
                        from_density(kk1, 20.0))
sol_drop = describe("two lanes -> one lane, demand above capacity", p_drop)

# Same geometry, light traffic: everything fits, the boundary just
# passes the upstream demand through and no queue forms.
p_light = RiemannProblem(kk2, kk1,
                         from_density(kk2, 12.0),
                         from_density(kk1, 6.0))
describe("two lanes -> one lane, light traffic", p_light)

# Homogeneous road, congested left of a light platoon: D1 = S2 = C ties,
# and the solution is one transonic rarefaction.  The tie is the only
# case where the admissible interior states form a whole family rather
# than a single point, hence the Family interiors printed here.
gs = GreenshieldsDiagram(1.0, 4.0)
p_tie = RiemannProblem(gs, gs, from_density(gs, 3.0), from_density(gs, 1.0))
sol_tie = describe("homogeneous tie, transonic rarefaction", p_tie)

print("density profile rho(x/t) through the transonic fan")
xi = np.linspace(-0.9, 0.9, 13)
rho = sample_profile(p_tie, xi, sol_tie)
print(f"{'xi m/s':>8s} {'rho veh/km':>11s}")
for x, r in zip(xi, rho):
    print(f"{x * 1000:8.0f} {r:11.4f}")
print()

# the fan spans characteristic speeds Q'(3) = -0.5 to Q'(1) = +0.5 km/s;
# outside it the profile holds the initial densities
print("lane-drop profile at t = 300 s: queue behind the shock (by then")
print("2.2 km upstream), critical at the drop, rarefaction running ahead")
t = 300.0
x = np.linspace(-3.0, 3.0, 7)
rho = sample_profile(p_drop, x / t, sol_drop)
for xx, r in zip(x, rho):
    print(f"  x = {xx:+5.2f} km  rho = {r:8.4f} veh/km")
