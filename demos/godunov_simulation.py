"""Finite-volume simulation on an open road with a rush-hour demand step.

The scheme advances cell densities with the interface flux min{D_i,
S_i+1}, which is the exact Riemann flux of the supply/demand framework.
On a homogeneous road it equals the Godunov flux computed directly
from the flux curve; the demo cross-checks the two, watches a demand
step propagate while checking the vehicle ledger, and checks the
fluxes of every recorded snapshot against the direct Godunov flux.
"""

import numpy as np

from sdlwr import (
    BoundarySpec,
    GreenshieldsDiagram,
    StepConfig,
    StepFunction,
    cfl_number,
    grid_from_segments,
    interface_fluxes,
    osher_flux,
    run,
    sd_flux,
)

gs = GreenshieldsDiagram(27.8e-3, 120.0)

print("interface flux cross-check on the homogeneous flux curve")
rng = np.random.default_rng(3)
pairs = rng.uniform(0.0, gs.rho_jam, size=(500, 2))
worst = max(abs(sd_flux(gs, rl, gs, rr) - osher_flux(gs, rl, rr))
            for rl, rr in pairs)
print(f"  max |sd - godunov| over 500 random cell pairs: {worst:.2e} veh/s")
print()

# 20 km open road, 200 m cells, initially in free flow carrying
# 0.25 veh/s.  Upstream demand doubles at t = 600 s and drops back at
# t = 2400 s; downstream stays unconstrained.
rho_free = gs.inv_demand(0.25)
demand = StepFunction((0.0, 600.0, 2400.0), (0.25, 0.50, 0.25))
bounds = BoundarySpec(left_demand=demand,
                      right_supply=StepFunction((0.0,), (gs.capacity,)))
grid = grid_from_segments([(gs, 100)], dx=0.2, rho=rho_free,
                          boundaries=bounds)
cfg = StepConfig(dt=5.0)

print("open road, 20 km, demand step 0.25 -> 0.50 -> 0.25 veh/s")
print(f"  initial density {rho_free:.4f} veh/km, "
      f"CFL number {cfl_number(grid, cfg.dt):.2f}")
rec = run(grid, cfg, duration=3600.0, record_every=120)
print(f"  snapshots at t = {[int(t) for t in rec.times]} s")
print()

print(f"{'t s':>6s} {'vehicles':>9s} {'rho@5km':>8s} {'rho@15km':>9s} "
      f"{'q out veh/s':>12s}")
for k, t in enumerate(rec.times):
    veh = np.sum(rec.rho[k]) * grid.dx
    print(f"{t:6.0f} {veh:9.3f} {rec.rho[k][24]:8.3f} {rec.rho[k][74]:9.3f} "
          f"{rec.q[k][-1]:12.4f}")
print()

# every vehicle that crossed either end is in the ledger; the interior
# update is conservative by construction, so start + in - out must
# match the final count to rounding
gained = rec.inflow - rec.outflow
change = np.sum(rec.final_rho) * grid.dx - rho_free * grid.n * grid.dx
print("vehicle ledger over the hour")
print(f"  entered {rec.inflow:9.3f} veh   left {rec.outflow:9.3f} veh")
print(f"  net gain {gained:+.6f} veh, density change {change:+.6f} veh, "
      f"mismatch {gained - change:+.2e} veh")
print()

# every cell-to-cell flux the march used on a recorded snapshot is the
# direct Godunov flux of the densities either side
worst = 0.0
for rho in rec.rho:
    f = interface_fluxes(grid.with_density(rho), cfg)
    worst = max(worst, max(abs(f[i] - osher_flux(gs, rho[i - 1], rho[i]))
                           for i in range(1, grid.n)))
print(f"interface fluxes of all {len(rec.times)} snapshots against the "
      f"direct Godunov flux:")
print(f"  max |sd - godunov| = {worst:.2e} veh/s")
