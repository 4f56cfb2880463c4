"""Ring road with a bottleneck link: long-run state versus vehicle count.

A closed loop of 16.8 km carries a 2.8 km single-lane stretch inside an
otherwise two-lane road.  Because the loop conserves vehicles, the total
count N alone decides where the road settles: free flow everywhere, a
standing shock queued at the bottleneck, or congestion everywhere.  The
predictor works that out from the diagrams alone; the simulator is then
run at three loads to check it cell by cell.
"""

import numpy as np

from sdlwr import (
    KernerKonhauserDiagram,
    RingSpec,
    StepConfig,
    detect_interior_states,
    feasibility_table,
    grid_from_segments,
    initial_density,
    predict,
    run,
    thresholds,
)

kk1 = KernerKonhauserDiagram(lanes=1)
kk2 = KernerKonhauserDiagram(lanes=2)
ring = RingSpec(L=16.8, L1=2.8, fd1=kk1, fd2=kk2)

n_a, n_c = thresholds(ring)
print(f"loop of {ring.L} km, bottleneck on the first {ring.L1} km")
print(f"capacities {kk1.capacity:.4f} / {kk2.capacity:.4f} veh/s")
print(f"thresholds N_a = {n_a:.4f} veh, N_c = {n_c:.4f} veh, "
      f"max load {ring.max_vehicles:.1f} veh")
print()

print("which stationary link patterns can coexist on the loop")
table = feasibility_table(ring)
for (up, down), cell in sorted(table.items(),
                               key=lambda kv: (kv[0][0].value, kv[0][1].value)):
    tag = cell.scenario.value if cell.feasible else f"no ({cell.reason})"
    print(f"  link1 {up.value:16s} link2 {down.value:16s} -> {tag}")
print()

# three loads, one per regime: below N_a, between the thresholds, and
# above N_c.  N is the count of the 600 cells the runs march.  Off the
# thresholds the start-up waves just circulate and decay like 1/t, so
# the light and heavy runs need far longer than the middle one, where
# the bottleneck pins the flux and swallows them.
amplitude = 3.0
loads = [
    ("light", 12.0, 60000.0),
    ("middle", 28.0, 6000.0),
    ("heavy", 60.0, 60000.0),
]

n_cells = 600
dx = ring.L / n_cells
n1 = round(ring.L1 / dx)
cfg = StepConfig(dt=0.8)

for name, rho0, duration in loads:
    grid = grid_from_segments([(kk1, n1), (kk2, n_cells - n1)], dx=dx,
                              rho=initial_density(ring, rho0, amplitude))
    n_veh = grid.total_vehicles()
    pred = predict(ring.with_vehicles(n_veh))
    print(f"{name}: N = {n_veh:.4f} veh  ->  {pred.scenario.value}, "
          f"q = {pred.q:.4f} veh/s")
    if pred.scenario.value == "critical_with_ss":
        print(f"  standing shock predicted {pred.L2:.4f} km into the "
              f"wide link")
    # both faces of a mid-cell shock quantize to the same cell
    expected = sorted({s.cell_index(dx, n_cells) for s in pred.interior_sites})

    rec = run(grid, cfg, duration=duration, record_every=10 ** 9)
    found = detect_interior_states(rec, steady_tol=2e-2, run_tol=2e-2)
    print(f"  after {duration:.0f} s: last-step movement "
          f"{rec.convergence_metric:.1e} veh/km")
    print(f"  interior cells predicted {expected}, detected "
          f"{[c.cell for c in found]}")
    # the one stubborn cell in the middle run is the shock cell itself:
    # it straddles the jump, so no single target density fits it
    target = pred.cell_densities(n_cells, ring.L)
    worst = np.max(np.abs(rec.final_rho - target))
    off = int(np.sum(np.abs(rec.final_rho - target) > 0.01 * grid.rho_jam))
    print(f"  cells off the predicted profile by over 1% of rho_jam: {off} "
          f"(worst gap {worst:.3f} veh/km)")
    print()
