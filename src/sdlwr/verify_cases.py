"""Every check behind the CLI ``verify`` subcommand, run by ``run_checks``.

Five draw random instances: the supply-demand flux against the osher
flux, the boundary flux formula, S1/D2 independence and the stationary
pair as a fixed point on the verify families, and the conservation of a
random ring.  The case table is exhaustive: with equal capacities on
both links, the regime pairing of the two initial states leaves exactly
six configurations.  Each has a known stationary pair, boundary flux,
and wave pattern; the table enumerates every configuration with all of
its order sub-branches and compares the solver output against the
closed-form answer.  Its last row is the capacity-step example (free
flow into a wider road, one more ``CaseEntry`` on two diagrams): no
wave upstream, forward rarefaction downstream, and both interiors
pinned, checked by the same ``check_entry`` as every other row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fundamental_diagram import (
    FundamentalDiagram,
    GreenshieldsDiagram,
    KernerKonhauserDiagram,
    TriangularDiagram,
)
from .godunov_sim import SimGrid, StepConfig, osher_flux, run, sd_flux
from .riemann_solver import (
    Family,
    RiemannProblem,
    Unique,
    WaveDirection,
    WaveKind,
    solve,
)
from .supply_demand import SDState

_FRACTIONS = (0.25, 0.5, 0.75)  # strictly under-capacity flux levels


@dataclass(frozen=True)
class CaseEntry:
    label: str
    u1: SDState
    u2: SDState
    stat_up: SDState
    stat_down: SDState
    q: float
    wave_up: "tuple[WaveKind, WaveDirection] | None"
    wave_down: "tuple[WaveKind, WaveDirection] | None"
    family_interiors: bool = False


def homogeneous_entries(fd: FundamentalDiagram) -> list[CaseEntry]:
    """The full case grid for one diagram used on both links."""
    cap = fd.capacity
    levels = [f * cap for f in _FRACTIONS]
    entries: list[CaseEntry] = []

    def uc(d):
        return SDState(d, cap)

    def oc(s):
        return SDState(cap, s)

    # 1: strictly under-critical into under-critical; the upstream
    # demand passes through and the downstream adjusts by a forward wave
    for d1 in levels:
        for d2 in levels + [cap]:
            if d2 > d1:
                wave = (WaveKind.SHOCK, WaveDirection.FORWARD)
            elif d2 < d1:
                wave = (WaveKind.RAREFACTION, WaveDirection.FORWARD)
            else:
                wave = None
            entries.append(CaseEntry(
                f"case1 d1={d1:g} d2={d2:g}", uc(d1), uc(d2),
                uc(d1), uc(d1), d1, None, wave,
            ))

    # 2: over-critical into under-critical; both links relax to
    # capacity flow through rarefactions
    for s1 in levels + [cap]:
        for d2 in levels + [cap]:
            w1 = None if s1 == cap else (WaveKind.RAREFACTION,
                                         WaveDirection.BACKWARD)
            w2 = None if d2 == cap else (WaveKind.RAREFACTION,
                                         WaveDirection.FORWARD)
            entries.append(CaseEntry(
                f"case2 s1={s1:g} d2={d2:g}", oc(s1), uc(d2),
                SDState(cap, cap), SDState(cap, cap), cap, w1, w2,
                family_interiors=True,
            ))

    # 3: over-critical into strictly over-critical; the downstream
    # supply propagates back
    for s2 in levels:
        for s1 in levels + [cap]:
            if s1 > s2:
                wave = (WaveKind.SHOCK, WaveDirection.BACKWARD)
            elif s1 < s2:
                wave = (WaveKind.RAREFACTION, WaveDirection.BACKWARD)
            else:
                wave = None
            entries.append(CaseEntry(
                f"case3 s1={s1:g} s2={s2:g}", oc(s1), oc(s2),
                oc(s2), oc(s2), s2, wave, None,
            ))

    # 4: strictly under-critical into over-critical with spare
    # downstream supply; the queue is eaten by a forward shock
    for d1, s2 in [(levels[0], levels[1]), (levels[0], levels[2]),
                   (levels[0], cap), (levels[1], levels[2]),
                   (levels[1], cap)]:
        entries.append(CaseEntry(
            f"case4 d1={d1:g} s2={s2:g}", uc(d1), oc(s2),
            uc(d1), uc(d1), d1, None,
            (WaveKind.SHOCK, WaveDirection.FORWARD),
        ))

    # 5: strictly under-critical into over-critical with a binding
    # downstream supply; congestion spills back as a backward shock
    for d1, s2 in [(levels[1], levels[0]), (levels[2], levels[0]),
                   (levels[2], levels[1])]:
        entries.append(CaseEntry(
            f"case5 d1={d1:g} s2={s2:g}", uc(d1), oc(s2),
            oc(s2), oc(s2), s2,
            (WaveKind.SHOCK, WaveDirection.BACKWARD), None,
        ))

    # 6: matched demand and supply; no waves, but the interior states
    # next to the boundary are only pinned one side at a time
    for q in levels:
        entries.append(CaseEntry(
            f"case6 q={q:g}", uc(q), oc(q),
            uc(q), oc(q), q, None, None,
            family_interiors=True,
        ))

    return entries


def check_entry(fd_up: FundamentalDiagram, fd_down: FundamentalDiagram,
                entry: CaseEntry) -> str | None:
    """Solve one entry and compare every advertised output exactly, the
    first field that differs named in the failure."""
    sol = solve(RiemannProblem(fd_up, fd_down, entry.u1, entry.u2))
    q = entry.q

    def interior(stat):
        return Family(q, q, stat) if entry.family_interiors else Unique(stat)

    def pair(wave):
        return None if wave.is_none else (wave.kind, wave.direction)

    for field, got, want in (
            ("flux", sol.boundary_flux, q),
            ("stat_up", sol.stat_up, entry.stat_up),
            ("stat_down", sol.stat_down, entry.stat_down),
            ("upstream wave", pair(sol.wave_up), entry.wave_up),
            ("downstream wave", pair(sol.wave_down), entry.wave_down),
            ("upstream interior", sol.interior_up, interior(entry.stat_up)),
            ("downstream interior", sol.interior_down, interior(entry.stat_down))):
        if got != want:
            return f"{entry.label}: {field} {got!r} != {want!r}"
    return None


# Free flow into a doubled capacity (Greenshields 1/4 into 1/8): the
# demand passes unchanged and only the downstream link adjusts, through a
# forward rarefaction (its demand drops toward the incoming flow).
_CAPACITY_STEP = CaseEntry(
    "capacity step", SDState(0.7, 1.0), SDState(0.5, 2.0),
    SDState(0.7, 1.0), SDState(0.7, 2.0), 0.7, None,
    (WaveKind.RAREFACTION, WaveDirection.FORWARD),
)


def run_case_table() -> str | None:
    """Run the whole grid, then the capacity step; None when everything
    matches."""
    gs = GreenshieldsDiagram(1.0, 4.0)
    rows = [(fd, fd, entry) for fd in (gs, KernerKonhauserDiagram())
            for entry in homogeneous_entries(fd)]
    rows.append((gs, GreenshieldsDiagram(1.0, 8.0), _CAPACITY_STEP))
    for fd_up, fd_down, entry in rows:
        problem = check_entry(fd_up, fd_down, entry)
        if problem is not None:
            return f"{type(fd_up).__name__} {problem}"
    return None


def _verify_families() -> list[FundamentalDiagram]:
    """The four diagram families the randomized checks draw from."""
    return [
        GreenshieldsDiagram(27.8 / 1000.0, 120.0),
        TriangularDiagram(30e-3, 150.0, q_max=0.6, v_cong=6e-3),
        KernerKonhauserDiagram(lanes=1.0),
        KernerKonhauserDiagram(lanes=2.0),
    ]


def _random_problem(rng, fams) -> RiemannProblem:
    """A problem between two drawn families at uniformly drawn densities."""
    fd1, fd2 = (fams[i] for i in rng.choice(len(fams), size=2))
    return RiemannProblem.from_densities(fd1, fd2, rng.uniform(0.0, fd1.rho_jam),
                                         rng.uniform(0.0, fd2.rho_jam))


def _check_osher(rng, fams, trials) -> str | None:
    for fd in fams:
        for _ in range(trials):
            a = rng.uniform(0.0, fd.rho_jam)
            b = rng.uniform(0.0, fd.rho_jam)
            got = sd_flux(fd, a, fd, b)
            want = osher_flux(fd, a, b)
            tol = 1e-12 * max(abs(want), 1e-30)
            if abs(got - want) > tol:
                return (f"sd_flux {got!r} != osher {want!r} at "
                        f"rho=({a:.6g},{b:.6g}) on {type(fd).__name__}")
    return None


def _check_flux_formula(solved) -> str | None:
    for p, sol in solved:
        if sol.boundary_flux != min(p.u1.demand, p.u2.supply):
            return f"flux formula broken for {p.u1}, {p.u2}"
    return None


def _check_independence(rng, solved) -> str | None:
    for p, sol in solved:
        u1, u2 = p.u1, p.u2
        if u1.is_over_critical(p.fd_up.capacity):
            u1 = SDState(u1.demand, rng.uniform(0.0, p.fd_up.capacity))
        if u2.is_under_critical(p.fd_down.capacity):
            u2 = SDState(rng.uniform(0.0, p.fd_down.capacity), u2.supply)
        alt = solve(RiemannProblem(p.fd_up, p.fd_down, u1, u2))
        if (alt.boundary_flux != sol.boundary_flux
                or alt.stat_up != sol.stat_up
                or alt.stat_down != sol.stat_down):
            return f"solution changed under S1/D2 perturbation of {p.u1}, {p.u2}"
    return None


def _check_idempotence(solved) -> str | None:
    for p, sol in solved:
        again = solve(RiemannProblem(p.fd_up, p.fd_down, sol.stat_up, sol.stat_down))
        if not (again.stat_up == sol.stat_up
                and again.stat_down == sol.stat_down
                and again.wave_up.is_none and again.wave_down.is_none):
            return f"stationary pair not a fixed point for {p.u1}, {p.u2}"
    return None


def _check_conservation(rng, trials) -> str | None:
    fd = GreenshieldsDiagram(1.0, 4.0)
    grid = SimGrid([(fd, 16)], rng.uniform(0.2, 3.8, size=16), dx=1.0)
    cfg = StepConfig(dt=0.5)
    steps = min(max(trials, 1) * 10, 20_000)
    record = run(grid, cfg, duration=steps * cfg.dt, record_every=steps)
    drift = record.conservation_drift()
    if drift > 1e-9:
        return f"ring conservation drift {drift:.3e} over {steps} steps"
    return None


def run_checks(seed: int, trials: int):
    """Yield (name, first failure or None) for each of verify's checks in
    order, the random ones drawing ``trials`` instances from ``seed``."""
    rng = np.random.default_rng(seed)
    fams = _verify_families()
    yield "osher-equivalence", _check_osher(rng, fams, trials)
    problems = [_random_problem(rng, fams) for _ in range(trials)]
    solved = [(p, solve(p)) for p in problems]  # shared by the checks of solve
    yield "boundary-flux-formula", _check_flux_formula(solved)
    yield "s1-d2-independence", _check_independence(rng, solved)
    yield "stationary-idempotence", _check_idempotence(solved)
    yield "homogeneous-case-table", run_case_table()
    yield "ring-conservation", _check_conservation(rng, trials)
