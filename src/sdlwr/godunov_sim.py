"""First-order finite-volume simulation with supply-demand fluxes.

The road is a row of cells, each owning a fundamental diagram and a
density.  One step of the scheme moves

    rho_i' = rho_i - (dt/dx) * (q_out - q_in)

where the interface flux between consecutive cells is

    q = min(D_left(rho_left), S_right(rho_right)),

the cell transmission rule, valid also when the two cells carry
different diagrams.  ``osher_flux``, the Godunov flux of one diagram
by a dense extremum scan of Q over the density interval, is kept
outside the march as an independent oracle for homogeneous interfaces.

Topology is a ring (interface 0 wraps) or open, in which case demand
enters from the left and supply limits the right exit, both as
functions of time.

A road is its segments, ``(diagram, count)`` runs of cells, from which
a grid builds its parts once.  Each part is one flux formula with its
parameter columns, each run's value repeated over its cells: one part
gathers every run of a class that defines a table form (a built-in
family, not a subclass of one), and one part holds each diagram object
of any other class, whose formula is its own ``flux_curve`` and which
has no columns.  Demand and supply keep the rule of
``FundamentalDiagram``, D = Q(min(rho, rho_crit)) and
S = Q(max(rho, rho_crit)), so demand, supply, flux and speed of every
cell equal ``fd.demand`` etc. bit for bit.  A part that covers the road
takes both from one pass of its formula over the stacked
[min(rho, rho_crit), max(rho, rho_crit)].  On a road of several parts
each part's formula runs once over its densities, and each cell selects:
D = Q(rho) and S = Q(rho_crit) where rho <= rho_crit, the reverse
elsewhere.  Q(rho_crit) is each diagram's stored ``_q_crit``, the
value its scalar ``demand`` and ``supply`` return, never
``fd.capacity``, which may sit an ulp away.

``SimGrid.flux_speed`` takes Q part by part and speed q/rho once for
the road, from the grid's road-wide ``rho_jam`` and ``v0`` columns.
``run`` sizes its record from the step count before the march, which
fills it: each recorded state's flux is read off the demand|supply that
the step from it writes, D where rho <= rho_crit and S elsewhere (Q from
the same bits, by the road-wide ``rho_crit`` column), and the speed is
taken over the record once the march ends.

A grid checks its densities by one range rule, ``_density_problems``
(the CLI's too), and every boundary breakpoint against its end link's
capacity once, when it is built.  One kernel, ``_march``, serves
``step``, ``run`` and the CLI; it checks all densities once per step by
``SimGrid._clamp``'s range test and raises ``SimulationDiverged`` with
the step, cell and density of the first one outside [0, rho_jam],
beyond the DENSITY_SLACK that it clamps away for the fluxes only.

Demand, supply and interface fluxes have one writer, ``_flux_writer``,
which the march, ``interface_fluxes`` and ``SimGrid.demand_supply`` all
call.  It makes every array it needs once, bound to the caller's
arrays, and returns a function that fills them in place at every step
without allocating.  A part that covers the whole road (a ring of
Kerner-Konhauser links, say) runs its table formula in the caller's
demand|supply array.  A road of several parts is laid out part-major:
one ``take`` of the grid's ``_order`` gathers the densities part after
part, each part's formula runs in place on its own slice of a
part-major Q array, one ``take`` of the grid's ``_back`` puts Q in road
order, and demand and supply are selected in road order against the
grid's ``_cap`` column of Q(rho_crit).  The two index arrays and
``_cap`` are built once per grid, ``_cap`` straight from the diagrams.

Stability needs the CFL number max|Q'| * dt / dx at or below 1; runs
and the CLI refuse anything above 0.95 by one guard, ``_cfl_problem``,
unless explicitly overridden.
"""

from __future__ import annotations

import bisect
import copy
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fundamental_diagram import (DENSITY_SLACK, FLUX_TOL, FundamentalDiagram,
                                  _speed_of_flux)
from .errors import ConfigError, SimulationDiverged

__all__ = [
    "ConfigError",
    "SimulationDiverged",
    "StepFunction",
    "BoundarySpec",
    "SimGrid",
    "StepConfig",
    "SimRecord",
    "InteriorCell",
    "grid_from_segments",
    "sd_flux",
    "osher_flux",
    "cfl_number",
    "interface_fluxes",
    "step",
    "run",
    "detect_interior_states",
]

# A run is declared steady once the largest per-cell density change in
# one step falls below this (veh/km); interior-state detection refuses
# records that have not reached it.
STEADY_TOL = 1e-10

# Detection thresholds: an interior cell juts out from both neighbours
# by more than JUMP_TOL while the three cells on either side agree
# within RUN_TOL (veh/km).
JUMP_TOL = 0.5
RUN_TOL = 1e-3

_CFL_GUARD = 0.95

# Points of osher_flux's extremum scan, both endpoints included.
_SCAN_SAMPLES = 10_000


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function of time: value of the last breakpoint
    at or before t (the first value before any breakpoint)."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ConfigError("step function needs matching, nonempty breakpoints")
        if not all(map(math.isfinite, self.times)):
            raise ConfigError("step function breakpoint times must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("step function breakpoints must increase")

    def __call__(self, t: float) -> float:
        i = bisect.bisect_right(self.times, t) - 1
        return self.values[max(i, 0)]


@dataclass(frozen=True)
class BoundarySpec:
    """Open-road boundary data: inflow demand and outflow supply, veh/s."""

    left_demand: StepFunction
    right_supply: StepFunction


class SimGrid:
    """Cell densities on a road of ``(diagram, count)`` segments.

    ``segments`` are the road's homogeneous links in order, as
    ``grid_from_segments`` takes them.  ``boundaries=None`` makes the road
    a ring.  Construction builds the parts (see the module docstring)
    that every demand, supply, flux and speed evaluation of the grid goes
    through, and raises ConfigError for a density outside [0, rho_jam],
    boundaries that are not a BoundarySpec of two StepFunctions or a
    breakpoint outside [0, capacity] of its end link; ``with_density``
    copies share the parts and their arrays.
    ``rho_jam``, ``rho_crit`` and ``v0`` are the per-cell jam density,
    critical density and free-flow speed Q'(0) arrays.  A road of
    several parts also holds the part-major layout of ``_flux_writer``:
    ``_order``, the road's cells part after part, ``_back``, its inverse
    permutation, and ``_cap``, each cell's Q(rho_crit), its diagram's
    ``_q_crit``; all three are None on a road of one part.
    """

    def __init__(self, segments: Sequence[tuple[FundamentalDiagram, int]], rho,
                 dx: float, boundaries: BoundarySpec | None = None):
        self.segments, n = _runs(segments)
        self.rho = np.asarray(rho, dtype=float).copy()
        self.dx = float(dx)
        self.boundaries = boundaries
        if self.rho.shape != (n,) or n < 2:
            raise ConfigError(
                f"need one density per cell and at least 2 cells, got "
                f"{n} cells / densities of shape {self.rho.shape}"
            )
        if not (self.dx > 0 and math.isfinite(self.dx)):
            raise ConfigError(f"dx must be positive and finite, got {self.dx!r}")
        # part key -> its (first cell, diagram, count) runs
        runs_of: dict[object, list] = {}
        first = 0
        for fd, count in self.segments:
            key = type(fd) if fd._table_form else id(fd)
            runs_of.setdefault(key, []).append((first, fd, count))
            first += count
        self._parts = [_Part(runs, len(runs_of) == 1) for runs in runs_of.values()]
        counts = [count for _, count in self.segments]
        self._order = self._back = self._cap = None
        if len(self._parts) > 1:  # the part-major layout of _flux_writer
            self._order = np.concatenate([part.cells for part in self._parts])
            self._back = np.argsort(self._order)
            self._cap = _repeat([fd._q_crit for fd, _ in self.segments], counts)
        self.rho_jam = _repeat([fd.rho_jam for fd, _ in self.segments], counts)
        self.rho_crit = _repeat([fd.rho_crit for fd, _ in self.segments], counts)
        self.v0 = _repeat([fd.derivative(0.0, side=+1) for fd, _ in self.segments],
                          counts)
        problems = _density_problems(self.rho, self.segments)
        if boundaries is not None:
            if not isinstance(boundaries, BoundarySpec):
                raise ConfigError("boundaries must be a BoundarySpec or None")
            for fn, (fd, _), what in (
                    (boundaries.left_demand, self.segments[0], "left demand"),
                    (boundaries.right_supply, self.segments[-1], "right supply")):
                if not isinstance(fn, StepFunction):
                    raise ConfigError(f"boundary {what} must be a StepFunction")
                problems += [p for _, p in _flow_problems(fn, fd.capacity, what)]
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def fds(self) -> list[FundamentalDiagram]:
        """The diagram of each cell, derived from ``segments``."""
        return [fd for fd, count in self.segments for _ in range(count)]

    @property
    def n(self) -> int:
        return self.rho.size

    @property
    def is_ring(self) -> bool:
        return self.boundaries is None

    @property
    def x_centers(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.dx

    def demand_supply(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell demand and supply (veh/s)."""
        ds = np.empty(2 * self.n)
        _flux_writer(self, np.empty(self.n + 1), ds)(self._clamp(self.rho), 0.0)
        return ds[:self.n], ds[self.n:]

    def flux_speed(self, rho=None) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell equilibrium flux (veh/s) and speed (km/s).

        ``rho`` may carry leading axes, such as one row per snapshot.
        """
        rho = self._clamp(self.rho if rho is None else np.asarray(rho, dtype=float))
        q = np.empty(rho.shape)
        for part in self._parts:
            at = (..., slice(None) if self._order is None else part.cells)
            q[at] = part.flux(rho[at], *part.params)
        return q, _speed_of_flux(rho, q, self.rho_jam, self.v0)

    def total_vehicles(self, rho=None) -> float:
        rho = self.rho if rho is None else rho
        return float(np.sum(rho) * self.dx)

    def max_wave_speed(self) -> float:
        return max(fd.max_wave_speed() for fd, _ in self.segments)

    def with_density(self, rho) -> "SimGrid":
        """The same road holding a copy of ``rho``."""
        grid = copy.copy(self)
        grid.rho = np.asarray(rho, dtype=float).copy()
        return grid

    def _clamp(self, rho, steps=None, gap=None):
        """The range test: ``rho`` itself when min(rho_jam - rho, rho),
        written into ``gap`` if given, is at least 0; else ``rho`` with
        drift of up to DENSITY_SLACK beyond [0, rho_jam] clamped away.
        Any other density (NaN included) raises, naming its cell:
        SimulationDiverged when ``steps`` is given, else ValueError.

        The test reads the smallest gap at ``gap.argmin()``, a cheaper
        call than ``gap.min()``.  ``argmin`` points at the first NaN if
        there is one, so a NaN still fails the test; the index is flat,
        as ``rho`` may carry leading axes (see ``flux_speed``)."""
        gap = np.minimum(np.subtract(self.rho_jam, rho, out=gap), rho, out=gap)
        if gap.flat[gap.argmin()] >= 0.0:
            return rho
        bad = ~(gap >= -DENSITY_SLACK)
        if np.any(bad):
            k = int(np.flatnonzero(bad)[0])
            cell, density = k % self.n, float(rho.flat[k])
            when = "" if steps is None else f" after {steps} steps"
            message = (f"density {density!r} veh/km in cell {cell}{when} lies "
                       f"outside [0, {self.rho_jam[cell]:g}] veh/km")
            if steps is None:
                raise ValueError(message)
            raise SimulationDiverged(message, steps, cell, density)
        return np.where(rho < 0.0, 0.0, np.minimum(rho, self.rho_jam))


def _runs(segments) -> tuple[list[tuple[FundamentalDiagram, int]], int]:
    """``segments`` as checked (diagram, count) runs, and their cell count."""
    try:
        runs = [(fd, operator.index(count)) for fd, count in segments]
    except TypeError as exc:
        raise ConfigError(f"segments are (diagram, integer count) runs: {exc}") from exc
    if any(count < 1 for _, count in runs):
        raise ConfigError("every segment needs at least one cell")
    return runs, sum(count for _, count in runs)


def _repeat(values, counts) -> np.ndarray:
    """Per-cell column of one value per run of ``counts`` cells."""
    return np.repeat(np.array(values, dtype=float), counts)


def _density_problems(rho: np.ndarray, segments) -> list[str]:
    """The range rule of a road's densities: a message for each way some
    leave [0, rho_jam] (NaN, below 0, above), with their count and first."""
    jam = _repeat([fd.rho_jam for fd, _ in segments],
                  [count for _, count in segments])
    problems = []
    for bad, what in ((np.isnan(rho), "is NaN"), (rho < 0, "dips below 0"),
                      (rho > jam, "exceeds rho_jam")):
        cells = np.flatnonzero(bad)
        if cells.size:
            problems.append(f"initial density {what} in {cells.size} of "
                            f"{rho.size} cells, the first cell {cells[0]}")
    return problems


def _flow_problems(fn: StepFunction, cap: float, what: str):
    """(index, message) of each breakpoint of boundary schedule ``fn``
    whose flow lies outside [0, ``cap``], with FLUX_TOL veh/s slack."""
    for i, (t, value) in enumerate(zip(fn.times, fn.values)):
        if not 0 <= value <= cap + FLUX_TOL:  # NaN fails this
            yield i, (f"boundary {what}({t}) = {float(value)} veh/s "
                      f"outside [0, {cap:.6g}]")


class _Part:
    """Cells sharing one flux formula, and its per-cell parameter columns.

    ``runs`` are the part's (first cell, diagram, count) runs in road
    order; ``cells`` joins their cell ranges.  The diagrams'
    class's ``_table_form`` gives the formula and the diagram attributes
    whose columns ``params`` holds, in order; a class without one makes
    a part of a single diagram, whose bound ``flux_curve`` is the
    formula and which has no columns.  A part that ``covers`` the road
    also holds each column twice over in ``params_twice``, for one pass
    over demand and supply together; on other parts it is None.
    """

    def __init__(self, runs, covers: bool):
        self.cells = np.concatenate([np.arange(first, first + count)
                                     for first, _, count in runs])
        fds, counts = [fd for _, fd, _ in runs], [count for _, _, count in runs]
        self.flux, names = fds[0]._table_form or (fds[0].flux_curve, ())
        self.params = [_repeat([getattr(fd, name) for fd in fds], counts)
                       for name in names]
        self.params_twice = ([np.concatenate((p, p)) for p in self.params]
                             if covers else None)


def grid_from_segments(segments: Sequence[tuple[FundamentalDiagram, int]],
                       dx: float, rho,
                       boundaries: BoundarySpec | None = None) -> SimGrid:
    """Build a grid from (diagram, cell_count) segments.

    ``rho`` may be a constant, an array of the full cell count, or a
    callable of cell-center position x (km); an array of any other shape
    raises ConfigError.
    """
    segments, n = _runs(segments)
    return SimGrid(segments, _cell_densities(rho, n, dx), dx, boundaries)


def _cell_densities(rho, n: int, dx: float) -> np.ndarray:
    """The densities of n cells of width ``dx`` from ``rho`` as
    ``grid_from_segments`` takes it; only a 0-d value is broadcast, and
    ``SimGrid`` refuses any other shape than (n,)."""
    if callable(rho):
        rho = [rho((i + 0.5) * dx) for i in range(n)]
    rho = np.asarray(rho, dtype=float)
    return np.broadcast_to(rho, (n,)) if rho.ndim == 0 else rho


@dataclass(frozen=True)
class StepConfig:
    """Time step (s); set ``allow_high_cfl`` to run past the 0.95 guard
    (at your own risk up to and beyond the stability limit)."""

    dt: float
    allow_high_cfl: bool = False

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")


def sd_flux(fd_left: FundamentalDiagram, rho_left: float,
            fd_right: FundamentalDiagram, rho_right: float) -> float:
    """Interface flux min(D_left, S_right); the diagrams may differ."""
    return float(min(fd_left.demand(rho_left), fd_right.supply(rho_right)))


def osher_flux(fd: FundamentalDiagram, rho_left: float, rho_right: float) -> float:
    """Godunov flux for one diagram by brute extremum scan.

    min of Q over [rho_left, rho_right] when the density rises across
    the interface, max over the reversed interval when it falls, Q
    itself when equal.  The scan hits both endpoints exactly and the
    critical density is inserted when interior, so for unimodal Q the
    result is exact, not approximate.  Densities outside [0, rho_jam]
    raise ValueError, as in ``fd.flux``, which clamps drift of up to
    DENSITY_SLACK.
    """
    rho_left, rho_right = fd._check_density(rho_left), fd._check_density(rho_right)
    if rho_left == rho_right:
        return float(fd.flux(rho_left))
    lo, hi = min(rho_left, rho_right), max(rho_left, rho_right)
    grid = np.linspace(lo, hi, _SCAN_SAMPLES)
    if lo < fd.rho_crit < hi:
        grid = np.append(grid, fd.rho_crit)
    q = fd.flux_curve(grid)
    return float(np.min(q)) if rho_left < rho_right else float(np.max(q))


def cfl_number(grid: SimGrid, dt: float) -> float:
    """max |Q'| * dt / dx over the grid."""
    return grid.max_wave_speed() * dt / grid.dx


def _cfl_problem(segments, dt: float, dx: float) -> str | None:
    """Why time step ``dt`` (s) breaks the CFL guard on a road of
    ``(diagram, count)`` segments and cell width ``dx`` (km), or None."""
    vmax = max(fd.max_wave_speed() for fd, _ in segments)
    nu = vmax * dt / dx
    return (f"CFL number {nu:.2f} exceeds {_CFL_GUARD} (max wave speed "
            f"{vmax * 1000.0:.4f} m/s, dx={dx} km)") if nu > _CFL_GUARD else None


def _flux_writer(grid: SimGrid, f: np.ndarray, ds: np.ndarray):
    """The function of clamped densities and time t that writes each
    cell's demand, then each cell's supply, into ``ds`` (2n), and then
    the n+1 interface fluxes min(D_left, S_right) at t into ``f``: f[i]
    crosses into cell i from cell i-1, and f[0] = f[n] is the wrap on a
    ring.

    Every array is made here, once.  Demand and supply are
    Q(min(rho, rho_crit)) and Q(max(rho, rho_crit)) as in
    ``FundamentalDiagram``.  A part that covers the road evaluates them
    in ``ds`` by one formula pass over both halves of a stacked array.
    On a road of several parts the densities are gathered part after
    part by one ``take`` of ``grid._order``, each part evaluates Q once
    per cell into its slice of a part-major array, and one ``take`` of
    ``grid._back`` puts Q in road order into the demand half of ``ds``.
    Where rho <= rho_crit that is the demand, and ``grid._cap``, each
    diagram's stored Q(rho_crit), is the supply; elsewhere the two
    trade places, as min(rho, rho_crit) or max(rho, rho_crit) is
    rho_crit itself.  The mask is taken on the road-order densities, not
    the gathered ones.  The select exchanges the bits of the two by XOR,
    so that it costs the same however free and congested cells
    alternate; a masked copy ran twice as slow on alternating cells as
    on runs.  A table formula runs in place; a ``flux_curve``, which
    takes no ``out``, returns an array of its own, which is copied in.

    The function returns the two boundary fluxes f[0] and f[n] as Python
    floats, which the march adds to its ledger without reading ``f``
    back as numpy scalars.
    """
    n, bounds, order, back = grid.n, grid.boundaries, grid._order, grid._back
    d, s, rho_crit = ds[:n], ds[n:], grid.rho_crit
    if order is None:
        (part,) = grid._parts
        flux, params = part.flux, part.params_twice
        both = np.empty(2 * n)
        low, high = both[:n], both[n:]
    else:
        gathered, q = np.empty((2, n))
        parts, start = [], 0
        for part in grid._parts:
            m = part.cells.size
            parts.append((part.flux, part.params, gathered[start:start + m],
                          q[start:start + m]))
            start += m
        congested = np.empty(n, dtype=bool)
        flip = np.empty(n, dtype=np.int64)
        bits_cap, bits_d, bits_s = (a.view(np.int64) for a in (grid._cap, d, s))
        greater, xor, multiply = np.greater, np.bitwise_xor, np.multiply
    d_left, s_right, inner = d[:-1], s[1:], f[1:-1]
    maximum, minimum = np.maximum, np.minimum

    def write(rho, t):
        if order is None:
            maximum(rho, rho_crit, out=high)
            minimum(rho, rho_crit, out=low)
            if params:
                flux(both, *params, out=ds)
            else:  # a flux_curve, which has no columns and takes no out
                ds[:] = flux(both)
        else:
            # "clip" skips the buffered bounds check; the indices are in range
            rho.take(order, out=gathered, mode="clip")
            for flux_of, part_params, part_rho, part_q in parts:
                if part_params:
                    flux_of(part_rho, *part_params, out=part_q)
                else:
                    part_q[:] = flux_of(part_rho)
            q.take(back, out=d, mode="clip")
            greater(rho, rho_crit, out=congested)
            # flip = Q ^ cap where congested, else 0: D = Q ^ flip and
            # S = cap ^ flip, with no branch on the mask
            xor(bits_d, bits_cap, out=flip)
            multiply(flip, congested, out=flip)
            xor(bits_cap, flip, out=bits_s)
            xor(bits_d, flip, out=bits_d)
        minimum(d_left, s_right, out=inner)
        if bounds is None:
            f[0] = f[-1] = left = right = min(d.item(-1), s.item(0))
        else:
            f[0] = left = min(bounds.left_demand(t), s.item(0))
            f[-1] = right = min(d.item(-1), bounds.right_supply(t))
        return left, right

    return write


def interface_fluxes(grid: SimGrid, cfg: StepConfig, t: float = 0.0) -> np.ndarray:
    """All interface fluxes at time t for the current densities.

    Ring: n entries, entry i crossing into cell i from cell i-1 (entry 0
    wraps).  Open: n+1 entries including the two boundary fluxes.  The
    fluxes do not depend on ``cfg``; it stays in the signature so that
    callers passing it positionally keep working.
    """
    f = np.empty(grid.n + 1)
    _flux_writer(grid, f, np.empty(2 * grid.n))(grid._clamp(grid.rho), t)
    return f[:-1] if grid.is_ring else f


def _march(grid: SimGrid, cfg: StepConfig, n_steps: int, t0: float = 0.0,
           record=None):
    """The step kernel: ``n_steps`` conservative updates of a copy of
    ``grid.rho`` from time t0.

    Returns the final densities and the vehicles that crossed in at the
    left and out at the right (interface 0 on a ring, both ways).
    ``record``, if given, is ``(record_every, rho, q, max_delta)``: row
    j // record_every of each array takes state j, for j a multiple of
    record_every below ``n_steps``, and the last row the final state.  A
    row holds the state's densities, its flux and the largest per-cell
    change of the step that produced it (0 for state 0).  The flux is
    read off the demand|supply that the step from the state writes: D
    where rho <= rho_crit, else S, which is Q from the same bits; the
    final state takes one more writer call.

    Its work arrays are allocated once, and a step clamps its densities
    only when they fail ``SimGrid._clamp``'s range test.
    """
    problem = not cfg.allow_high_cfl and _cfl_problem(grid.segments, cfg.dt, grid.dx)
    if problem:
        raise ConfigError(f"{problem}; reduce dt or override")
    n, dt = grid.n, cfg.dt
    r = np.array(dt / grid.dx)  # 0-d: a float operand costs a conversion per call
    rho = grid.rho.copy()
    nxt, change, gap = np.empty((3, n))
    f, ds = np.empty(n + 1), np.empty(2 * n)
    f_in, f_out = f[:-1], f[1:]
    fluxes, clamp = _flux_writer(grid, f, ds), grid._clamp
    subtract, multiply = np.subtract, np.multiply
    every, rows_rho, rows_q, max_delta = record or (0, None, None, None)
    inflow = outflow = 0.0
    for j in range(n_steps + 1):
        clamped = clamp(rho, j, gap)
        if record or j < n_steps:
            left, right = fluxes(clamped, t0 + j * dt)
        if record and (j % every == 0 or j == n_steps):
            row = -1 if j == n_steps else j // every
            rows_rho[row] = rho
            rows_q[row] = np.where(clamped <= grid.rho_crit, ds[:n], ds[n:])
            if j:  # nxt still holds state j - 1
                max_delta[row] = np.abs(subtract(nxt, rho, out=gap), out=gap).max()
        if j == n_steps:
            return rho, inflow, outflow
        subtract(f_out, f_in, out=change)
        multiply(change, r, out=change)
        subtract(rho, change, out=nxt)
        inflow += left * dt
        outflow += right * dt
        rho, nxt = nxt, rho


def step(grid: SimGrid, cfg: StepConfig, t: float = 0.0) -> SimGrid:
    """One conservative update; returns a new grid sharing the diagrams."""
    return grid.with_density(_march(grid, cfg, 1, t)[0])


@dataclass
class SimRecord:
    """Snapshots plus the conservation ledger of one run.

    ``max_delta[k]`` is the largest per-cell density change of the step
    that produced snapshot k (0 for the initial snapshot); the last
    entry doubles as the convergence metric.
    """

    grid: SimGrid
    times: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    q: np.ndarray
    inflow: float
    outflow: float
    max_delta: np.ndarray

    @property
    def final_rho(self) -> np.ndarray:
        return self.rho[-1]

    @property
    def convergence_metric(self) -> float:
        return float(self.max_delta[-1])

    @property
    def converged(self) -> bool:
        return self.convergence_metric < STEADY_TOL

    def conservation_drift(self) -> float:
        """Relative error of the vehicle ledger across the run."""
        start = self.grid.total_vehicles(self.rho[0])
        end = self.grid.total_vehicles(self.rho[-1])
        expected = start + self.inflow - self.outflow
        scale = max(abs(start), abs(expected), 1e-300)
        return abs(end - expected) / scale


def run(grid: SimGrid, cfg: StepConfig, duration: float,
        record_every: int = 1) -> SimRecord:
    """Advance ``duration`` seconds (rounded to whole steps), recording
    every ``record_every``-th state plus the initial and final ones.

    Cumulative inflow/outflow cross the open boundaries, or interface 0
    for a ring (where they coincide and the ledger reduces to exact
    conservation).
    """
    if not (duration >= 0 and math.isfinite(duration / cfg.dt)):
        raise ConfigError(
            f"duration must be finite and nonnegative, got {duration!r}"
        )
    try:
        if isinstance(record_every, bool):
            raise TypeError("a bool is not a step count")
        record_every = operator.index(record_every)
    except TypeError as exc:
        raise ConfigError(f"record_every must be an integer: {exc}") from exc
    if record_every < 1:
        raise ConfigError("record_every must be >= 1")
    n_steps = int(round(duration / cfg.dt))
    steps = [*range(0, n_steps, record_every), n_steps]
    rho, q, v = (np.empty((len(steps), grid.n)) for _ in range(3))
    max_delta = np.zeros(len(steps))
    final, inflow, outflow = _march(grid, cfg, n_steps, 0.0,
                                    (record_every, rho, q, max_delta))
    # v as fd.speed takes it, but over min(rho, rho_jam): below 0 both
    # that and the clamped density take the tiny-density limit.  Blocks
    # of about 8192 values keep the temporaries small enough to stay in
    # cache and below malloc's mmap threshold: whole-record temporaries
    # ran 2x slower and doubled the peak memory.
    block = max(1, 2**13 // grid.n)
    for k in range(0, len(steps), block):
        v[k:k + block] = _speed_of_flux(np.minimum(rho[k:k + block], grid.rho_jam),
                                        q[k:k + block], grid.rho_jam, grid.v0)
    return SimRecord(grid.with_density(final),
                     np.array([k * cfg.dt for k in steps]), rho, v, q,
                     inflow, outflow, max_delta)


@dataclass(frozen=True)
class InteriorCell:
    """A single cell holding a state unlike both its neighbourhoods."""

    cell: int
    density: float
    flux: float


def detect_interior_states(record: SimRecord,
                           steady_tol: float = STEADY_TOL,
                           run_tol: float = RUN_TOL) -> list[InteriorCell]:
    """Cells whose steady density pops out of two uniform surroundings.

    A cell qualifies when it differs from both neighbours by more than
    0.5 veh/km while the three cells on each side agree among themselves
    within run_tol veh/km.  Requires a record whose last step moved no
    cell by more than steady_tol.

    The defaults demand a fully settled run.  Scenarios that park a link
    exactly at critical density relax as a power law, not exponentially:
    their metric stalls orders of magnitude above the default and the
    near-critical link keeps a milli-scale density gradient while the
    profile shape is long since fixed.  Passing looser tolerances (still
    far below the 0.5 veh/km jump threshold) makes the one-cell states
    visible in such runs.
    """
    if not (steady_tol >= 0 and run_tol >= 0):  # NaN fails this
        raise ValueError(f"tolerances must be nonnegative: {steady_tol!r}, {run_tol!r}")
    if record.convergence_metric > steady_tol:
        raise ValueError(
            f"record not steady: last step moved {record.convergence_metric:.3g} "
            f"veh/km (threshold {steady_tol:.3g})"
        )
    grid = record.grid
    rho = record.final_rho
    n = rho.size
    cells = []
    # an open road's three end cells on either side lack a neighbourhood
    for i in range(n) if grid.is_ring else range(3, n - 3):
        left = [rho[(i - k) % n] for k in (1, 2, 3)]
        right = [rho[(i + k) % n] for k in (1, 2, 3)]
        if abs(rho[i] - left[0]) <= JUMP_TOL or abs(rho[i] - right[0]) <= JUMP_TOL:
            continue
        if max(left) - min(left) > run_tol or max(right) - min(right) > run_tol:
            continue
        cells.append(i)
    q = record.q[-1]
    return [InteriorCell(i, float(rho[i]), float(q[i])) for i in cells]
