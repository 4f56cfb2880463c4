"""Command-line front end: YAML scenarios in, reports and CSV out.

The module parses YAML into the library's objects, calls the library and
formats what it returns; the range rules it keys at parse time are the
grid's own, and every check of ``verify`` lives in ``verify_cases``.
Four subcommands share one config format (see the README for the full
schema; every numeric field carries its unit in the key name).  Parsing
builds each diagram from its family's class, whose fields give the keys
and defaults, the Riemann problem, and ``initial`` as the densities of
the road's cells, laid once at the cell centres (a sinusoid by
``ring_analysis``'s lane-weighted rule).  One walker, ``_fields``, reads
every mapping of the config from a table of its keys, each with a check
and a default; it reports unknown and missing keys and refused values
under their key paths, and a check may itself read a whole subsection.

* ``riemann``      solve one boundary Riemann problem, report states,
                   flux and waves, optionally sample rho(x/t) to CSV.
* ``simulate``     run the finite-volume scheme on a configured road,
                   write snapshot CSV and a summary report.
* ``ring-predict`` evaluate the two-link ring asymptotics, for a vehicle
                   count given or summed over the initial cells.
* ``verify``       run randomized self-checks of the solver stack.

Reports print values to 4 decimal places; CSV files carry 6
significant digits.  Exit codes: 0 success, 1 failed property
(verify), 2 a config that cannot be read or is invalid, an output that
cannot be written, or a simulation that diverged.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import math
import sys
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path
from collections.abc import Hashable, Iterable, Iterator
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .fundamental_diagram import (
    FundamentalDiagram,
    GreenshieldsDiagram,
    KernerKonhauserDiagram,
    TriangularDiagram,
)
from .errors import ConfigError, SimulationDiverged
from .riemann_solver import (
    Family,
    RiemannProblem,
    Unique,
    Wave,
    WaveKind,
    sample_profile,
    solve,
)
from .supply_demand import SDState, classify, from_density, to_density

# Each subcommand imports what only it runs (PyYAML, godunov_sim,
# ring_analysis, verify_cases) where it runs it, so a process loads no
# module its subcommand does not use.
if TYPE_CHECKING:
    from .godunov_sim import BoundarySpec, SimGrid, SimRecord, StepConfig, StepFunction
    from .ring_analysis import RingSpec

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2

_KM_S_TO_M_S = 1000.0

# Largest riemann.profile.count accepted: a profile is one numpy array of
# this many points, each costing up to one bisection.
_MAX_PROFILE_POINTS = 100_000

# Largest road cell count accepted: ring-predict holds its CSV as one
# line of text per cell, about 100 bytes each; simulate streams its CSV
# (see _MAX_RECORD_BYTES).
_MAX_CELLS = 1_000_000

# Largest record simulate accepts, in bytes: rho, q and v hold 8 bytes
# per cell and snapshot each.  The CSV is written from the record one
# line at a time, so the record sets the peak (the reference ring
# recorded at each of its 7500 steps: a 108 MB record, a 135 MB peak).
_MAX_RECORD_BYTES = 250_000_000


def _fmt(x: float) -> str:
    """Report format: 4 decimals, the precision quoted in summaries."""
    if abs(x) < 5e-5:
        x = 0.0  # avoid "-0.0000"
    return f"{x:.4f}"


def _csv_num(x: float) -> str:
    return f"{float(x):.6g}"


# ---------------------------------------------------------------- config

class _Errors:
    """Collects every config problem before failing, with key paths."""

    def __init__(self) -> None:
        self.items: list[str] = []

    def add(self, path: str, msg: str) -> None:
        self.items.append(f"{path}: {msg}")

    def raise_if_any(self) -> None:
        if self.items:
            raise ConfigError("invalid config:\n  " + "\n  ".join(self.items))


# the default of a key that must be given
_REQUIRED = object()


def _fields(node, path: str, err: _Errors, spec: dict, extra=()) -> list:
    """``[node, *values]``: ``node`` as a mapping, then the value of each
    key of ``spec`` in ``spec`` order.

    ``spec`` maps each key to ``(check, default)``.  A given value is
    ``check(value)``, or None with a keyed error when the check raises
    ValueError; a key not given reads as ``default``, or as None with a
    "missing" error when the default is ``_REQUIRED``.  A check may read
    a whole section: it reports the keys below it to ``err`` itself, and
    raises only for the section as a whole.  Keys outside ``spec`` and
    ``extra`` are reported as unknown, unless ``extra`` is None: a
    section of unknown kind, or a second read of one node.  A node that
    is not a mapping is reported, and read as empty.
    """
    if not isinstance(node, dict):
        err.add(path, f"expected a mapping, got {type(node).__name__}")
        node = {}
    if extra is not None:
        for key in node:
            if key not in spec and key not in extra:
                err.add(f"{path}.{key}", "unknown key")
    values = [node]
    for key, (check, default) in spec.items():
        try:
            if key not in node and default is _REQUIRED:
                raise ValueError("missing")
            values.append(check(node[key]) if key in node else default)
        except ValueError as exc:
            err.add(f"{path}.{key}", str(exc))
            values.append(None)
    return values


def _number(value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("must be finite, got an integer beyond the float "
                         "range") from None
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number}")
    return number


def _positive(value) -> float:
    number = _number(value)
    if number <= 0:
        raise ValueError(f"must be positive, got {value}")
    return number


def _nonnegative(value) -> float:
    number = _number(value)
    if number < 0:
        raise ValueError("must be nonnegative")
    return number


def _integer(lo, hi, text: str):
    """The check of an integer in [lo, hi], described as ``text``."""
    def check(value) -> int:
        if (not isinstance(value, int) or isinstance(value, bool)
                or not lo <= value <= hi):
            raise ValueError(f"expected an integer {text}, got {value!r}")
        return value
    return check


def _file_name(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError("expected a nonempty file name")
    return value


def _topology(value) -> str:
    if value not in ("ring", "open"):
        raise ValueError(f"must be ring or open, got {value!r}")
    return value


# family -> (class, its YAML keys in constructor-field order): each key is its
# field's name plus a unit, optional when the field has a default; m/s -> km/s
_FAMILIES = {
    "greenshields": (GreenshieldsDiagram, ("v_free_m_s", "rho_jam_veh_km")),
    "triangular": (TriangularDiagram, ("v_free_m_s", "rho_jam_veh_km",
                                       "q_max_veh_s", "v_cong_m_s")),
    "kerner_konhauser": (KernerKonhauserDiagram,
                         ("lanes", "rho_jam_lane_veh_km", "tau_s", "unit_len_km")),
}


def _build_diagram(node: Any, path: str, err: _Errors) -> FundamentalDiagram | None:
    family = node.get("family") if isinstance(node, dict) else None
    entry = _FAMILIES.get(family) if isinstance(family, str) else None
    if entry is None:
        _fields(node, path, err, {}, None)
        err.add(f"{path}.family",
                f"unknown family {family!r} ({', '.join(_FAMILIES)})")
        return None
    cls, keys = entry
    spec = {key: (_positive, _REQUIRED if field.default is MISSING else None)
            for field, key in zip(fields(cls), keys)}
    _, *values = _fields(node, path, err, spec, {"family"})
    if any(v is None and f.default is MISSING for f, v in zip(fields(cls), values)):
        return None
    # an absent or invalid optional key leaves the class default
    args = {field.name: v / _KM_S_TO_M_S if key.endswith("_m_s") else v
            for field, key, v in zip(fields(cls), keys, values) if v is not None}
    return cls(**args)


@dataclass
class RoadConfig:
    topology: str
    dx: float
    segments: list[tuple[FundamentalDiagram, int]]  # diagram, cells

    @property
    def n_cells(self) -> int:
        return sum(c for _, c in self.segments)

    @property
    def length(self) -> float:
        return self.n_cells * self.dx


def _diagram_of(node, path, diagrams, err) -> FundamentalDiagram | None:
    """The diagram ``node["diagram"]`` names; None, with a keyed error,
    when it names none."""
    name = node.get("diagram")
    fd = diagrams.get(name) if isinstance(name, Hashable) else None
    if fd is None:
        err.add(f"{path}.diagram", f"unknown diagram {name!r}")
    return fd


def _build_road(node, diagrams, err) -> RoadConfig | None:
    path = "road"
    node, topology, dx = _fields(node, path, err, {
        "topology": (_topology, "ring"), "dx_km": (_positive, _REQUIRED)},
        {"segments"})
    segments = node.get("segments")
    if not isinstance(segments, list) or not segments:
        err.add(f"{path}.segments", "expected a nonempty list")
        return None
    built = []
    for i, seg in enumerate(segments):
        spath = f"{path}.segments[{i}]"
        seg, = _fields(seg, spath, err, {}, {"diagram", "length_km"})
        fd = _diagram_of(seg, spath, diagrams, err)
        if fd is None:
            continue
        _, length = _fields(seg, spath, err, {"length_km": (_positive, _REQUIRED)},
                            None)
        if length is None or dx is None:
            continue
        cells = length / dx
        if math.isinf(cells):
            err.add(f"{path}.dx_km", f"{dx} km makes the cell count overflow")
            dx = None
            continue
        if round(cells) < 1 or abs(cells - round(cells)) > 1e-9 * max(1.0, cells):
            err.add(f"{spath}.length_km",
                    f"{length} km is not a whole number of dx={dx} km cells, "
                    "one or more")
            continue
        built.append((fd, int(round(cells))))
    if dx is None or not built:
        return None
    if sum(count for _, count in built) > _MAX_CELLS:
        err.add(f"{path}.dx_km", f"{dx} km makes more than {_MAX_CELLS} cells")
        return None
    return RoadConfig(topology, dx, built)


# kind -> its keys besides ``kind``; pieces are read by hand
_INITIAL_KEYS = {
    "uniform": {"rho_veh_km": (_number, _REQUIRED)},
    "sinusoid": {"rho0_veh_km": (_number, _REQUIRED),
                 "amplitude_veh_km": (_number, 0.0)},
    "piecewise": {"pieces": (lambda pieces: pieces, None)},
}


def _build_initial(node, road: RoadConfig | None, err):
    """The density of x, or None when it, ``road`` or an earlier section
    did not parse."""
    path = "initial"
    kind = node.get("kind") if isinstance(node, dict) else None
    spec = _INITIAL_KEYS.get(kind) if isinstance(kind, str) else None
    _, *values = _fields(node, path, err, spec or {}, spec and {"kind"})
    if kind == "uniform":
        rho, = values
        return None if rho is None or road is None else lambda x: rho
    if kind == "sinusoid":
        rho0, amp = values
        if road is None or err.items:
            return None
        from .ring_analysis import _lane_sinusoid

        bounds = np.cumsum([c * road.dx for _, c in road.segments])[:-1]
        return _lane_sinusoid(bounds.tolist(), [fd for fd, _ in road.segments],
                              road.length, rho0, amp)
    if kind == "piecewise":
        pieces, = values
        if not isinstance(pieces, list) or not pieces:
            err.add(f"{path}.pieces", "expected a nonempty list")
            return None
        spec = {"length_km": (_positive, _REQUIRED), "rho_veh_km": (_number, _REQUIRED)}
        pieces = [_fields(piece, f"{path}.pieces[{i}]", err, spec)[1:]
                  for i, piece in enumerate(pieces)]
        if road is None or err.items:
            return None
        *bounds, total = np.cumsum([length for length, _ in pieces]).tolist()
        if abs(total - road.length) > 1e-9 * road.length:
            err.add(f"{path}.pieces",
                    f"cover {total} km but the road is {road.length} km")
            return None
        return lambda x: pieces[bisect.bisect_right(bounds, x)][1]
    err.add(f"{path}.kind",
            f"must be uniform, sinusoid or piecewise, got {kind!r}")
    return None


@dataclass
class NumericsConfig:
    step: StepConfig
    duration: float
    record_every: int


def _build_numerics(node, override_cfl, err) -> NumericsConfig | None:
    from .godunov_sim import StepConfig

    path = "numerics"
    _, dt, duration, record = _fields(node, path, err, {
        "dt_s": (_positive, _REQUIRED), "duration_s": (_nonnegative, _REQUIRED),
        "record_every": (_integer(0, math.inf, ">= 0"), 0)})
    if dt is None or duration is None:
        return None
    if math.isinf(duration / dt):
        err.add(f"{path}.dt_s", f"{dt} s makes the step count overflow")
        return None
    # record_every 0 means snapshots only at start and end
    steps = max(1, int(round(duration / dt)))
    return NumericsConfig(StepConfig(dt, allow_high_cfl=override_cfl),
                          duration, record or steps)


def _build_step_fn(value, path, err, cap) -> StepFunction | None:
    """The boundary flow at ``path``: a constant or a list of
    {t_s, value_veh_s}, each value held to [0, ``cap``] by the grid's
    rule unless ``cap`` is None."""
    from .godunov_sim import StepFunction, _flow_problems

    if not isinstance(value, list):
        fn, keys = StepFunction((0.0,), (_number(value),)), [path]
    else:
        times, values, keys = [], [], []
        for i, pt in enumerate(value):
            ppath = f"{path}[{i}]"
            _, t, v = _fields(pt, ppath, err, {"t_s": (_number, _REQUIRED),
                                               "value_veh_s": (_number, _REQUIRED)})
            if t is not None and v is not None:
                times.append(t)
                values.append(v)
                keys.append(f"{ppath}.value_veh_s")
        if times and times[0] != 0.0:
            err.add(path, "first breakpoint must start at t_s=0")
        fn = StepFunction(tuple(times), tuple(values))
    if cap is not None:
        # the key without its unit: "left demand"
        what = path.rpartition(".")[2].removesuffix("_veh_s").replace("_", " ")
        for i, problem in _flow_problems(fn, cap, what):
            err.add(keys[i], problem)
    return fn


def _build_boundaries(node, road, err) -> BoundarySpec | None:
    from .godunov_sim import BoundarySpec

    path = "boundaries"
    # the capacities of the end links bound the flows, as in the grid
    caps = ((None, None) if road is None else
            (road.segments[0][0].capacity, road.segments[-1][0].capacity))
    _, left, right = _fields(node, path, err, {
        key: (partial(_build_step_fn, path=f"{path}.{key}", err=err, cap=cap),
              _REQUIRED)
        for key, cap in zip(("left_demand_veh_s", "right_supply_veh_s"), caps)})
    if left is None or right is None:
        return None
    return BoundarySpec(left, right)


def _build_state(node, diagrams, path, err) -> tuple[FundamentalDiagram, SDState] | None:
    node, = _fields(node, path, err, {},
                    {"diagram", "rho_veh_km", "demand_veh_s", "supply_veh_s"})
    fd = _diagram_of(node, path, diagrams, err)
    if fd is None:
        return None
    has_rho = "rho_veh_km" in node
    if has_rho == ("demand_veh_s" in node or "supply_veh_s" in node):
        raise ValueError("give either rho_veh_km or demand_veh_s+supply_veh_s")
    keys = ("rho_veh_km",) if has_rho else ("demand_veh_s", "supply_veh_s")
    _, *values = _fields(node, path, err, dict.fromkeys(keys, (_number, _REQUIRED)),
                         None)
    if None in values:
        return None
    if has_rho:
        return fd, from_density(fd, *values)
    state = SDState(*values)
    classify(state, fd.capacity)  # on the diagram's L-shaped set
    return fd, state


def _build_profile(node, path, err) -> tuple[float, float, int] | None:
    _, *profile = _fields(node, path, err, {
        "xi_min_m_s": (_number, _REQUIRED), "xi_max_m_s": (_number, _REQUIRED),
        "count": (_integer(2, _MAX_PROFILE_POINTS, f"in [2, {_MAX_PROFILE_POINTS}]"),
                  101)})
    if None in profile:
        return None
    if profile[0] >= profile[1]:
        raise ValueError("xi_min_m_s must be below xi_max_m_s")
    return tuple(profile)


def _build_riemann(node, diagrams, err) -> tuple[RiemannProblem | None,
                                                 tuple[float, float, int] | None]:
    path = "riemann"
    state = partial(_build_state, diagrams=diagrams, err=err)
    _, up, down, profile = _fields(node, path, err, {
        "upstream": (partial(state, path=f"{path}.upstream"), _REQUIRED),
        "downstream": (partial(state, path=f"{path}.downstream"), _REQUIRED),
        "profile": (partial(_build_profile, path=f"{path}.profile", err=err), None)})
    if up is None or down is None:
        return None, None
    return RiemannProblem(up[0], down[0], up[1], down[1]), profile


@dataclass
class ScenarioConfig:
    diagrams: dict[str, FundamentalDiagram]
    road: RoadConfig | None
    initial: np.ndarray | None  # density of each cell of the road
    numerics: NumericsConfig | None
    boundaries: BoundarySpec | None
    riemann: RiemannProblem | None
    riemann_profile: tuple[float, float, int] | None  # xi min/max (m/s), count
    ring_vehicles: float | None
    outputs: dict[str, str]


_TOP_KEYS = {"diagrams", "road", "initial", "numerics", "boundaries",
             "riemann", "ring", "outputs"}


def parse_config(text: str, override_cfl: bool = False) -> ScenarioConfig:
    """Parse and validate a YAML scenario.

    Collects every problem (unknown keys, wrong types, unresolved
    diagram references, CFL violations unless ``override_cfl``, boundary
    flows and initial densities out of range) and raises one ConfigError
    listing all of them with their key paths.
    """
    import yaml

    err = _Errors()
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:
        # PyYAML raises a plain ValueError for an integer beyond Python's
        # digit limit, without naming the key.
        raise ConfigError(f"invalid config: YAML parse error: {exc}") from exc
    raw, = _fields({} if raw is None else raw, "<top>", err, {}, _TOP_KEYS)

    dnode = raw.get("diagrams")
    if not isinstance(dnode, dict) or not dnode:
        err.add("diagrams", "at least one diagram is required")
        dnode = {}
    _, *built = _fields(dnode, "diagrams", err, {
        name: (partial(_build_diagram, path=f"diagrams.{name}", err=err), None)
        for name in dnode})
    diagrams = {name: fd for name, fd in zip(dnode, built) if fd is not None}

    road = _build_road(raw["road"], diagrams, err) if "road" in raw else None
    initial = (_build_initial(raw["initial"], road, err)
               if "initial" in raw else None)
    if initial is not None:
        from .godunov_sim import _cell_densities, _density_problems

        initial = _cell_densities(initial, road.n_cells, road.dx)
        for problem in _density_problems(initial, road.segments):
            err.add("initial", problem)
    numerics = (_build_numerics(raw["numerics"], override_cfl, err)
                if "numerics" in raw else None)
    boundaries = (_build_boundaries(raw["boundaries"], road, err)
                  if "boundaries" in raw else None)
    riemann, riemann_profile = (_build_riemann(raw["riemann"], diagrams, err)
                                if "riemann" in raw else (None, None))

    # an absent section reads as empty, one given as null is refused
    _, ring_vehicles = _fields(raw.get("ring", {}), "ring", err,
                               {"vehicles_veh": (_number, None)})
    spec = dict.fromkeys(("csv", "report"), (_file_name, None))
    _, *names = _fields(raw.get("outputs", {}), "outputs", err, spec)
    outputs = {key: name for key, name in zip(spec, names) if name}

    if road is not None and road.topology == "open" and "boundaries" not in raw:
        err.add("boundaries", "required for open topology")
    if road is not None and road.topology == "ring" and boundaries is not None:
        err.add("boundaries", "a ring road takes no boundary data")

    # the CFL guard that run applies, keyed here
    if road is not None and numerics is not None and not override_cfl:
        from .godunov_sim import _cfl_problem

        problem = _cfl_problem(road.segments, numerics.step.dt, road.dx)
        if problem is not None:
            err.add("numerics.dt_s",
                    f"{problem}; reduce dt_s or pass --override-cfl")

    err.raise_if_any()
    return ScenarioConfig(diagrams, road, initial, numerics, boundaries,
                          riemann, riemann_profile, ring_vehicles, outputs)


# ------------------------------------------------------------- building

def _build_grid(cfg: ScenarioConfig) -> SimGrid:
    from .godunov_sim import SimGrid

    if cfg.road is None or cfg.initial is None:
        raise ConfigError("simulate needs road and initial sections")
    return SimGrid(cfg.road.segments, cfg.initial, cfg.road.dx, cfg.boundaries)


def _keyed(path: str, call, *args):
    """``call(*args)``, reporting a ValueError it raises as a config
    error at ``path``."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ConfigError(f"invalid config:\n  {path}: {exc}") from exc


def _ring_spec(cfg: ScenarioConfig) -> RingSpec:
    from .ring_analysis import RingSpec

    road = cfg.road
    if road is None:
        raise ConfigError("ring-predict needs a road section")
    if road.topology != "ring" or len(road.segments) != 2:
        raise ConfigError("ring-predict needs a ring road with exactly two "
                          "segments (bottleneck first)")
    (fd1, c1), (fd2, _) = road.segments
    spec = _keyed("road.segments", RingSpec, road.length, c1 * road.dx, fd1, fd2)
    if cfg.ring_vehicles is not None:
        return spec.with_vehicles(cfg.ring_vehicles)
    if cfg.initial is None:
        raise ConfigError("ring-predict needs ring.vehicles_veh or an "
                          "initial section")
    return spec.with_vehicles(_build_grid(cfg).total_vehicles())


# -------------------------------------------------------------- reports

def _ds(state, link: str = "") -> str:
    """A (D, S) pair as the riemann report prints it, ``link`` numbering
    the two letters."""
    return f"D{link}={_fmt(state.demand)}, S{link}={_fmt(state.supply)}"


def _describe_interior(interior) -> str:
    if isinstance(interior, Unique):
        return f"unique ({_ds(interior.state)}) veh/s"
    assert isinstance(interior, Family)
    return (f"family D>={_fmt(interior.min_demand)}, "
            f"S>={_fmt(interior.min_supply)} veh/s "
            f"(representative {_ds(interior.representative)})")


def _describe_wave(wave: Wave) -> str:
    if wave.is_none:
        return "none"
    s_min, s_max = wave.speed_range
    if wave.kind is WaveKind.SHOCK:
        return (f"{wave.direction.value} shock at "
                f"{_fmt(s_min * _KM_S_TO_M_S)} m/s")
    return (f"{wave.direction.value} rarefaction, speeds "
            f"[{_fmt(s_min * _KM_S_TO_M_S)}, {_fmt(s_max * _KM_S_TO_M_S)}] m/s")


def _write(path: Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` one at a time, each ended by a newline."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for line in lines:
                out.write(line + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _report(cfg: ScenarioConfig, out_dir: Path, lines: list[str]) -> None:
    """Print the report, and write it to ``outputs.report`` when set."""
    sys.stdout.write("\n".join(lines) + "\n")
    if "report" in cfg.outputs:
        _write(out_dir / cfg.outputs["report"], lines)


def cmd_riemann(cfg: ScenarioConfig, out_dir: Path) -> int:
    if cfg.riemann is None:
        raise ConfigError("riemann section missing")
    problem = cfg.riemann
    sol = solve(problem)

    lines = [
        "riemann solution at the link boundary",
        f"  upstream capacity   C1 = {_fmt(problem.fd_up.capacity)} veh/s",
        f"  downstream capacity C2 = {_fmt(problem.fd_down.capacity)} veh/s",
        f"  initial upstream    ({_ds(problem.u1, '1')}) veh/s",
        f"  initial downstream  ({_ds(problem.u2, '2')}) veh/s",
        f"  boundary flux q = {_fmt(sol.boundary_flux)} veh/s",
        f"  stationary up   ({_ds(sol.stat_up)}) veh/s, "
        f"rho={_fmt(to_density(problem.fd_up, sol.stat_up))} veh/km",
        f"  stationary down ({_ds(sol.stat_down)}) veh/s, "
        f"rho={_fmt(to_density(problem.fd_down, sol.stat_down))} veh/km",
        f"  interior up:   {_describe_interior(sol.interior_up)}",
        f"  interior down: {_describe_interior(sol.interior_down)}",
        f"  wave on link 1: {_describe_wave(sol.wave_up)}",
        f"  wave on link 2: {_describe_wave(sol.wave_down)}",
    ]
    _report(cfg, out_dir, lines)

    if cfg.riemann_profile is not None:
        lo, hi, count = cfg.riemann_profile
        xi = np.linspace(lo / _KM_S_TO_M_S, hi / _KM_S_TO_M_S, count)
        rho = sample_profile(problem, xi, sol)
        rows = ["xi_m_s,rho_veh_km"]
        rows += [f"{_csv_num(x * _KM_S_TO_M_S)},{_csv_num(r)}"
                 for x, r in zip(xi, rho)]
        name = cfg.outputs.get("csv", "riemann_profile.csv")
        _write(out_dir / name, rows)
    return EXIT_OK


def _snapshot_rows(record: SimRecord) -> Iterator[str]:
    """The snapshot CSV's lines, made one at a time, so that writing them
    holds one snapshot's values beside the record, not every line."""
    x = [_csv_num(xi) for xi in record.grid.x_centers.tolist()]
    yield "t,cell,x_km,rho_veh_km,v_m_s,q_veh_s"
    for t, rho, v, q in zip(record.times.tolist(), record.rho, record.v, record.q):
        t = _csv_num(t)
        for i, (xi, rho_i, v_i, q_i) in enumerate(zip(x, rho.tolist(), v.tolist(),
                                                      q.tolist())):
            yield (f"{t},{i},{xi},{_csv_num(rho_i)},"
                   f"{_csv_num(v_i * _KM_S_TO_M_S)},{_csv_num(q_i)}")


def cmd_simulate(cfg: ScenarioConfig, out_dir: Path) -> int:
    """March the road and write its report and snapshot CSV.  A record
    (rho, q and v of every snapshot) beyond 0.25 GB, ``_MAX_RECORD_BYTES``,
    is refused at ``numerics.record_every`` before the grid is built."""
    if cfg.numerics is None:
        raise ConfigError("simulate needs a numerics section")
    num = cfg.numerics
    dt = num.step.dt
    # the initial and final states and every record_every-th, as run keeps
    snapshots = len(range(0, int(round(num.duration / dt)), num.record_every)) + 1
    size = 24 * snapshots * (cfg.road.n_cells if cfg.road else 0)
    if size > _MAX_RECORD_BYTES:
        raise ConfigError(f"invalid config:\n  numerics.record_every: {snapshots} "
                          f"snapshots make a {size / 1e9:.3g} GB record (rho, q and v), "
                          f"over the {_MAX_RECORD_BYTES / 1e9:g} GB limit")
    from .godunov_sim import cfl_number, detect_interior_states, run

    grid = _build_grid(cfg)
    record = run(grid, num.step, num.duration, num.record_every)

    drift = record.conservation_drift()
    lines = [
        "simulation summary",
        f"  cells: {grid.n}, dx = {grid.dx:g} km, "
        f"topology: {'ring' if grid.is_ring else 'open'}",
        f"  dt = {dt:g} s, steps = {len(record.times) - 1} recorded of "
        f"{int(round(num.duration / dt))}, "
        f"CFL = {cfl_number(grid, dt):.2f}",
        f"  vehicles: initial {_fmt(record.grid.total_vehicles(record.rho[0]))}"
        f" veh, final {_fmt(record.grid.total_vehicles(record.rho[-1]))} veh",
        f"  inflow {_fmt(record.inflow)} veh, outflow {_fmt(record.outflow)} veh",
        f"  conservation drift: {drift:.3e} (relative)",
        f"  convergence metric: {record.convergence_metric:.3e} veh/km per step",
    ]
    if record.converged:
        cells = detect_interior_states(record)
        if cells:
            for c in cells:
                lines.append(
                    f"  interior state: cell {c.cell} "
                    f"(x = {_fmt((c.cell + 0.5) * grid.dx)} km), "
                    f"rho = {_fmt(c.density)} veh/km, "
                    f"q = {_fmt(c.flux)} veh/s"
                )
        else:
            lines.append("  interior states: none detected")
    else:
        lines.append("  interior states: run not steady, detection skipped")
    _report(cfg, out_dir, lines)
    name = cfg.outputs.get("csv", "simulate.csv")
    _write(out_dir / name, _snapshot_rows(record))
    return EXIT_OK


def cmd_ring_predict(cfg: ScenarioConfig, out_dir: Path) -> int:
    from .ring_analysis import predict, thresholds

    spec = _ring_spec(cfg)
    n_a, n_c = thresholds(spec)
    pred = _keyed("ring.vehicles_veh", predict, spec)

    lines = [
        "two-link ring asymptotic state",
        f"  L = {spec.L:g} km, L1 = {spec.L1:g} km",
        f"  C1 = {_fmt(spec.fd1.capacity)} veh/s, "
        f"C2 = {_fmt(spec.fd2.capacity)} veh/s",
        f"  thresholds: N_a = {_fmt(n_a)} veh, N_c = {_fmt(n_c)} veh",
        f"  N = {_fmt(spec.N)} veh",
        f"  scenario: {pred.scenario.value}",
        f"  flux q = {_fmt(pred.q)} veh/s",
    ]
    if pred.L2 is not None:
        lines.append(f"  standing shock at L2 = {_fmt(pred.L2)} km")
    for seg in pred.profile:
        lines.append(
            f"  [{_fmt(seg.x_start)}, {_fmt(seg.x_end)}] km: "
            f"rho = {_fmt(seg.rho)} veh/km"
        )
    if pred.interior_sites:
        for site in pred.interior_sites:
            lines.append(
                f"  interior state possible at x = "
                f"{_fmt(site.position)}{site.side.value}"
            )
    else:
        lines.append("  interior states: none")
    _report(cfg, out_dir, lines)

    if cfg.road is not None and "csv" in cfg.outputs:
        n = cfg.road.n_cells
        rho = pred.cell_densities(n, spec.L)
        rows = ["cell,x_km,rho_veh_km"]
        rows += [f"{i},{_csv_num((i + 0.5) * cfg.road.dx)},{_csv_num(rho[i])}"
                 for i in range(n)]
        _write(out_dir / cfg.outputs["csv"], rows)
    return EXIT_OK


# --------------------------------------------------------------- verify

def cmd_verify(seed: int, trials: int) -> int:
    """Print verify's randomized self-checks (see ``verify_cases``) one
    PASS/FAIL line each; returns the exit code."""
    if trials <= 0:
        sys.stdout.write("verify: 0 trials requested, nothing to run: PASS\n")
        return EXIT_OK
    from .verify_cases import run_checks

    failed = False
    for name, problem in run_checks(seed, trials):
        if problem is None:
            sys.stdout.write(f"PASS {name}\n")
        else:
            sys.stdout.write(f"FAIL {name}: {problem}\n")
            failed = True
    return EXIT_PROPERTY if failed else EXIT_OK


# ----------------------------------------------------------------- main

def _load_config(path: str | None, override_cfl: bool) -> ScenarioConfig:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text, override_cfl)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdlwr",
        description="kinematic-wave traffic toolkit in supply-demand space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("riemann", "simulate", "ring-predict"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=False)
        sp.add_argument("--out", default=".")
        if name == "simulate":
            sp.add_argument("--override-cfl", action="store_true")
    vp = sub.add_parser("verify")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--trials", type=int, default=200)

    args = parser.parse_args(argv)
    if args.command == "verify":
        for flag in ("seed", "trials"):
            if getattr(args, flag) < 0:
                vp.error(f"argument --{flag}: must be a non-negative integer, "
                         f"got {getattr(args, flag)}")
    try:
        if args.command == "verify":
            return cmd_verify(args.seed, args.trials)
        # only simulate marches the road, so only it is held to the CFL guard
        cfg = _load_config(args.config,
                           args.command != "simulate" or args.override_cfl)
        out_dir = Path(args.out)
        if args.command == "riemann":
            return cmd_riemann(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        return cmd_ring_predict(cfg, out_dir)
    except (ConfigError, SimulationDiverged) as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CONFIG


def entry() -> int:
    """The process entry, of both ``python -m sdlwr.cli`` and the ``sdlwr``
    script: ``main`` on ``sys.argv`` after ``gc.freeze()``.  Freezing the
    objects that the imports made keeps every later collection off them,
    the interpreter's at shutdown included.  ``main`` called in a running
    program freezes nothing."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
