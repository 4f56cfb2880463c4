"""CLI: config validation, reports, CSV output, self-checks."""

import ast
import copy
import dataclasses
import gc
import hashlib
import json
import math
import operator
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml

import sdlwr
from sdlwr import (
    ConfigError,
    GreenshieldsDiagram,
    KernerKonhauserDiagram,
    RiemannSolution,
    RingSpec,
    SDState,
    TriangularDiagram,
    Unique,
    Wave,
    WaveDirection,
    WaveKind,
    grid_from_segments,
    initial_density,
    vehicles_of_initial,
)
from sdlwr import verify_cases
from sdlwr.cli import (
    _FAMILIES,
    _MAX_CELLS,
    _MAX_PROFILE_POINTS,
    _MAX_RECORD_BYTES,
    _ring_spec,
    main,
    parse_config,
)

RIEMANN_CFG = textwrap.dedent("""\
    diagrams:
      road:
        family: greenshields
        v_free_m_s: 1000.0
        rho_jam_veh_km: 4.0
    riemann:
      upstream:
        diagram: road
        demand_veh_s: 1.0
        supply_veh_s: 0.6
      downstream:
        diagram: road
        demand_veh_s: 0.9
        supply_veh_s: 1.0
      profile:
        xi_min_m_s: -600.0
        xi_max_m_s: 600.0
        count: 13
    outputs:
      report: case.txt
      csv: case.csv
    """)

SIM_CFG = textwrap.dedent("""\
    diagrams:
      main:
        family: greenshields
        v_free_m_s: 1000.0
        rho_jam_veh_km: 4.0
    road:
      topology: open
      dx_km: 1.0
      segments:
        - diagram: main
          length_km: 16.0
    initial:
      kind: uniform
      rho_veh_km: 0.5
    numerics:
      dt_s: 0.5
      duration_s: 200.0
      record_every: 0
    boundaries:
      left_demand_veh_s: 0.3
      right_supply_veh_s: 1.0
    outputs:
      report: sim.txt
      csv: sim.csv
    """)

RING_CFG = textwrap.dedent("""\
    diagrams:
      narrow:
        family: kerner_konhauser
        lanes: 1
      wide:
        family: kerner_konhauser
        lanes: 2
    road:
      topology: ring
      dx_km: 0.028
      segments:
        - diagram: narrow
          length_km: 2.8
        - diagram: wide
          length_km: 14.0
    initial:
      kind: sinusoid
      rho0_veh_km: 28.0
      amplitude_veh_km: 3.0
    outputs:
      report: ring.txt
      csv: ring.csv
    """)

FULL_SCALE_CFG = textwrap.dedent("""\
    diagrams:
      narrow:
        family: kerner_konhauser
        lanes: 1
      wide:
        family: kerner_konhauser
        lanes: 2
    road:
      topology: ring
      dx_km: 0.0035
      segments:
        - diagram: narrow
          length_km: 2.8
        - diagram: wide
          length_km: 14.0
    initial:
      kind: sinusoid
      rho0_veh_km: 28.0
      amplitude_veh_km: 3.0
    numerics:
      dt_s: 0.1
      duration_s: 24000.0
      record_every: 60000
    """)


# -- config parsing --------------------------------------------------------


def test_parse_full_scale_config():
    cfg = parse_config(FULL_SCALE_CFG)
    assert set(cfg.diagrams) == {"narrow", "wide"}
    assert cfg.road.n_cells == 4800
    assert cfg.road.length == pytest.approx(16.8)
    # record_every 0 would mean final-only; 60000 is kept as given
    assert cfg.numerics.record_every == 60000


def test_parse_rejects_unstable_dt():
    bad = FULL_SCALE_CFG.replace("dt_s: 0.1", "dt_s: 0.2")
    with pytest.raises(ConfigError, match=r"CFL number 1\.59"):
        parse_config(bad)
    # the override keeps the config usable for deliberate experiments
    cfg = parse_config(bad, override_cfl=True)
    assert cfg.numerics.step.dt == 0.2
    assert cfg.numerics.step.allow_high_cfl


def test_parse_collects_every_error():
    text = textwrap.dedent("""\
        diagrams:
          a:
            family: greenshields
            v_free_m_s: -3
            rho_jam_veh_km: 100
          b:
            family: nosuch
          c:
            family: [greenshields]
        road:
          topology: spiral
          dx_km: 1.0
          segments:
            - diagram: zzz
              length_km: 2.5
        initial:
          kind: {uniform: 1}
        numerics:
          dt_s: 0.1
          duration_s: -5
        extra_key: 1
        """)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert msg.startswith("invalid config:")
    for fragment in (
        "diagrams.a.v_free_m_s: must be positive",
        "diagrams.b.family: unknown family 'nosuch' (greenshields, "
        "triangular, kerner_konhauser)",
        "diagrams.c.family: unknown family ['greenshields']",
        "initial.kind: must be uniform, sinusoid or piecewise, got {'uniform': 1}",
        "road.topology: must be ring or open",
        "road.segments[0].diagram: unknown diagram 'zzz'",
        "numerics.duration_s: must be nonnegative",
        "<top>.extra_key: unknown key",
    ):
        assert fragment in msg, fragment


def test_parse_rejects_mismatched_boundaries():
    ringed = SIM_CFG.replace("topology: open", "topology: ring")
    with pytest.raises(ConfigError, match="ring road takes no boundary"):
        parse_config(ringed)
    opened = SIM_CFG.replace("boundaries:", "ignored:").replace(
        "  left_demand_veh_s: 0.3\n  right_supply_veh_s: 1.0\n", ""
    )
    with pytest.raises(ConfigError):
        parse_config(opened)


def test_parse_rejects_uneven_segments():
    text = SIM_CFG.replace("length_km: 16.0", "length_km: 16.3")
    with pytest.raises(ConfigError, match="not a whole number"):
        parse_config(text)


@pytest.mark.parametrize("family, required, want", [
    ("greenshields", {"v_free_m_s": 27.8, "rho_jam_veh_km": 120},
     GreenshieldsDiagram(27.8 / 1000.0, 120.0)),
    ("triangular", {"v_free_m_s": 30, "rho_jam_veh_km": 150},
     TriangularDiagram(30 / 1000.0, 150.0)),
    ("kerner_konhauser", {}, KernerKonhauserDiagram()),
])
def test_diagram_family_parses_to_its_class(family, required, want):
    """A family given its required keys alone parses to its class called
    with the same arguments, the rest at their defaults.  It accepts
    ``family`` and one key per constructor field, each the field's name
    plus a unit, and refuses any other."""
    cls, keys = _FAMILIES[family]
    assert type(want) is cls
    fields = [f.name for f in dataclasses.fields(cls)]
    assert len(keys) == len(fields)
    assert all(key.startswith(name) for key, name in zip(keys, fields))
    node = {"family": family, **required}
    assert parse_config(yaml.safe_dump({"diagrams": {"d": node}})).diagrams == {
        "d": want}
    for key in required:
        text = yaml.safe_dump({"diagrams": {"d": {**node, key: None}}})
        with pytest.raises(ConfigError, match=rf"diagrams\.d\.{key}: expected a number"):
            parse_config(text)
    text = yaml.safe_dump({"diagrams": {"d": {**node, "lanes_m_s": 1}}})
    with pytest.raises(ConfigError, match=r"diagrams\.d\.lanes_m_s: unknown key"):
        parse_config(text)


def test_pieces_must_cover_the_road():
    """Pieces that miss the road length are a keyed parse error, checked
    only when the road and every piece parsed; pieces that cover it step
    at the piece ends."""
    raw = yaml.safe_load(SIM_CFG)
    raw["road"]["segments"].append({"diagram": "main", "length_km": 4.0})
    raw["initial"] = {"kind": "piecewise",
                      "pieces": [{"length_km": 6.0, "rho_veh_km": 0.5},
                                 {"length_km": 14.0, "rho_veh_km": 1.0}]}
    cfg = parse_config(yaml.safe_dump(raw))  # a 20 km road of 1 km cells
    assert cfg.initial.tolist() == [0.5] * 6 + [1.0] * 14
    # a cell centre on a piece end takes the next piece's density: with
    # 2 km cells and a 5 km first piece, the centre at x = 5 reads 1.0
    on_end = copy.deepcopy(raw)
    on_end["road"]["dx_km"] = 2.0
    on_end["initial"]["pieces"][0]["length_km"] = 5.0
    on_end["initial"]["pieces"][1]["length_km"] = 15.0
    assert parse_config(yaml.safe_dump(on_end)).initial.tolist() == (
        [0.5] * 2 + [1.0] * 8)
    # a dropped segment or piece leaves nothing whole to compare
    for key, edit in [
        ("road.segments[1].diagram",
         lambda raw: raw["road"]["segments"][1].update(diagram="nope")),
        ("initial.pieces[0].length_km",
         lambda raw: raw["initial"]["pieces"][0].update(length_km="x")),
    ]:
        broken = copy.deepcopy(raw)
        edit(broken)
        with pytest.raises(ConfigError) as exc:
            parse_config(yaml.safe_dump(broken))
        lines = str(exc.value).splitlines()  # one error, at the broken key
        assert len(lines) == 2 and lines[1].startswith(f"  {key}: "), lines
    raw["initial"]["pieces"][1]["length_km"] = 13.0
    with pytest.raises(ConfigError) as exc:
        parse_config(yaml.safe_dump(raw))
    assert str(exc.value) == ("invalid config:\n  initial.pieces: cover 19.0 km "
                              "but the road is 20.0 km")


def test_sinusoid_is_initial_density_at_every_cell():
    """simulate lays, bit for bit, the profile whose vehicles ring-predict
    counts."""
    cfg = parse_config((_BENCH_CONFIGS / "ring_predict.yaml").read_text())
    want = initial_density(_ring_spec(cfg), 28, 3)
    x = [(i + 0.5) * cfg.road.dx for i in range(cfg.road.n_cells)]
    assert cfg.initial.tolist() == [want(xi) for xi in x]


def test_simulate_evaluates_the_initial_profile_once(tmp_path, capsys, monkeypatch):
    """Parse lays the profile at the cell centres once, and simulate
    starts from those densities without evaluating it again."""
    calls = []

    def counted(*args):
        profile = lane_sinusoid(*args)
        return lambda x: calls.append(x) or profile(x)

    lane_sinusoid = sdlwr.ring_analysis._lane_sinusoid
    monkeypatch.setattr(sdlwr.ring_analysis, "_lane_sinusoid", counted)
    config = RING_CFG + "numerics:\n  dt_s: 0.8\n  duration_s: 8.0\n"
    assert _run(tmp_path, "ring.yaml", ["simulate"], config) == 0
    assert calls == [(i + 0.5) * 0.028 for i in range(600)]


def test_parse_rejects_ambiguous_state():
    text = RIEMANN_CFG.replace(
        "    demand_veh_s: 1.0\n    supply_veh_s: 0.6\n",
        "    rho_veh_km: 2.0\n    demand_veh_s: 1.0\n    supply_veh_s: 0.6\n",
        1,
    )
    with pytest.raises(ConfigError, match="either rho_veh_km or"):
        parse_config(text)


def test_parse_rejects_broken_yaml():
    with pytest.raises(ConfigError, match="YAML parse error"):
        parse_config("diagrams: [unclosed")


# -- subcommand runs -------------------------------------------------------


def _run(tmp_path, name, argv, config=None):
    if config is not None:
        cfg_path = tmp_path / name
        cfg_path.write_text(config)
        argv = argv + ["--config", str(cfg_path), "--out", str(tmp_path)]
    return main(argv)


def test_riemann_report_and_profile(tmp_path, capsys):
    code = _run(tmp_path, "case.yaml", ["riemann"], RIEMANN_CFG)
    assert code == 0
    report = (tmp_path / "case.txt").read_text()
    assert report == capsys.readouterr().out
    assert "boundary flux q = 1.0000 veh/s" in report
    assert "backward rarefaction" in report
    assert "forward rarefaction" in report
    # both stationary states sit at capacity, density at critical
    assert report.count("(D=1.0000, S=1.0000) veh/s, rho=2.0000 veh/km") == 2
    csv = (tmp_path / "case.csv").read_text().splitlines()
    assert csv[0] == "xi_m_s,rho_veh_km"
    assert len(csv) == 14
    assert csv[1].startswith("-600,")
    assert csv[-1].startswith("600,")
    # the fan is monotone from the congested tail to the free head
    rho = [float(line.split(",")[1]) for line in csv[1:]]
    assert rho[0] > rho[-1]
    assert all(a >= b - 1e-12 for a, b in zip(rho, rho[1:]))


def test_riemann_report_names_a_link_without_a_wave(tmp_path, capsys):
    """A free upstream state whose demand the downstream link takes whole
    is already stationary: no wave enters link 1, and the report says so."""
    free_up = RIEMANN_CFG.replace("    demand_veh_s: 1.0\n    supply_veh_s: 0.6\n",
                                  "    demand_veh_s: 0.5\n    supply_veh_s: 1.0\n", 1)
    assert _run(tmp_path, "case.yaml", ["riemann"], free_up) == 0
    report = capsys.readouterr().out
    assert "  boundary flux q = 0.5000 veh/s\n" in report
    assert report.endswith("  wave on link 1: none\n"
                           "  wave on link 2: forward shock at 511.6673 m/s\n")


def test_riemann_triangular_family(tmp_path, capsys):
    """A triangle feeding a trapezoid whose ceiling is the bottleneck:
    both triangular forms of the README's schema parse, and the boundary
    carries the trapezoid's capacity."""
    cfg = textwrap.dedent("""\
        diagrams:
          main: {family: triangular, v_free_m_s: 30, rho_jam_veh_km: 300}
          trap: {family: triangular, v_free_m_s: 30, rho_jam_veh_km: 150,
                 q_max_veh_s: 0.6, v_cong_m_s: 6}
        riemann:
          upstream: {diagram: main, rho_veh_km: 40}
          downstream: {diagram: trap, rho_veh_km: 10}
        """)
    assert _run(tmp_path, "tri.yaml", ["riemann"], cfg) == 0
    out = capsys.readouterr().out
    assert "downstream capacity C2 = 0.6000 veh/s" in out
    assert "boundary flux q = 0.6000 veh/s" in out


def test_triangle_of_extreme_slope_ratio_is_keyed_config_error(tmp_path, capsys):
    """A congested slope so much steeper than the free one that rounding
    could move demand and supply by FLUX_TOL/8 is refused by the diagram,
    and the CLI reports it under the diagram's key with exit code 2."""
    cfg = textwrap.dedent("""\
        diagrams:
          main: {family: triangular, v_free_m_s: 30, rho_jam_veh_km: 300}
          steep: {family: triangular, v_free_m_s: 1, rho_jam_veh_km: 1000,
                  v_cong_m_s: 1.0e+7}
        riemann:
          upstream: {diagram: main, rho_veh_km: 40}
          downstream: {diagram: steep, rho_veh_km: 10}
        """)
    assert _run(tmp_path, "steep.yaml", ["riemann"], cfg) == 2
    err = capsys.readouterr().err
    assert ("invalid config:\n  diagrams.steep: slope ratio v_cong/v_free = 1e+07 "
            "puts demand and supply") in err
    assert "Traceback" not in err


def test_riemann_byte_identical_reruns(tmp_path):
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        cfg = d / "case.yaml"
        cfg.write_text(RIEMANN_CFG)
        assert main(["riemann", "--config", str(cfg), "--out", str(d)]) == 0
    assert (tmp_path / "one" / "case.csv").read_bytes() == (
        tmp_path / "two" / "case.csv"
    ).read_bytes()
    assert (tmp_path / "one" / "case.txt").read_bytes() == (
        tmp_path / "two" / "case.txt"
    ).read_bytes()


def test_simulate_open_road(tmp_path, capsys):
    code = _run(tmp_path, "sim.yaml", ["simulate"], SIM_CFG)
    assert code == 0
    out = capsys.readouterr().out
    assert "simulation summary" in out
    assert "cells: 16, dx = 1 km, topology: open" in out
    assert "conservation drift" in out
    csv = (tmp_path / "sim.csv").read_text().splitlines()
    assert csv[0] == "t,cell,x_km,rho_veh_km,v_m_s,q_veh_s"
    # record_every 0 keeps only the first and last snapshots
    assert len(csv) == 1 + 2 * 16
    first = csv[1].split(",")
    assert first[:3] == ["0", "0", "0.5"]
    assert float(first[3]) == 0.5
    # the road drains to the uniform state carrying the inflow demand
    last = csv[-1].split(",")
    assert last[0] == "200"
    assert float(last[3]) == pytest.approx(2.0 - 2.8**0.5, abs=1e-6)


def test_simulate_reports_interior_state(tmp_path, capsys):
    cfg = textwrap.dedent("""\
        diagrams:
          main:
            family: greenshields
            v_free_m_s: 1000.0
            rho_jam_veh_km: 4.0
        road:
          topology: ring
          dx_km: 1.0
          segments:
            - diagram: main
              length_km: 16.0
        initial:
          kind: piecewise
          pieces:
            - length_km: 5.0
              rho_veh_km: 1.0
            - length_km: 1.0
              rho_veh_km: 2.2
            - length_km: 10.0
              rho_veh_km: 1.0
        numerics:
          dt_s: 0.5
          duration_s: 0.0
          record_every: 0
        """)
    code = _run(tmp_path, "spike.yaml", ["simulate"], cfg)
    assert code == 0
    out = capsys.readouterr().out
    assert ("interior state: cell 5 (x = 5.5000 km), "
            "rho = 2.2000 veh/km, q = 0.9900 veh/s") in out


def test_ring_predict_report(tmp_path, capsys):
    code = _run(tmp_path, "ring.yaml", ["ring-predict"], RING_CFG)
    assert code == 0
    report = (tmp_path / "ring.txt").read_text()
    assert "thresholds: N_a = 470.3313 veh, N_c = 1757.4749 veh" in report
    assert "N = 858.3893 veh" in report
    assert "scenario: critical_with_ss" in report
    assert "flux q = 0.7091 veh/s" in report
    assert "standing shock at L2 = 12.5792 km" in report
    assert "interior state possible at x = 12.5792-" in report
    assert "interior state possible at x = 12.5792+" in report
    csv = (tmp_path / "ring.csv").read_text().splitlines()
    assert csv[0] == "cell,x_km,rho_veh_km"
    assert len(csv) == 601
    assert csv[1] == "0,0.014,35.8944"
    assert csv[101].split(",")[2] == "26.4162"
    assert csv[600].split(",")[2] == "118.355"


def test_ring_predict_counts_vehicles_of_grid(tmp_path, capsys):
    """A uniform initial section is counted on the built grid: 40 veh/km
    over 16.8 km."""
    uniform = RING_CFG.replace(
        "  kind: sinusoid\n  rho0_veh_km: 28.0\n  amplitude_veh_km: 3.0\n",
        "  kind: uniform\n  rho_veh_km: 40.0\n",
    )
    assert _run(tmp_path, "ring_uniform.yaml", ["ring-predict"], uniform) == 0
    out = capsys.readouterr().out
    assert "N = 672.0000 veh" in out
    assert "scenario: critical_with_ss" in out


@pytest.mark.parametrize("rho0", [15.4007, 177.00003])
def test_ring_predict_counts_the_vehicles_simulate_marches(tmp_path, capsys, rho0):
    """``ring-predict`` takes N from the cells ``simulate`` marches, a
    sinusoid included: both print the same count, at 15.4007 veh/km where
    the closed-form integral would round the other way, and both accept a
    profile whose continuous peak alone passes jam (177 + 3 veh/km)."""
    raw = yaml.safe_load((_BENCH_CONFIGS / "simulate.yaml").read_text())
    raw["initial"]["rho0_veh_km"] = rho0
    raw["numerics"]["duration_s"] = 0
    cfg = tmp_path / "ring.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    counts = []
    for command, pattern in (("ring-predict", r"\n  N = (\S+) veh\n"),
                             ("simulate", r"\n  vehicles: initial (\S+) veh,")):
        code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 0, err
        counts.append(re.search(pattern, out).group(1))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("rho0", [167.2, 169.0])
def test_library_and_cli_agree_on_which_sinusoids_fit(tmp_path, capsys, rho0):
    """On a ring whose one-lane link jams at 170 veh/km, the 600-cell grid
    laid from ``initial_density``, ``vehicles_of_initial``, ``simulate``
    and ``ring-predict`` all accept 167.2 + 3 sin, which peaks at 169.80
    on that link, and all refuse 169 + 3 sin with a typed error."""
    spec = RingSpec(16.8, 2.8, KernerKonhauserDiagram(rho_jam_lane=170.0),
                    KernerKonhauserDiagram(lanes=2))
    raw = yaml.safe_load(RING_CFG)
    raw["diagrams"]["narrow"]["rho_jam_lane_veh_km"] = 170.0
    raw["initial"]["rho0_veh_km"] = rho0
    raw["numerics"] = {"dt_s": 0.8, "duration_s": 0}
    codes = [_run(tmp_path, "ring.yaml", [command], yaml.safe_dump(raw))
             for command in ("simulate", "ring-predict")]
    err = capsys.readouterr().err

    def grid():
        return grid_from_segments([(spec.fd1, 100), (spec.fd2, 500)], 0.028,
                                  rho=initial_density(spec, rho0, 3.0))

    if rho0 == 167.2:
        assert grid().total_vehicles() == pytest.approx(5145.7493, abs=1e-4)
        assert vehicles_of_initial(spec, rho0, 3.0) == pytest.approx(5145.7493, abs=1e-4)
        assert (codes, err) == ([0, 0], "")
        return
    message = "initial density exceeds rho_jam in 68 of 600 cells, the first cell 32"
    with pytest.raises(ConfigError) as exc:
        grid()
    assert str(exc.value) == message
    with pytest.raises(ValueError, match="exceeds rho_jam=170.0 veh/km"):
        vehicles_of_initial(spec, rho0, 3.0)
    assert (codes, err) == ([2, 2], f"invalid config:\n  initial: {message}\n" * 2)


def test_ring_predict_explicit_count_matches_initial(tmp_path, capsys):
    explicit = RING_CFG.replace(
        "initial:\n  kind: sinusoid\n  rho0_veh_km: 28.0\n  amplitude_veh_km: 3.0\n",
        "ring:\n  vehicles_veh: 858.3892771080685\n",
    )
    _run(tmp_path, "ring_sine.yaml", ["ring-predict"], RING_CFG)
    first = capsys.readouterr().out
    _run(tmp_path, "ring_count.yaml", ["ring-predict"], explicit)
    assert capsys.readouterr().out == first


def test_verify_zero_trials(capsys):
    assert main(["verify", "--trials", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "verify: 0 trials requested, nothing to run: PASS\n"


_VERIFY_CHECKS = ["osher-equivalence", "boundary-flux-formula",
                  "s1-d2-independence", "stationary-idempotence",
                  "homogeneous-case-table", "ring-conservation"]


def test_verify_small_run(capsys):
    assert main(["verify", "--seed", "3", "--trials", "20"]) == 0
    assert capsys.readouterr().out == "".join(f"PASS {name}\n"
                                              for name in _VERIFY_CHECKS)


def _editing(edit):
    """A breaker of ``solve``: each solution passes through ``edit(p, sol)``."""
    return lambda real: lambda p: edit(p, real(p))


def _perturbed_final(real):
    def run(*args, **kwargs):
        record = real(*args, **kwargs)
        record.rho[-1] *= 1.0 + 1e-6
        return record
    return run


_BACKWARD_SHOCK = Wave(WaveKind.SHOCK, WaveDirection.BACKWARD, (-0.1, -0.1),
                       3.0, 2.5)

# each check, and a dependency inside verify_cases that breaks it
_BREAKS = {
    "osher-equivalence": ("osher_flux", lambda real: (
        lambda fd, a, b: real(fd, a, b) + 1e-6)),
    "boundary-flux-formula": ("solve", _editing(lambda p, sol: dataclasses.replace(
        sol, boundary_flux=sol.boundary_flux - 1e-6))),
    # the upstream stationary state follows S1
    "s1-d2-independence": ("solve", _editing(lambda p, sol: dataclasses.replace(
        sol, stat_up=p.u1))),
    "stationary-idempotence": ("solve", _editing(lambda p, sol: dataclasses.replace(
        sol, wave_up=_BACKWARD_SHOCK))),
    "homogeneous-case-table": ("check_entry", lambda real: (
        lambda fd_up, fd_down, entry: f"{entry.label}: broken")),
    "ring-conservation": ("run", _perturbed_final),
}


def test_every_verify_check_has_a_break():
    """``_VERIFY_CHECKS`` lists the checks ``run_checks`` yields, in order,
    and each of them has a breaking mutation in ``_BREAKS``."""
    assert [name for name, _ in verify_cases.run_checks(0, 1)] == _VERIFY_CHECKS
    assert set(_BREAKS) == set(_VERIFY_CHECKS)


@pytest.mark.parametrize("name", list(_BREAKS))
def test_verify_reports_a_failed_check(monkeypatch, capsys, name):
    """A check that fails prints ``FAIL <name>: <its first failure>`` in
    its place, and verify exits 1."""
    attr, breaker = _BREAKS[name]
    monkeypatch.setattr(verify_cases, attr, breaker(getattr(verify_cases, attr)))
    assert main(["verify", "--seed", "3", "--trials", "20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1].rstrip(":") for line in lines] == _VERIFY_CHECKS
    assert lines[_VERIFY_CHECKS.index(name)].startswith(f"FAIL {name}: ")


_ZERO_SHOCK = Wave(WaveKind.SHOCK, WaveDirection.ZERO)  # on no row of the table


# each field of RiemannSolution, a change of it that no case-table row
# expects, and the word the failure names it by
_FIELD_BREAKS = {
    "boundary_flux": (lambda sol: sol.boundary_flux + 1e-6, "flux"),
    "stat_up": (lambda sol: SDState(sol.stat_up.demand, sol.stat_up.supply + 1e-6),
                "stat_up"),
    "stat_down": (lambda sol: SDState(sol.stat_down.demand + 1e-6,
                                      sol.stat_down.supply), "stat_down"),
    "interior_up": (lambda sol: Unique(SDState(0.0, 0.0)), "upstream"),
    "interior_down": (lambda sol: Unique(SDState(0.0, 0.0)), "downstream"),
    "wave_up": (lambda sol: _ZERO_SHOCK, "upstream"),
    "wave_down": (lambda sol: _ZERO_SHOCK, "downstream"),
}


@pytest.mark.parametrize("field", list(_FIELD_BREAKS))
def test_case_table_names_each_broken_field(monkeypatch, field):
    """Every field of the solution is checked on the case table: changing
    it on every row fails ``run_case_table`` with a message that names the
    field, or the side it lies on."""
    assert [f.name for f in dataclasses.fields(RiemannSolution)] == list(_FIELD_BREAKS)
    change, word = _FIELD_BREAKS[field]
    monkeypatch.setattr(verify_cases, "solve", _editing(
        lambda p, sol: dataclasses.replace(sol, **{field: change(sol)}))(
            verify_cases.solve))
    problem = verify_cases.run_case_table()
    assert problem is not None and word in problem, problem
    other = {"upstream": "downstream", "downstream": "upstream"}.get(word)
    assert other is None or other not in problem, problem


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["riemann"]) == 2
    assert "--config is required" in capsys.readouterr().err
    assert main(["riemann", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.yaml"
    bad.write_text("diagrams: {}\n")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "invalid config" in capsys.readouterr().err


_BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


def _number_keys(node, path=""):
    """Key paths of every number in a parsed config, in the CLI's
    error-message form (``road.segments[0].length_km``)."""
    if isinstance(node, dict):
        for key, sub in node.items():
            yield from _number_keys(sub, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, sub in enumerate(node):
            yield from _number_keys(sub, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _slot(node, path):
    """The container and key that a key path addresses in a parsed config."""
    *parents, last = path.replace("[", ".[").split(".")

    def index(part):
        return int(part[1:-1]) if part.startswith("[") else part

    for part in parents:
        node = node[index(part)]
    return node, index(last)


# written out as digits: YAML reads them back as Python ints
_BEYOND_FLOAT = [10**400, -10**400]

_NUMBER_KEYS = [
    (name, key)
    for name in ("riemann", "simulate", "ring_predict")
    for key in _number_keys(
        yaml.safe_load((_BENCH_CONFIGS / f"{name}.yaml").read_text()))
]


@pytest.mark.parametrize("name, key", _NUMBER_KEYS,
                         ids=[f"{n}:{k}" for n, k in _NUMBER_KEYS])
def test_non_finite_numbers_are_keyed_config_errors(tmp_path, capsys, name, key):
    """``.nan``, ``.inf`` and ``-.inf`` in any number key of the bench
    configs, and integers beyond the float range in any float key, end
    in a config error naming the key, with exit code 2."""
    raw = yaml.safe_load((_BENCH_CONFIGS / f"{name}.yaml").read_text())
    node, slot = _slot(raw, key)
    # the two keys that take only integers say so instead
    integer_key = slot in ("count", "record_every")
    want = "expected an integer" if integer_key else "must be finite"
    values = [math.nan, math.inf, -math.inf]
    if not integer_key:
        values += _BEYOND_FLOAT
    cfg = tmp_path / f"{name}.yaml"
    for value in values:
        node[slot] = value
        cfg.write_text(yaml.safe_dump(raw))
        code = main([name.replace("_", "-"), "--config", str(cfg),
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, (key, value, err)
        assert f"{key}: {want}" in err, (key, value, err)


def test_profile_count_out_of_range_is_keyed_config_error(tmp_path, capsys):
    """A profile count too large to build (10**400 used to end in a numpy
    traceback) or below 2 is refused with its key and exit code 2; the
    largest accepted count parses."""
    raw = yaml.safe_load((_BENCH_CONFIGS / "riemann.yaml").read_text())
    cfg = tmp_path / "riemann.yaml"
    want = f"riemann.profile.count: expected an integer in [2, {_MAX_PROFILE_POINTS}]"
    for value in _BEYOND_FLOAT + [_MAX_PROFILE_POINTS + 1, 1, 0, -3]:
        raw["riemann"]["profile"]["count"] = value
        cfg.write_text(yaml.safe_dump(raw))
        code = main(["riemann", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, (value, err)
        assert want in err, (value, err)
    raw["riemann"]["profile"]["count"] = _MAX_PROFILE_POINTS
    parsed = parse_config(yaml.safe_dump(raw))
    assert parsed.riemann_profile[2] == _MAX_PROFILE_POINTS


def test_huge_yaml_integers_are_config_errors(tmp_path, capsys):
    """PyYAML refuses an integer of more than 4300 digits with a plain
    ValueError; in a float key and in ``count`` alike it ends in a YAML
    parse error with exit code 2."""
    text = (_BENCH_CONFIGS / "riemann.yaml").read_text()
    cfg = tmp_path / "riemann.yaml"
    for key, old in (("rho_veh_km", "50"), ("count", "121")):
        assert f"{key}: {old}" in text
        cfg.write_text(text.replace(f"{key}: {old}", f"{key}: {'9' * 5000}"))
        code = main(["riemann", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, (key, err)
        assert "YAML parse error" in err, (key, err)


@pytest.mark.parametrize("side", ["left_demand_veh_s", "right_supply_veh_s"])
@pytest.mark.parametrize("form", ["constant", "schedule"])
def test_boundary_numbers_are_keyed_config_errors(tmp_path, capsys, side, form):
    """A boundary flow that is not a finite number is refused at parse
    time with its key, in constant and in schedule form."""
    raw = yaml.safe_load(SIM_CFG)
    key = f"boundaries.{side}"
    if form == "schedule":
        key += "[0].value_veh_s"
    cfg = tmp_path / "sim.yaml"
    for value in [math.nan, math.inf, -math.inf] + _BEYOND_FLOAT:
        raw["boundaries"][side] = (
            value if form == "constant" else [{"t_s": 0, "value_veh_s": value}])
        cfg.write_text(yaml.safe_dump(raw))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2, (key, value, err)
        assert f"{key}: must be finite" in err, (key, value, err)


def _swap_segments(raw):
    raw["road"]["segments"].reverse()


@pytest.mark.parametrize("edit, key, message", [
    (_swap_segments, "road.segments", "link 1 must be the bottleneck"),
    (lambda raw: raw.update(ring={"vehicles_veh": 99999}),
     "ring.vehicles_veh", "N=99999.0 veh outside [0, 5544]"),
    (lambda raw: raw["initial"].update(rho0_veh_km=2, amplitude_veh_km=5),
     "initial", "initial density dips below 0"),
], ids=["swapped-segments", "vehicles", "sinusoid"])
def test_ring_predict_bad_ring_is_keyed_config_error(tmp_path, capsys, edit, key,
                                                     message):
    """A ring the predictor refuses ends in a config error naming the
    section, with exit code 2 and no traceback."""
    raw = yaml.safe_load((_BENCH_CONFIGS / "ring_predict.yaml").read_text())
    edit(raw)
    cfg = tmp_path / "ring.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    code = main(["ring-predict", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"invalid config:\n  {key}: {message}" in err
    assert "Traceback" not in err


def test_verify_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sdlwr verify")
    assert "--seed: must be a non-negative integer, got -1" in err


def test_verify_rejects_negative_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--trials", "-5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sdlwr verify")
    assert "--trials: must be a non-negative integer, got -5" in err


@pytest.mark.parametrize("ref", [["wide"], {"x": 1}], ids=["list", "dict"])
@pytest.mark.parametrize("command, config, key", [
    ("ring-predict", "ring_predict.yaml", "road.segments[1]"),
    ("riemann", "riemann.yaml", "riemann.upstream"),
], ids=["segment", "riemann-state"])
def test_unhashable_diagram_reference_is_keyed_config_error(
        tmp_path, capsys, ref, command, config, key):
    raw = yaml.safe_load((_BENCH_CONFIGS / config).read_text())
    if command == "riemann":
        raw["riemann"]["upstream"]["diagram"] = ref
    else:
        raw["road"]["segments"][1]["diagram"] = ref
    cfg = tmp_path / config
    cfg.write_text(yaml.safe_dump(raw))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"{key}.diagram: unknown diagram {ref!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["ring-predict", "simulate"])
def test_segment_below_one_cell_is_keyed_config_error(tmp_path, capsys, command):
    """A segment that rounds to 0 cells is refused, not dropped from the road."""
    raw = yaml.safe_load((_BENCH_CONFIGS / "ring_predict.yaml").read_text())
    raw["road"]["segments"][1]["length_km"] = 1.0e-12
    if command == "simulate":
        raw["numerics"] = {"dt_s": 0.5, "duration_s": 1.0}
    cfg = tmp_path / "ring.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert ("invalid config:\n  road.segments[1].length_km: 1e-12 km is not a "
            "whole number of dx=0.028 km cells, one or more") in err


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["road"].update(dx_km=1.0e-320),
     "road.dx_km: 1e-320 km makes the cell count overflow"),
    (lambda raw: raw["numerics"].update(dt_s=1.0e-320),
     "numerics.dt_s: 1e-320 s makes the step count overflow"),
    (lambda raw: raw["diagrams"]["wide"].update(lanes=1.0e-320),
     "diagrams.wide: degenerate diagram"),
], ids=["dx", "dt", "lanes"])
def test_overflowing_or_degenerate_numbers_are_keyed_config_errors(
        tmp_path, capsys, deadline, edit, message):
    """A dx or dt small enough to overflow the cell or step count, and a
    diagram whose searches underflow, end in a keyed config error."""
    raw = yaml.safe_load((_BENCH_CONFIGS / "simulate.yaml").read_text())
    edit(raw)
    cfg = tmp_path / "simulate.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    with deadline(5):
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"invalid config:\n  {message}" in err


@pytest.mark.parametrize("command, config, flags", [
    ("simulate", "simulate.yaml", ["--override-cfl"]),
    ("ring-predict", "ring_predict.yaml", []),
], ids=["simulate", "ring-predict"])
def test_cell_count_beyond_cap_is_keyed_config_error(
        tmp_path, capsys, deadline, command, config, flags):
    """A dx that makes more cells than a road may hold is refused with its
    key and exit code 2, not an OverflowError from the grid build or a
    MemoryError from the per-cell CSV."""
    raw = yaml.safe_load((_BENCH_CONFIGS / config).read_text())
    raw["road"]["dx_km"] = 1.0e-300
    cfg = tmp_path / config
    cfg.write_text(yaml.safe_dump(raw))
    with deadline(5):
        code = main([command, "--config", str(cfg), "--out", str(tmp_path), *flags])
    err = capsys.readouterr().err
    assert code == 2, err
    assert (f"invalid config:\n  road.dx_km: 1e-300 km makes more than "
            f"{_MAX_CELLS} cells") in err


def test_record_beyond_cap_is_keyed_config_error(tmp_path, capsys, deadline):
    """The bench simulate road at 960 000 cells, recorded at each of its
    10 000 steps, would make a 230 GB record: simulate refuses it at
    ``numerics.record_every`` with exit code 2, before it marches."""
    raw = yaml.safe_load((_BENCH_CONFIGS / "simulate.yaml").read_text())
    raw["road"]["dx_km"] = 16.8 / 960_000
    raw["numerics"] = {"dt_s": 0.0005, "duration_s": 5.0, "record_every": 1}
    cfg = tmp_path / "simulate.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    with deadline(5):
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert ("invalid config:\n  numerics.record_every: 10001 snapshots make a "
            f"230 GB record (rho, q and v), over the {_MAX_RECORD_BYTES / 1e9:g} GB "
            "limit") in err
    assert not (tmp_path / "simulate.csv").exists()


def test_largest_road_parses():
    raw = yaml.safe_load(SIM_CFG)
    raw["road"]["dx_km"] = 16.0 / _MAX_CELLS
    parsed = parse_config(yaml.safe_dump(raw), override_cfl=True)
    assert parsed.road.n_cells == _MAX_CELLS
    raw["road"]["dx_km"] = 16.0 / (2 * _MAX_CELLS)
    with pytest.raises(ConfigError, match="road.dx_km: .* makes more than"):
        parse_config(yaml.safe_dump(raw), override_cfl=True)


def _schedule(*values):
    return [{"t_s": 50.0 * i, "value_veh_s": v} for i, v in enumerate(values)]


@pytest.mark.parametrize("edit, key, message", [
    (lambda raw: raw["boundaries"].update(left_demand_veh_s=2.5),
     "boundaries.left_demand_veh_s",
     "boundary left demand(0.0) = 2.5 veh/s outside [0, 1]"),
    (lambda raw: raw["boundaries"].update(right_supply_veh_s=_schedule(1.0, -0.5)),
     "boundaries.right_supply_veh_s[1].value_veh_s",
     "boundary right supply(50.0) = -0.5 veh/s outside [0, 1]"),
    (lambda raw: raw["initial"].update(rho_veh_km=5.0),
     "initial", "initial density exceeds rho_jam in 16 of 16 cells, the first cell 0"),
    (lambda raw: raw.update(initial={"kind": "piecewise", "pieces": [
        {"length_km": 9.0, "rho_veh_km": 1.0}, {"length_km": 7.0, "rho_veh_km": -0.1}]}),
     "initial", "initial density dips below 0 in 7 of 16 cells, the first cell 9"),
], ids=["left-demand", "right-supply-schedule", "initial-above-jam",
        "initial-below-0"])
def test_out_of_range_flows_and_densities_are_keyed_at_parse(edit, key, message):
    """Boundary flows outside [0, capacity] of the end links and initial
    densities outside [0, rho_jam] are refused at parse time with their
    key, by the rules the grid and the march apply."""
    raw = yaml.safe_load(SIM_CFG)
    edit(raw)
    with pytest.raises(ConfigError) as exc:
        parse_config(yaml.safe_dump(raw))
    assert f"invalid config:\n  {key}: {message}" in str(exc.value)


def test_flows_within_the_march_slack_parse():
    """The march lets a boundary flow pass the capacity by 1e-9 veh/s of
    roundoff, and so does the parser."""
    raw = yaml.safe_load(SIM_CFG)
    raw["boundaries"]["left_demand_veh_s"] = 1.0 + 5e-10
    raw["boundaries"]["right_supply_veh_s"] = _schedule(0.0, 1.0)
    assert parse_config(yaml.safe_dump(raw)).boundaries is not None


def test_unreadable_config_and_unwritable_out_exit_2(tmp_path, capsys):
    """A config that is not UTF-8 cannot be read, and an --out below a
    file cannot be written: both exit 2 with a message, no traceback."""
    cfg = tmp_path / "latin1.yaml"
    cfg.write_bytes("# caf\xe9\n".encode("latin-1"))
    assert main(["riemann", "--config", str(cfg)]) == 2
    assert f"cannot read config {cfg}: 'utf-8' codec" in capsys.readouterr().err
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"
    code = main(["riemann", "--config", str(_BENCH_CONFIGS / "riemann.yaml"),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"cannot write {out / 'riemann_profile.csv'}: ")


# one-edit values: every kind YAML can carry, and the edge of each
_EDIT_VALUES = [None, -1, 0, 1.0e-320, "x", [1], {"a": 1}, True, 2.5,
                _BEYOND_FLOAT[0], math.nan]


def _one_edit_configs(raw):
    """(edit, config) for every config one edit from ``raw``: each node
    set to each of _EDIT_VALUES or deleted, an unknown key added to each
    mapping, and each family put in each diagram."""
    def nodes(node, path=()):
        yield path, node
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, sub in items:
            yield from nodes(sub, path + (key,))

    def edited(path, change, *value):
        cfg = copy.deepcopy(raw)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        change(node, path[-1], *value)
        return cfg

    for path, node in nodes(raw):
        if path:
            for value in _EDIT_VALUES:
                yield f"{path} = {value!r}", edited(path, operator.setitem, value)
            yield f"{path} deleted", edited(path, operator.delitem)
        if isinstance(node, dict):
            yield f"{path} + unknown key", edited(path + ("unknown",),
                                                  operator.setitem, 1)
    for name in raw["diagrams"]:
        for family in _FAMILIES:
            yield f"diagrams.{name} as {family}", edited(
                ("diagrams", name, "family"), operator.setitem, family)


def test_one_edit_configs_parse_or_raise_config_error(deadline):
    """Every config one edit from a bench config parses or raises
    ConfigError: no other exception, and no search that never ends."""
    failures, cases = [], 0
    for name in ("riemann", "ring_predict", "simulate"):
        raw = yaml.safe_load((_BENCH_CONFIGS / f"{name}.yaml").read_text())
        for edit, cfg in _one_edit_configs(raw):
            cases += 1
            try:
                with deadline(5):
                    parse_config(yaml.safe_dump(cfg))
            except ConfigError:
                pass
            except Exception as exc:
                failures.append(f"{name}: {edit}: {type(exc).__name__}: {exc}")
    assert cases == 825
    assert not failures, "\n".join(failures)


def _open_road_with_schedules():
    """SIM_CFG with a piecewise initial profile and a boundary schedule,
    which no bench config has."""
    raw = yaml.safe_load(SIM_CFG)
    raw["initial"] = {"kind": "piecewise",
                      "pieces": [{"length_km": 6.0, "rho_veh_km": 0.5},
                                 {"length_km": 10.0, "rho_veh_km": 1.0}]}
    raw["boundaries"]["left_demand_veh_s"] = _schedule(0.3, 0.6)
    return raw


# sha256 of the outcomes of test_one_edit_config_messages
_ONE_EDIT_OUTCOMES = (
    "9e94bb554b465a62987591271e4b483b1d8490583a0a136ace89d4a1478a5122")


def test_one_edit_config_messages(deadline):
    """The outcome of every config one edit from a bench config or from
    the open road with schedules: "ok", or the ConfigError text, word for
    word, pinned as one digest over all of them.  Any other exception,
    or a parse that outruns its deadline, fails the test."""
    configs = {name: yaml.safe_load((_BENCH_CONFIGS / f"{name}.yaml").read_text())
               for name in ("riemann", "ring_predict", "simulate")}
    configs["open_road"] = _open_road_with_schedules()
    outcomes = []
    for name, raw in configs.items():
        for edit, cfg in _one_edit_configs(raw):
            try:
                with deadline(5):
                    parse_config(yaml.safe_dump(cfg))
                outcome = "ok"
            except ConfigError as exc:
                outcome = str(exc)
            outcomes.append(f"{name}: {edit}: {outcome}")
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert (len(outcomes), digest) == (1285, _ONE_EDIT_OUTCOMES)


def _bench(name):
    return yaml.safe_load((_BENCH_CONFIGS / f"{name}.yaml").read_text())


def _edited(raw, edit):
    edit(raw)
    return raw


@pytest.mark.parametrize("command, raw, message", [
    ("simulate", _edited(_open_road_with_schedules(),
                         lambda raw: raw["initial"].update(pieces=[])),
     "invalid config:\n  initial.pieces: expected a nonempty list"),
    ("simulate", _edited(_open_road_with_schedules(), lambda raw:
                         raw["boundaries"]["left_demand_veh_s"][0].update(t_s=10.0)),
     "invalid config:\n  boundaries.left_demand_veh_s: first breakpoint must "
     "start at t_s=0"),
    ("simulate", _edited(_open_road_with_schedules(), lambda raw:
                         raw["boundaries"]["left_demand_veh_s"][1].update(t_s=0.0)),
     "invalid config:\n  boundaries.left_demand_veh_s: step function "
     "breakpoints must increase"),
    ("riemann", _edited(_bench("riemann"), lambda raw: raw["riemann"].update(
        profile={"xi_min_m_s": 5, "xi_max_m_s": 5, "count": 3})),
     "invalid config:\n  riemann.profile: xi_min_m_s must be below xi_max_m_s"),
    ("riemann", None,
     "invalid config:\n  diagrams: at least one diagram is required"),
    ("simulate", _bench("ring_predict"), "simulate needs a numerics section"),
    ("ring-predict", _open_road_with_schedules(),
     "ring-predict needs a ring road with exactly two segments (bottleneck first)"),
    ("riemann", _bench("ring_predict"), "riemann section missing"),
    ("simulate", _edited(_bench("simulate"), lambda raw: raw.pop("initial")),
     "simulate needs road and initial sections"),
    ("ring-predict", _bench("riemann"), "ring-predict needs a road section"),
    ("ring-predict", _edited(_bench("ring_predict"), lambda raw: raw.pop("initial")),
     "ring-predict needs ring.vehicles_veh or an initial section"),
], ids=["no-pieces", "late-first-breakpoint", "breakpoints-not-increasing",
        "empty-xi-range", "empty-document", "simulate-without-numerics",
        "ring-predict-on-open-road", "riemann-without-section",
        "simulate-without-initial", "ring-predict-without-road",
        "ring-predict-without-count"])
def test_refusals_exit_2_with_their_message(tmp_path, capsys, command, raw, message):
    """Refusals of configs that parse into too little for the command,
    or that name an empty or backward range, end with exit code 2 and
    their message as the whole of stderr."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("" if raw is None else yaml.safe_dump(raw))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_override_cfl_flag_end_to_end(tmp_path, capsys):
    cfg = SIM_CFG.replace("dt_s: 0.5", "dt_s: 0.96").replace(
        "duration_s: 200.0", "duration_s: 9.6"
    )
    path = tmp_path / "fast.yaml"
    path.write_text(cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "CFL number 0.96" in capsys.readouterr().err
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path),
                 "--override-cfl"])
    assert code == 0
    assert "simulation summary" in capsys.readouterr().out


def test_cfl_guard_only_where_the_road_is_marched(tmp_path, capsys):
    """A dt_s that breaks the CFL guard refuses simulate with exit code 2,
    while riemann and ring-predict, which do not march the road, print
    the report they print without a numerics section.  Only simulate
    takes --override-cfl."""
    raw = yaml.safe_load((_BENCH_CONFIGS / "ring_predict.yaml").read_text())
    raw["riemann"] = yaml.safe_load(
        (_BENCH_CONFIGS / "riemann.yaml").read_text())["riemann"]
    plain, fast = tmp_path / "plain.yaml", tmp_path / "fast.yaml"
    plain.write_text(yaml.safe_dump(raw))
    raw["numerics"] = {"dt_s": 5.0, "duration_s": 100.0}
    fast.write_text(yaml.safe_dump(raw))
    for command in ("riemann", "ring-predict"):
        assert main([command, "--config", str(plain), "--out", str(tmp_path)]) == 0
        want = capsys.readouterr().out
        assert main([command, "--config", str(fast), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == want
    assert main(["simulate", "--config", str(fast), "--out", str(tmp_path)]) == 2
    assert "numerics.dt_s: CFL number 4.97 exceeds 0.95" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["riemann", "--config", str(fast), "--override-cfl"])
    assert exc.value.code == 2


def test_diverging_simulate_exits_2(tmp_path, capsys):
    """A run forced past the stability limit stops at the step that
    leaves [0, rho_jam] with exit code 2 and a message naming the step
    and the cell, not a traceback."""
    text = (_BENCH_CONFIGS / "simulate.yaml").read_text()
    cfg = tmp_path / "simulate.yaml"
    cfg.write_text(text.replace("dt_s: 0.8", "dt_s: 3.0")
                   .replace("duration_s: 6000", "duration_s: 600"))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                 "--override-cfl"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "in cell 100 after 1 steps" in err


_BENCH_REPORTS = {
    "riemann": """\
riemann solution at the link boundary
  upstream capacity   C1 = 1.4182 veh/s
  downstream capacity C2 = 0.7091 veh/s
  initial upstream    (D1=1.2212, S1=1.4182) veh/s
  initial downstream  (D2=0.5144, S2=0.7091) veh/s
  boundary flux q = 0.7091 veh/s
  stationary up   (D=1.4182, S=0.7091) veh/s, rho=118.3550 veh/km
  stationary down (D=0.7091, S=0.7091) veh/s, rho=35.8944 veh/km
  interior up:   unique (D=1.4182, S=0.7091) veh/s
  interior down: unique (D=0.7091, S=0.7091) veh/s
  wave on link 1: backward shock at -7.4920 m/s
  wave on link 2: forward rarefaction, speeds [0.0000, 21.4359] m/s
""",
    "ring_predict": """\
two-link ring asymptotic state
  L = 16.8 km, L1 = 2.8 km
  C1 = 0.7091 veh/s, C2 = 1.4182 veh/s
  thresholds: N_a = 470.3313 veh, N_c = 1757.4749 veh
  N = 858.3893 veh
  scenario: critical_with_ss
  flux q = 0.7091 veh/s
  standing shock at L2 = 12.5792 km
  [0.0000, 2.8000] km: rho = 35.8944 veh/km
  [2.8000, 12.5792] km: rho = 26.4162 veh/km
  [12.5792, 16.8000] km: rho = 118.3550 veh/km
  interior state possible at x = 12.5792-
  interior state possible at x = 12.5792+
""",
    "simulate": """\
simulation summary
  cells: 600, dx = 0.028 km, topology: ring
  dt = 0.8 s, steps = 5 recorded of 7500, CFL = 0.80
  vehicles: initial 858.3893 veh, final 858.3893 veh
  inflow 4254.7228 veh, outflow 4254.7228 veh
  conservation drift: {drift} (relative)
  convergence metric: 2.059e-03 veh/km per step
  interior states: run not steady, detection skipped
""",
}

# sha256 of each bench config's CSV
_BENCH_CSVS = {
    "riemann": ("riemann_profile.csv",
                "87d0d39f0c82f2374fdd3070382326d551614aa34ac7cc9c8fc81dc06dc1efc7"),
    "ring_predict": ("ring_predict.csv",
                     "2938c566d55bfef0382bbe335494a839fb56428e8d0dc83c7c7a4094bfa26cc2"),
    "simulate": ("simulate.csv",
                 "4f884e403e9be002743e51e05922f9e26279798f19306590f639c67791571151"),
}


def test_bench_config_reports(tmp_path, capsys):
    """The reports of the three bench configs, to their printed digits,
    and their CSVs byte for byte; the conservation drift, printed down
    to its last bits, is held to a bound instead."""
    for name, want in _BENCH_REPORTS.items():
        code = main([name.replace("_", "-"), "--config",
                     str(_BENCH_CONFIGS / f"{name}.yaml"), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0, name
        drift = re.search(r"conservation drift: (\S+) ", out)
        if drift is not None:
            assert float(drift.group(1)) < 1e-12
            want = want.format(drift=drift.group(1))
        assert out == want, name
        csv, digest = _BENCH_CSVS[name]
        assert hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest() == digest, csv


# -------------------------------------------------- imports and entry

_LIBRARY = ("fundamental_diagram", "supply_demand", "riemann_solver",
            "godunov_sim", "ring_analysis")

# prints, at exit, the sdlwr, yaml and scipy modules the process loaded
_LOADED = ("import atexit, sys\n"
           "atexit.register(lambda: print(sorted(m for m in sys.modules "
           "if m.split('.')[0] in ('sdlwr', 'yaml', 'scipy'))))\n")


def _fresh(code: str, *args: str) -> str:
    """The stdout of ``code`` run with ``args`` in a new interpreter that
    imports sdlwr from this checkout."""
    src = str(Path(sdlwr.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_loads_no_scipy():
    """``import sdlwr`` loads no module of the library, and so no scipy:
    each name loads its module when first read."""
    assert _fresh(_LOADED + "import sdlwr").strip() == "['sdlwr']"


# subcommand -> its arguments but ``--out``, the modules it must load (so
# that the check reads a real run) and the modules it must not
_SUBCOMMAND_MODULES = {
    "riemann": (["--config", str(_BENCH_CONFIGS / "riemann.yaml")],
                {"yaml", "sdlwr.riemann_solver"},
                {"sdlwr.godunov_sim", "sdlwr.ring_analysis", "sdlwr.verify_cases"}),
    "ring-predict": (["--config", str(_BENCH_CONFIGS / "ring_predict.yaml")],
                     {"yaml", "sdlwr.ring_analysis"}, {"sdlwr.verify_cases"}),
    "simulate": (["--config", str(_BENCH_CONFIGS / "simulate.yaml")],
                 {"yaml", "sdlwr.godunov_sim"}, {"sdlwr.verify_cases"}),
    "verify": (["--trials", "1"], {"sdlwr.verify_cases"},
               {"yaml", "sdlwr.ring_analysis"}),
}


@pytest.mark.parametrize("command", _SUBCOMMAND_MODULES)
def test_subcommand_loads_only_what_it_runs(tmp_path, command):
    """A ``python -m sdlwr.cli`` process loads the modules its subcommand
    runs, none that only another subcommand runs, and no scipy."""
    args, used, unused = _SUBCOMMAND_MODULES[command]
    if command != "verify":
        args = [*args, "--out", str(tmp_path)]
    run_cli = ("import runpy, sys\n"
               "sys.argv[0] = 'sdlwr'\n"
               "runpy.run_module('sdlwr.cli', run_name='__main__')\n")
    loaded = set(ast.literal_eval(
        _fresh(_LOADED + run_cli, command, *args).splitlines()[-1]))
    assert used <= loaded
    assert not loaded & unused
    assert not any(m.split(".")[0] == "scipy" for m in loaded)


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    """``main`` called in a running program leaves the collector as it is;
    only the process entry freezes."""
    before = gc.get_freeze_count()
    assert main(["verify", "--trials", "1"]) == 0
    assert main(["riemann", "--config", str(_BENCH_CONFIGS / "riemann.yaml"),
                 "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


def test_script_and_module_run_the_freezing_entry():
    """The ``sdlwr`` script names the function that ``python -m sdlwr.cli``
    runs, and that function freezes the objects of the imports."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(sdlwr.__file__).resolve().parents[2] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["sdlwr"]
    module, _, name = target.partition(":")
    assert module == "sdlwr.cli"
    tree = ast.parse(Path(sdlwr.cli.__file__).read_text())
    main_block, = (node for node in tree.body if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "__name__ == '__main__'")
    assert ast.unparse(main_block.body) == f"sys.exit({name}())"
    # the script's function, called as a console script calls it
    out = _fresh("import gc, sys\n"
                 f"from {module} import {name}\n"
                 "sys.argv = ['sdlwr', 'verify', '--trials', '0']\n"
                 f"print({name}(), gc.get_freeze_count() > 0)")
    assert out.splitlines()[-1] == "0 True"
    # python -m sdlwr.cli, asked at exit
    out = _fresh("import atexit, gc, runpy, sys\n"
                 "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
                 "sys.argv = ['sdlwr', 'verify', '--trials', '0']\n"
                 "runpy.run_module('sdlwr.cli', run_name='__main__')")
    assert out.splitlines()[-1] == "True"


def test_package_surface():
    """The package republishes each module's ``__all__`` in order, once,
    each name bound to its module's own object."""
    modules = [getattr(sdlwr, name) for name in _LIBRARY]
    want = [name for module in modules for name in module.__all__]
    assert sdlwr.__all__ == [*want, "__version__"]
    assert len(set(sdlwr.__all__)) == len(sdlwr.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(sdlwr, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sdlwr.no_such_name


# Public names that nothing in src/, demos/ or bench/ reads, each with why
_UNCALLED = {
    "admissible_stationary_down": "ROADMAP item 9: verify's uniqueness check is to call it",
    "admissible_interior_down": "ROADMAP item 9: verify's interior-state check is to call it",
    "entropy_flux": "ROADMAP item 9: verify's interior-state check is to call it",
    "__version__": "package metadata, for whoever imports the package",
}


def test_each_public_name_has_a_caller():
    """Every name of ``sdlwr.__all__`` outside ``_UNCALLED`` is read as a
    name in src/, demos/ or bench/, outside its own def or class (its
    ``__all__`` entry is a string, not a read); and every name in
    ``_UNCALLED`` still has no such reader."""
    root = Path(__file__).resolve().parents[1]
    read = set()

    def walk(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id not in own:
            read.add(node.id)
        for child in ast.iter_child_nodes(node):
            walk(child, own)

    for folder in ("src", "demos", "bench"):
        for path in (root / folder).rglob("*.py"):
            walk(ast.parse(path.read_text()), frozenset())
    assert set(sdlwr.__all__) - read == set(_UNCALLED)


def test_package_resolves_names_on_first_read():
    """In a new process the five module attributes resolve before any
    import of them, ``dir`` lists every public name before any is read,
    and ``from sdlwr import *`` binds every name, each kept on the
    package once read."""
    out = _fresh("import json, sdlwr\n"
                 f"modules = [getattr(sdlwr, m).__name__ for m in {_LIBRARY!r}]\n"
                 "listed = dir(sdlwr)\n"
                 "ns = {}\n"
                 "exec('from sdlwr import *', ns)\n"
                 "print(json.dumps([modules, listed, sorted(set(ns) - {'__builtins__'}), "
                 "sorted(vars(sdlwr))]))")
    modules, listed, bound, kept = json.loads(out)
    assert modules == [f"sdlwr.{name}" for name in _LIBRARY]
    assert bound == sorted(sdlwr.__all__)
    assert set(bound) | set(_LIBRARY) | {"__all__"} <= set(listed)
    assert set(bound) | {"__all__"} <= set(kept)
