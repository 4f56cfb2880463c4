"""The library surface the benchmark harness under bench/ reads: only a
traced benchmark run would otherwise notice it going missing."""

import sys
from pathlib import Path

import numpy as np
import pytest

from sdlwr import StepConfig, grid_from_segments, initial_density, interface_fluxes

_BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """The harness's ``workloads`` and ``tracing`` modules."""
    sys.path.insert(0, str(_BENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(_BENCH))
    return workloads, tracing


def _reference_ring(workloads, fam):
    spec = workloads.ring_spec(fam)
    dx = workloads.RING_L / workloads.RING_CELLS
    n1 = round(spec.L1 / dx)
    return grid_from_segments(
        [(spec.fd1, n1), (spec.fd2, workloads.RING_CELLS - n1)], dx,
        rho=initial_density(spec, 28.0, workloads.RING_AMPLITUDE))


def test_count_groups_reads_per_cell_diagrams(bench):
    workloads, tracing = bench
    fam = tracing.Families()
    ring = _reference_ring(workloads, fam)
    assert ring.n == 600
    assert workloads.count_groups(ring.fds) == 2
    corridor = workloads.Corridor(_BENCH.parent, 1, fam, None).grid
    assert len(corridor.segments) == 48
    assert workloads.count_groups(corridor.fds) == 48


def test_interface_fluxes_takes_its_config_by_position(bench):
    workloads, tracing = bench
    fam = tracing.Families()
    cfg = StepConfig(workloads.RING_DT)
    for grid in (_reference_ring(workloads, fam),
                 workloads.Corridor(_BENCH.parent, 1, fam, None).grid):
        assert np.array_equal(interface_fluxes(grid, cfg, 0.0),
                              interface_fluxes(grid, cfg=cfg, t=0.0))
