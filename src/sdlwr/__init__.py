"""Kinematic-wave traffic flow in supply-demand coordinates.

The package models road links by unimodal fundamental diagrams,
represents traffic states as (demand, supply) pairs, solves the
Riemann problem at link boundaries exactly, advances whole roads with
a Godunov finite-volume scheme, and predicts the asymptotic state of
a two-link ring road from its vehicle count alone.

Internal units: veh/km, veh/s, km, s.  Speeds are km/s internally;
the CLI converts to m/s at the boundary.
"""

# Each module's __all__ is its public interface; the package republishes
# it, so a public name is declared once.
from . import (fundamental_diagram, godunov_sim, riemann_solver,
               ring_analysis, supply_demand)
from .fundamental_diagram import *  # noqa: F401,F403
from .godunov_sim import *  # noqa: F401,F403
from .riemann_solver import *  # noqa: F401,F403
from .ring_analysis import *  # noqa: F401,F403
from .supply_demand import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *fundamental_diagram.__all__,
    *supply_demand.__all__,
    *riemann_solver.__all__,
    *godunov_sim.__all__,
    *ring_analysis.__all__,
    "__version__",
]
