"""Kinematic-wave traffic flow in supply-demand coordinates.

The package models road links by unimodal fundamental diagrams,
represents traffic states as (demand, supply) pairs, solves the
Riemann problem at link boundaries exactly, advances whole roads with
a Godunov finite-volume scheme, and predicts the asymptotic state of
a two-link ring road from its vehicle count alone.

Internal units: veh/km, veh/s, km, s.  Speeds are km/s internally;
the CLI converts to m/s at the boundary.
"""

from functools import cache
from importlib import import_module

__version__ = "0.1.0"

# Each module's __all__ is its public interface; the package republishes
# it, so a public name is declared once.  Nothing is imported until a
# name is first read (PEP 562): ``import sdlwr`` loads no module of the
# library, and each CLI subcommand loads only the modules it runs.
_MODULES = ("fundamental_diagram", "supply_demand", "riemann_solver",
            "godunov_sim", "ring_analysis")


@cache
def _owners() -> dict[str, str]:
    """Each public name -> its module, in ``__all__`` order."""
    return {name: module for module in _MODULES
            for name in import_module(f".{module}", __name__).__all__}


def __getattr__(name: str):
    if name in _MODULES:
        value = import_module(f".{name}", __name__)
    elif name == "__all__":
        value = [*_owners(), "__version__"]
    elif name in _owners():
        value = getattr(import_module(f".{_owners()[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # read once; later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_owners(), "__all__"})
