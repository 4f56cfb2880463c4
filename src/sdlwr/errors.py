"""The package's two error types that the command line reports.

They live apart from ``godunov_sim``, which raises them and republishes
them, so that a process that only parses a config and solves a Riemann
problem can catch them without loading the simulator.
"""


class ConfigError(ValueError):
    """Invalid run configuration (CFL violation, bad boundary data...)."""


class SimulationDiverged(ValueError):
    """A march left [0, rho_jam]: ``density`` (veh/km) in ``cell`` after
    ``step`` steps."""

    def __init__(self, message: str, step: int, cell: int, density: float):
        super().__init__(message)
        self.step, self.cell, self.density = step, cell, density
