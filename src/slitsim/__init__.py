"""Two-slit interference wave functions and Bohmian trajectories.

Three routes to the same physics: closed-form Gaussian-packet solutions
(`analytic`), direct real/imaginary-split Schrodinger integration
(`fd_solver` + `bohm`), and the quantum-hydrodynamic formulation with
moving weighted least squares derivatives (`mwls` + `hydro_solver`).
The `cli` module runs configured scenarios and compares everything
against the exact oracle.
"""

from .core import (ComplexField, MwlsConfig, ScenarioConfig, UniformGrid,
                   WavePacketParams, norm)
from .errors import (ConfigError, GridTooSmall, IllConditioned, NodeError,
                     OutsideGrid, SlitsimError, TooFewPoints)

__all__ = [
    "ComplexField", "MwlsConfig", "ScenarioConfig", "UniformGrid",
    "WavePacketParams", "norm",
    "ConfigError", "GridTooSmall", "IllConditioned", "NodeError",
    "OutsideGrid", "SlitsimError", "TooFewPoints",
]
