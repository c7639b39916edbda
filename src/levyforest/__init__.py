"""levyforest: a desk-scale laboratory for the genealogy of branching processes.

Simulates spectrally positive Levy processes on a grid, computes their height
processes and local times with explicit stack/scan algorithms, simulates the
matching continuous-state branching flows, and statistically cross-checks the
local-time laws of stopped paths against the exact branching-process oracles.
"""

from .cb_flow import simulate_cb
from .errors import ConfigurationError, PreconditionError
from .exploration import ExplorationStack, height_trajectory
from .mechanism import (
    BranchingMechanism,
    JumpMeasure,
    PowerLawTail,
    mechanism_from_config,
    mechanism_to_config,
)
from .paths import LevyPath, SimConfig, sample_path

__all__ = [
    "BranchingMechanism",
    "JumpMeasure",
    "PowerLawTail",
    "ConfigurationError",
    "PreconditionError",
    "ExplorationStack",
    "LevyPath",
    "SimConfig",
    "mechanism_from_config",
    "mechanism_to_config",
    "sample_path",
    "height_trajectory",
    "simulate_cb",
]
