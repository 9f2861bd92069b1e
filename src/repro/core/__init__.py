"""MUSS-TI: the paper's primary contribution.

Multi-level shuttle scheduling with executable-first gate selection, LRU
conflict handling, weight-table SWAP insertion and SABRE two-fold initial
mapping.  The scheduler itself is the array core
(:mod:`repro.core.arraycore`), which the scheduling pass calls for the
final schedule and for both SABRE warm-ups; :class:`MachineState` is the
grid baselines' state and not on the MUSS-TI path.
"""

from .compiler import MussTiCompiler
from .config import MussTiConfig
from .mapping import sabre_placement, trivial_placement
from .optimal import OptimalSearchError, minimum_shuttles
from .state import MachineState, RoutingError

__all__ = [
    "MachineState",
    "MussTiCompiler",
    "MussTiConfig",
    "OptimalSearchError",
    "RoutingError",
    "minimum_shuttles",
    "sabre_placement",
    "trivial_placement",
]
