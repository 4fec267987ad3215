"""Photon transport and state transfer in a cavity array with square-root
couplings J_k = J*sqrt(k).

Layers: `model` (configs and Hamiltonians), `dynamics` (exact single-excitation
evolution), `analytics` (closed forms for the resonant walk), `protocol`
(degenerate-doublet transfer plans), `open_system` (uniform-loss master
equation), `cli` (figure-ready tables). Each layer's `__all__` is its public
API; the package re-exports those of every layer but `cli`.
"""

__version__ = "0.1.0"

from . import errors, model, dynamics, analytics, protocol, open_system
from .errors import *
from .model import *
from .dynamics import *
from .analytics import *
from .protocol import *
from .open_system import *

__all__ = ["__version__", *errors.__all__, *model.__all__, *dynamics.__all__,
           *analytics.__all__, *protocol.__all__, *open_system.__all__]
