"""Transient distributions, moments and cross-checking oracles for
birth-death chains whose jump rate alternates with the parity of the state,
on the full integer lattice and reflected at zero.

The package republishes the public names of its modules, each module's
`__all__` in turn."""

from . import bilateral, oracle, reflecting, specfun
from .specfun import *
from .bilateral import *
from .reflecting import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [*specfun.__all__, *bilateral.__all__, *reflecting.__all__, *oracle.__all__]
