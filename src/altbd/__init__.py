"""Transient distributions, moments and cross-checking oracles for
birth-death chains whose jump rate alternates with the parity of the state,
on the full integer lattice and reflected at zero.

The package republishes the public names of its modules, each module's
`__all__` in turn.  `oracle` and its names load on first use, through the
module `__getattr__`, since `oracle` alone needs numpy: `import altbd.cli`
stays free of it."""

import importlib

from . import bilateral, reflecting, specfun
from .specfun import *
from .bilateral import *
from .reflecting import *

__version__ = "0.1.0"

# `oracle.__all__`, kept here so that listing the names does not import the module
_ORACLE_NAMES = (
    "TruncatedChain",
    "SimConfig",
    "SimResult",
    "uniformize",
    "transient_distribution",
    "default_window",
    "simulate",
    "invert_laplace",
)

__all__ = [*specfun.__all__, *bilateral.__all__, *reflecting.__all__, *_ORACLE_NAMES]


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(f"{__name__}.oracle")  # `from . import` would ask this hook again
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
