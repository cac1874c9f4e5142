"""Seifert fibre spaces: canonical forms, complexity bounds, census tools.

Each module's ``__all__`` lists its public names, and this package
re-exports them.  The ``census`` module, and the names below that it
defines, load on first use, so a process that never asks for them does
not compile it.
"""

from . import complexity, core, normal_form, notation
from .complexity import *
from .core import *
from .normal_form import *
from .notation import *

__version__ = "0.1.0"

_CENSUS_NAMES = frozenset({
    "CensusFormatError",
    "CensusRecord",
    "ComparisonReport",
    "ComparisonRow",
    "compare",
    "enumerate_nonorientable_closed",
    "enumerate_pairs_by_budget",
    "ingest_census",
})

__all__ = sorted({*complexity.__all__, *core.__all__, *normal_form.__all__,
                  *notation.__all__, *_CENSUS_NAMES})


def __getattr__(name):
    # called only for a name the module does not bind: the census names,
    # and the census module itself until it is first imported
    if name == "census" or name in _CENSUS_NAMES:
        from importlib import import_module

        census = import_module(".census", __name__)
        return census if name == "census" else getattr(census, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _CENSUS_NAMES | {"census"})
