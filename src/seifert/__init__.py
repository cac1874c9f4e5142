"""Seifert fibre spaces: canonical forms, complexity bounds, census tools.

The ``census`` module, and the names below that it defines, load on
first use, so a process that never asks for them does not compile it.
"""

from .complexity import (
    conjectured_complexity,
    sharper_bound_note,
    upper_bound,
    zero_complexity_corollary_check,
)
from .core import (
    ORIENTABLE_AWAY_FROM_SE,
    BoundaryProfile,
    CaseTag,
    ComplexityBound,
    Epsilon,
    FibredSolidTorusType,
    NormalizedSeifertParams,
    OrbifoldSummary,
    SeifertParams,
    boundary_profile,
    cf_sum,
    euler_char_base,
    is_closed,
    is_orientable,
    orbifold_summary,
    validate,
)
from .normal_form import (
    absorb_unit_pairs,
    equivalent,
    from_burton,
    insert_unit_pair,
    mirror,
    normalize,
    reflect_pair,
    reverse_orientation,
    solid_torus_equivalent,
    twist,
)
from .notation import ParseError, format_params, parse_params

__all__ = [
    "BoundaryProfile",
    "CaseTag",
    "CensusFormatError",
    "CensusRecord",
    "ComparisonReport",
    "ComparisonRow",
    "ComplexityBound",
    "Epsilon",
    "FibredSolidTorusType",
    "NormalizedSeifertParams",
    "ORIENTABLE_AWAY_FROM_SE",
    "OrbifoldSummary",
    "ParseError",
    "SeifertParams",
    "absorb_unit_pairs",
    "boundary_profile",
    "cf_sum",
    "compare",
    "conjectured_complexity",
    "enumerate_nonorientable_closed",
    "enumerate_pairs_by_budget",
    "equivalent",
    "euler_char_base",
    "format_params",
    "from_burton",
    "ingest_census",
    "insert_unit_pair",
    "is_closed",
    "is_orientable",
    "mirror",
    "normalize",
    "orbifold_summary",
    "parse_params",
    "reflect_pair",
    "reverse_orientation",
    "sharper_bound_note",
    "solid_torus_equivalent",
    "twist",
    "upper_bound",
    "validate",
    "zero_complexity_corollary_check",
]

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
