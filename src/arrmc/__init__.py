"""Hyperplane arrangements with a good line and middle convolution.

Exact combinatorics and linear algebra over the rationals for arrangements
and logarithmic Pfaffian systems with constant coefficients, the additive
and multiplicative middle convolution functors, and a numeric monodromy
layer that cross-validates their compatibility on fiber lines.
"""

from .arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionPoset,
    LineDirection,
    build_intersection_poset,
    cone,
    decone,
    fiber_points,
    goodness_fiber_oracle,
    is_good_line,
)
from .convolution import (
    ConvolutionResult,
    convolve,
    is_isomorphic,
    kernel_subspaces,
    middle_convolve,
    verify_composition_law,
)
from .errors import (
    ArrmcError,
    AssumptionFail,
    DimensionMismatch,
    InputError,
    InternalError,
    NonIntegrableInput,
    NotGoodLine,
    NumericError,
    ParameterIntegral,
    PropertyFailure,
    SingularInput,
    StarConditionsFail,
    StepUnderflow,
    ToleranceNotMet,
    TrivialCharacter,
)
from .fuchsian import FuchsianODE, LoopPath
from .katz import (
    CharacterValue,
    MonodromyTuple,
    check_property_p,
    multiplicative_middle_convolution,
    tuple_isomorphism,
)
from .monodromy import (
    monodromy_tuple_of_system,
    transport_along_loop,
    verify_mc_compatibility,
)
from .pfaffian import (
    ConvolutionParameter,
    PfaffianSystem,
    check_assumption_generic,
    check_integrability,
    check_star_conditions,
    fiber_restriction,
)

__all__ = [
    "Arrangement",
    "ArrmcError",
    "AssumptionFail",
    "CharacterValue",
    "ConvolutionParameter",
    "ConvolutionResult",
    "DimensionMismatch",
    "Flat",
    "FuchsianODE",
    "Hyperplane",
    "InputError",
    "InternalError",
    "IntersectionPoset",
    "LineDirection",
    "LoopPath",
    "MonodromyTuple",
    "NonIntegrableInput",
    "NotGoodLine",
    "NumericError",
    "ParameterIntegral",
    "PfaffianSystem",
    "PropertyFailure",
    "SingularInput",
    "StarConditionsFail",
    "StepUnderflow",
    "ToleranceNotMet",
    "TrivialCharacter",
    "build_intersection_poset",
    "check_assumption_generic",
    "check_integrability",
    "check_property_p",
    "check_star_conditions",
    "cone",
    "convolve",
    "decone",
    "fiber_points",
    "fiber_restriction",
    "goodness_fiber_oracle",
    "is_good_line",
    "is_isomorphic",
    "kernel_subspaces",
    "middle_convolve",
    "monodromy_tuple_of_system",
    "multiplicative_middle_convolution",
    "transport_along_loop",
    "tuple_isomorphism",
    "verify_composition_law",
    "verify_mc_compatibility",
]

__version__ = "0.1.0"
