"""braidax: braid words, exchange-move families, axis-addition links, and
truncated Conway polynomial coefficients in exact integer arithmetic."""

from .words import (
    Admissibility,
    BraidWord,
    CriterionVerdict,
    CycleDecomposition,
    ExchangeForm,
    Permutation,
    WordError,
    admits_exchange,
    canonical_joint_cycle_braid,
    canonical_odd_knot_braid,
    canonical_split_cycle_braid,
    compose,
    cycle_decomposition,
    cyclic_free_reduce,
    delete_component,
    exchange_split,
    exponent_sum,
    family_member,
    free_reduce,
    inverse,
    kappa_word,
    mirror,
    nonconjugacy_criterion,
    parse_word,
    permutation_of,
    square,
    strand_linking,
)
from .diagram import (
    DiagramError,
    LinkDiagram,
    axis_link_diagram,
    axis_word,
    closure_diagram,
    component_count,
    linking_matrix,
)
from .conway import (
    ConwayError,
    SkeinEngine,
    TruncatedPoly,
    conway_truncated,
    full_conway,
    hoste_lowest,
)
from .burau import (
    LaurentPoly,
    OracleError,
    conway_matches_alexander,
    conway_polynomial,
)
from .experiments import (
    CoefficientSequence,
    ExperimentError,
    ExperimentReport,
    FitError,
    PolynomialFit,
    axis_sequence,
    corpus_check,
    fit_polynomial,
    joint_cycle_check,
    load_corpus,
    progression_check,
    second_difference_target,
    squared_family_check,
    two_cycle_check,
)
from .kernels import get_kernels

__version__ = "0.1.0"
