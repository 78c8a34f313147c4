"""Generalized ordinal pattern analysis for time series with ties.

Ties are encoded, not discarded: a data window maps to its dense rank
vector, so the pattern space of length n has Fubini(n) elements and
constant or plateau stretches keep their identity. On top of that sit a
shift-invariant pattern metric, weighted dependence estimators between
series pairs with asymptotic confidence intervals, cross-sectional
pattern significance analysis, seeded count-process simulation, and the
classical tie-handling baselines for comparison.
"""

__version__ = "0.1.0"

from .dependence import (
    ClassSeries,
    DependenceEstimates,
    DependenceReport,
    VarianceEstimate,
    analyze_pair,
    anti_estimates,
    classical_dependence,
    classical_total_score,
    coincidence_probability,
    comparison_value,
    confidence_interval,
    dependence_estimates,
    long_run_variance,
    score_comparison_value,
    standardized_coefficient,
    total_score,
)
from .exceptions import DataFormatError, NumericalWarning
from .io import (
    AnalysisConfig,
    FLOOD_CLASSES,
    FloodClassBoundaries,
    classify_peak,
    load_class_matrix,
    save_class_matrix,
)
from .metric import (
    CLASSICAL_LONG,
    CLASSICAL_SHORT,
    EXACT,
    GENERALIZED_LONG,
    GENERALIZED_SHORT,
    SCHEMES,
    WeightScheme,
    get_scheme,
    l1_distance,
    pattern_distance,
    scheme_for_length,
    score,
)
from .patterns import (
    PatternTable,
    TiePolicy,
    encode_pattern,
    encode_permutation,
    enumerate_patterns,
    fubini,
)
from .simulate import CoherenceSummary, IngarchSpec, coherence_benchmark, simulate_ingarch
from .spatial import (
    ClassMatrix,
    SpatialReport,
    analyze_spatial,
    baseline_frequencies,
    cramers_v,
    cramers_v_autocorrelation,
    pattern_frequencies,
    spatial_encode,
    spatial_significance,
)

__all__ = [
    "AnalysisConfig",
    "CLASSICAL_LONG",
    "CLASSICAL_SHORT",
    "ClassMatrix",
    "ClassSeries",
    "CoherenceSummary",
    "DataFormatError",
    "DependenceEstimates",
    "DependenceReport",
    "EXACT",
    "FLOOD_CLASSES",
    "FloodClassBoundaries",
    "GENERALIZED_LONG",
    "GENERALIZED_SHORT",
    "IngarchSpec",
    "NumericalWarning",
    "PatternTable",
    "SCHEMES",
    "SpatialReport",
    "TiePolicy",
    "VarianceEstimate",
    "WeightScheme",
    "analyze_pair",
    "analyze_spatial",
    "anti_estimates",
    "baseline_frequencies",
    "classical_dependence",
    "classical_total_score",
    "classify_peak",
    "coherence_benchmark",
    "coincidence_probability",
    "comparison_value",
    "confidence_interval",
    "cramers_v",
    "cramers_v_autocorrelation",
    "dependence_estimates",
    "encode_pattern",
    "encode_permutation",
    "enumerate_patterns",
    "fubini",
    "get_scheme",
    "l1_distance",
    "load_class_matrix",
    "long_run_variance",
    "pattern_distance",
    "pattern_frequencies",
    "save_class_matrix",
    "scheme_for_length",
    "score",
    "score_comparison_value",
    "simulate_ingarch",
    "spatial_encode",
    "spatial_significance",
    "standardized_coefficient",
    "total_score",
]
