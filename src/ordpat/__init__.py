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

from types import ModuleType as _ModuleType

from .dependence import (
    ClassSeries,
    DependenceEstimates,
    DependenceReport,
    VarianceEstimate,
    analyze_pair,
    classical_dependence,
    confidence_interval,
    dependence_estimates,
    long_run_variance,
    standardized_coefficient,
)
from .exceptions import DataFormatError, NumericalWarning
from .io import (
    FLOOD_CLASSES,
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
from .simulate import IngarchSpec, simulate_ingarch
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

# every public binding above, in sorted order
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
