"""qcvx: exact quasiconvexity analysis for piecewise function models.

Decides quasiconvexity of extended-real-valued functions on intervals and
segments, decomposes the set of violations into maximal open intervals,
extracts paired-maxima certificates of non-quasiconvexity, and
cross-validates every exact analysis against a brute-force grid oracle.
"""

from .core import (
    MINUS_INF,
    PLUS_INF,
    Point,
    Segment,
    XReal,
    as_rational,
    format_rational,
    parse_rational,
    segment_point,
    xreal_max,
)
from .certificates import (
    CertificateChecks,
    LocalMaximum,
    LocalShape,
    MaximaHypothesisResult,
    PairedMaximaCertificate,
    Revalidation,
    check_no_strict_sided_maxima,
    enumerate_local_maxima,
    local_quasiconvexity_at,
    paired_maxima_certificate,
    revalidate_certificate,
)
from .functions import (
    Blackbox,
    ClosedSet1D,
    Function1D,
    PiecewiseConstant,
    PiecewiseLinear,
    SemicontinuityReport,
    Tabulated,
    argmax_set,
    check_semicontinuity,
    function_from_dict,
    function_to_dict,
    generate_cantor,
    infimum_on,
    restrict_to_segment,
    supremum_on,
)
from .intervals import OpenInterval, OpenIntervalSet, normalize
from .oracle import (
    DiffReport,
    GridInfo,
    OracleVerdict,
    ViolatingTriple,
    build_grid,
    diff_report,
    oracle_quasiconvex,
    oracle_violation_set,
)
from .violations import (
    ComponentCheck,
    PairAnalysis,
    QuasiconvexityVerdict,
    ViolationDecomposition,
    analyze_pairs,
    convexity_violation_set,
    interior_witness_exists,
    is_quasiconvex,
    verify_chord_components,
    verify_component_property,
    violation_set,
)
from . import corpus, errors

__version__ = "0.1.0"
