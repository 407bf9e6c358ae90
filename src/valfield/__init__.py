"""Exact arithmetic in valued fields at finite precision.

Layers: finite fields, truncated Laurent series, exact finite extensions
of Q_p, rank-2 composite series; on top of them Newton polygons,
additive-polynomial decomposition, the alpha-bound best-approximation
solver, extremality searches, and machine-checkable certificates.
"""

from .additive import (
    AdditivePolynomial,
    Decomposition,
    OapResult,
    PPolynomial,
    additive_from_multipoly,
    alpha_bound,
    decompose,
    decomposition_image_agrees,
    oap_solve,
)
from .certificates import (
    FundEqCertificate,
    StepRecord,
    TmcneCertificate,
    verify_tmcne,
)
from .composite import CompositeElement, CompositeField
from .errors import (
    BudgetExceededError,
    CertificationError,
    DescriptorMismatchError,
    IndeterminateValuationError,
    ParseError,
    PrecisionError,
    RankMismatchError,
    ValfieldError,
)
from .extremality import (
    Ball,
    CompositeCheckReport,
    SearchResult,
    ball_transfer,
    check_vexbarwex,
    composite_extremal_search,
    extremal_search,
    valuation_multiset,
)
from .finite_field import FFElement, FiniteFieldDescriptor, parse_field, prime_field
from .laurent import (
    LaurentField,
    LaurentSeries,
    ValuationResult,
    artin_schreier_solve,
    hensel_lift,
    parse_series,
)
from .padic import (
    PAdicExtRing,
    ext_valuation,
    fundamental_equality_data,
)
from .parsing import parse_any_field, parse_ball, parse_int_poly, parse_poly
from .polygon import NewtonPolygon, newton_polygon_from_valuations
from .polynomials import MultiPoly
from .value_group import INFINITY, Value

__version__ = "0.1.0"
