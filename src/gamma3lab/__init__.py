"""Desk-scale verification lab for third-logarithmic-coefficient bounds.

Three subclasses of close-to-convex functions, cut out by the generators
1-z, 1-z^2 and 1-z+z^2, admit closed |gamma_3| bounds obtained by
maximizing a bivariate objective over the feasibility region of Schwarz
coefficient moduli.  This package reproduces every step numerically:
truncated series arithmetic and the series logarithm, Schwarz-function
witnesses as Blaschke products, the gamma_3 closed forms checked against
the series logarithm, the constrained maximization with dense-grid
certification, and a Schur-coordinate search that brackets the proved
bounds from below.
"""

from .config import DEFAULT_ORDER, TOL, Tolerances, VerificationFailed
from .series import NotNormalized, TruncatedSeries, antiderivative, log_over_z
from .schwarz import (
    BlaschkeBatch,
    BlaschkeProduct,
    SchwarzTriple,
    ZeroOutsideDisk,
    carlson_check,
    sample_blocks,
    schur_triple,
    schur_witness,
    taylor_of_blaschke,
    triple_of_blaschke,
)
from .families import (
    F1,
    F2,
    F3,
    FAMILIES,
    Family,
    family_by_tag,
    gamma3_closed_form,
    gamma_sequence,
    identity_series,
    koebe_series,
    member_series,
    milin_functional,
)
from .objective import value_xy
from .optimize import (
    EDGES,
    BoundReport,
    CertificationMismatch,
    UnknownEdge,
    edge_maximum,
    global_bound,
    interior_critical_points,
)
from .search import (
    REMARK_VALUES,
    SearchResult,
    WitnessMismatch,
    search_lower_bound,
)

__version__ = "0.1.0"
