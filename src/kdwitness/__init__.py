"""Kirkwood-Dirac quasiprobability tables, positivity witnesses, and
convex-roof certificates for finite-dimensional states."""

from .errors import (
    CertificateError,
    DegenerateHull,
    DimensionMismatch,
    DimensionTooLarge,
    IndeterminateMembership,
    KDError,
    MatrixFileError,
    NoConvergence,
    NotCompletelyIncompatible,
    NotHermitian,
    NotIsometry,
    OutOfRange,
    OutsideHull,
    ShapeMismatch,
    SolverStall,
    UsageError,
    ValidationError,
)
from .geometry import (
    Facet,
    MembershipCertificate,
    facet_enumeration,
    finite_convex_roof,
    hermitian_to_real,
    membership_lp,
    real_to_hermitian,
)
from .incompatibility import (
    IncompatibilityReport,
    SupportCount,
    complete_incompatibility,
    support_counts_mixed,
    support_counts_pure,
)
from .kd import (
    KDTable,
    is_kd_positive,
    kd_table,
    min_overlap,
    total_nonpositivity,
    worst_entry,
)
from .linalg import (
    EigenDecomposition,
    haar_unitary,
    hermitian_eig,
    projector,
)
from .pure_positive import (
    PureStateList,
    SupportPattern,
    enumerate_min_uncertainty_states,
    filter_kd_positive_pure,
    phase_invariant_distance,
)
from .roof import (
    AnnealConfig,
    Decomposition,
    RoofEstimate,
    decomposition_from_isometry,
    nonpositivity_roof_bounds,
    roof_upper_bound,
    support_roof_bounds,
)
from .spin1 import (
    SPIN1,
    Spin1Fixture,
    Spin1Report,
    rho_lambda,
    rho_lambda_eigenvalues,
    run_spin1_checks,
)
from .studies import dft_matrix, haar_genericity_study

__version__ = "0.1.0"
