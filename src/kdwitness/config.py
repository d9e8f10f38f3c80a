"""Central numerical tolerances.

Keyword arguments override the base, feasibility, dedup and facet-match
defaults per call, and ``KD_DEFAULT_TOL`` overrides the base one globally;
the margin factor, the rank, null-space, phase, weight and exactness
cutoffs are fixed.
"""

import os

from .errors import ValidationError

# Base tolerance for validation, positivity, and support-count thresholds.
BASE_TOL = 1e-9

# Feasibility tolerance of the hull-membership linear programs.
FEASIBILITY_TOL = 1e-8

# An "outside" verdict requires margin > MARGIN_FACTOR * feasibility tol.
MARGIN_FACTOR = 10.0

# Global-phase deduplication tolerance for enumerated pure states.
STATE_DEDUP_TOL = 1e-8

# Two facets are identified when their normal forms agree to this tolerance.
FACET_MATCH_TOL = 1e-7

# Eigenvalue cutoff defining the rank used by decomposition searches.
RANK_CUTOFF = 1e-10

# A singular value of an enumeration constraint system counts towards its
# rank above max(NULL_SPACE_ABS_CUTOFF, NULL_SPACE_REL_CUTOFF * largest).
NULL_SPACE_ABS_CUTOFF = 1e-12
NULL_SPACE_REL_CUTOFF = 1e-10

# Amplitudes at or below this are skipped when fixing a state's global phase.
PHASE_ZERO_TOL = 1e-12

# Ensemble members with weight at or below this are dropped.
WEIGHT_CUTOFF = 1e-12

# Upper and lower roof bounds closing within this gap are reported exact.
EXACT_GAP_TOL = 1e-6


def default_tol() -> float:
    """Base tolerance, honouring the KD_DEFAULT_TOL environment override."""
    raw = os.environ.get("KD_DEFAULT_TOL")
    if raw is None:
        return BASE_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"KD_DEFAULT_TOL is not a number: {raw!r}") from None
    if value < 0.0:
        raise ValidationError(f"KD_DEFAULT_TOL must be nonnegative, got {value}")
    return value
