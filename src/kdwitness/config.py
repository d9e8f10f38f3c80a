"""Central numerical tolerances.

Per call, keyword arguments override only the base tolerance ``BASE_TOL``
as the ``eps`` of the support counts and the incompatibility decision, and
the feasibility tolerance of a hull-membership query (``hull --tol``, no
lower than ``MEMBERSHIP_TOL_FLOOR``). Everything else is fixed: the base
tolerance of validation and positivity, the facet active and match
tolerances, the margin factor, the rank, null-space, null-ray, phase, weight and
exactness cutoffs, the minor floor and count limit, the roof tolerances,
the facet rank cutoffs, subset limit and side-test entry limit, the simplex
pivot tolerance, Bland ratio-tie window, Farkas slack and re-check slacks,
the hull certificates' weight and functional thresholds, the
eigendecomposition checks, and the cache sizes ``BASIS_CACHE_SIZE`` and
``MATRIX_FILE_CACHE_SIZE``.
"""

import sys

# Base tolerance for validation, positivity, and support-count thresholds.
BASE_TOL = 1e-9

# Feasibility tolerance of the hull-membership linear programs.
FEASIBILITY_TOL = 1e-8

# A hull-membership query refuses a feasibility tolerance below this. Near
# rounding level, phase one can leave rounding-size artificial mass that the
# tolerance reads as infeasibility, and an inside target then fails its Farkas
# check: at 1e-16 on the uniform d = 3 state over the first six spin-1
# projectors, and up to 3e-15 (about 14 eps) on 328 seeded Haar mixtures at
# d = 3..7. The floor, about 2.2e-13, leaves a factor of 70 above that.
MEMBERSHIP_TOL_FLOOR = 1000.0 * sys.float_info.epsilon

# An "outside" verdict requires margin > MARGIN_FACTOR * feasibility tol.
MARGIN_FACTOR = 10.0

# complete_incompatibility rejects an eps below d times this: a smaller
# minor of a d x d unitary cannot be told apart from zero in float64.
MINOR_EPS_FLOOR_PER_DIM = 10.0 * sys.float_info.epsilon

# complete_incompatibility checks all C(2d, d) - 1 minors of a d x d matrix
# and refuses more than this many: C(16, 8) - 1, the d = 8 count, about 1 ms
# on a Haar basis and 6 ms on the identity (2-vCPU Xeon VM).
MAX_MINORS = 12_869

# Each per-basis cache (the minor search, the enumeration's pattern solve,
# the support roof's subspaces and the roofs' hull anchors) keeps this many
# results for reuse; the least recently used is dropped first. Cached
# results stay resident: at d = 6 the first two take about 0.16 MB per
# matrix, and the anchors (the projector points of the 792 minimal states,
# and the 12 KD-positive ones with theirs) about 0.23 MB more.
BASIS_CACHE_SIZE = 4

# load_matrix_file parses and validates each distinct file content once and
# keeps this many results; the least recently used is dropped first. A
# session on the spin-1 system reads 17 files again and again: the basis,
# the 15 generators and the state of the moment, which a hull command reads
# with the generators. The rest holds the states of the commands around
# them. Each entry keeps the file's bytes and its array
# resident: about 0.9 kB for a d = 3 file, 3.4 kB at d = 6, 0.4 MB at d = 64.
MATRIX_FILE_CACHE_SIZE = 32

# A generator lies on a facet's hyperplane within this distance.
FACET_ACTIVE_TOL = 1e-7

# Two facets are identified when their normal forms agree to this tolerance.
FACET_MATCH_TOL = 1e-7

# In facet enumeration, a singular value of the generator set (its affine
# rank) or of a subset's spanning rows (whether it spans a hyperplane)
# counts above max(FACET_RANK_ABS_CUTOFF, FACET_RANK_REL_CUTOFF * largest).
FACET_RANK_ABS_CUTOFF = 1e-12
FACET_RANK_REL_CUTOFF = 1e-9

# Facet enumeration refuses more subsets C(n, affine rank) than this before
# it tries either path. Its subset search tests each, at about 22 us for
# generic d = 3 projectors on a 2-vCPU Xeon VM with BLAS on one thread (the
# 125 970 subsets of 20 take 2.8 s, the limit about 4.5 s); gift wrapping
# takes 30-60 ms on such sets of 18 to 24, but a set it gives up on pays both.
MAX_FACET_SUBSETS = 200_000

# Each tested subset's side test reads every one of the n points, so facet
# enumeration also refuses more than this many side-test entries,
# C(n, affine rank) * n: 2**24, the count of 4096 points on a line, which
# take about 0.2 s on a 2-vCPU Xeon VM; 20 000 such points would take seconds.
MAX_FACET_SIDE_ENTRIES = 1 << 24

# The simplex treats entries of B^-1 A and reduced costs of at most this
# modulus as zero when choosing pivots.
PIVOT_TOL = 1e-10

# Bland's leaving-row rule treats two ratio-test ratios within this of each
# other as tied, and then takes the row whose basic variable has the lower index.
BLAND_TIE_TOL = 1e-14

# An infeasibility certificate y may have y @ A above zero by at most this.
FARKAS_SLACK_TOL = 1e-6

# An optimal simplex result has |A @ x - b| <= feasibility tol + LP_PRIMAL_TOL
# and x >= -LP_PRIMAL_TOL; with costs c, the duals y solved on its final basis
# have reduced costs c - y @ A >= -LP_DUAL_TOL.
LP_PRIMAL_TOL = 1e-9
LP_DUAL_TOL = 1e-7

# A hull-membership inside certificate's weights may fall below zero by at
# most INSIDE_WEIGHT_SLACK and must sum to one within INSIDE_WEIGHT_SUM_TOL.
INSIDE_WEIGHT_SLACK = 1e-12
INSIDE_WEIGHT_SUM_TOL = 1e-10

# An outside certificate's separating functional of norm below this counts as
# zero; a Hermitian one is rescaled to trace one only when its trace exceeds
# FUNCTIONAL_TRACE_FLOOR, and is otherwise reported at unit Frobenius norm.
FUNCTIONAL_ZERO_NORM = 1e-14
FUNCTIONAL_TRACE_FLOOR = 1e-6

# hermitian_eig's decomposition must reproduce its matrix within
# EIG_RECONSTRUCTION_TOL * (1 + ||H||_F) and its eigenvectors must be
# orthonormal within EIG_ORTHONORMAL_TOL, both in Frobenius norm.
EIG_RECONSTRUCTION_TOL = 1e-10
EIG_ORTHONORMAL_TOL = 1e-10

# Eigenvalue cutoff defining the rank used by decomposition searches.
RANK_CUTOFF = 1e-10

# A singular value of an enumeration constraint system that gets an SVD
# counts towards its rank above max(NULL_SPACE_ABS_CUTOFF,
# NULL_SPACE_REL_CUTOFF * largest). The enumeration reads a pattern's state
# off U's minors (its system's cofactors) instead where Cauchy-Binet puts the
# least singular value above twice that cutoff, so that the null space has
# dimension one: on a completely incompatible pair, whose minors all exceed
# BASE_TOL, it does for every pattern.
NULL_SPACE_ABS_CUTOFF = 1e-12
NULL_SPACE_REL_CUTOFF = 1e-10

# A state read off the minors is kept when it is provably within sine
# NULL_RAY_TOL of its exact null ray. Its amplitudes and overlaps (U unitary)
# then each move by about that much at most, a thousandth of BASE_TOL, so its
# supports read at BASE_TOL are the exact ray's unless one lies that close to
# the threshold. The bound reached 3e-14 at d = 6 and 7.5e-13 at d = 8 on 200
# Haar bases per dimension.
NULL_RAY_TOL = 1e-12

# Amplitudes at or below this are skipped when fixing a state's global phase.
PHASE_ZERO_TOL = 1e-12

# Ensemble members with weight at or below this are dropped.
WEIGHT_CUTOFF = 1e-12

# Upper and lower roof bounds closing within this gap are reported exact.
EXACT_GAP_TOL = 1e-6

# A decomposition's weights sum to the state's trace within this, and its
# density matrix reproduces the state within this Frobenius distance.
WEIGHT_SUM_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8

# A roof estimate's lower bound may exceed its upper bound by at most this.
ROOF_ORDER_SLACK = 1e-8

# A searched roof upper bound must equal its decomposition's recomputed objective
# within this, and a dual bound the value of its fresh pass over every subspace.
ROOF_RECHECK_TOL = 1e-9

# An isometry's columns are orthonormal within this Frobenius distance.
ISOMETRY_TOL = 1e-9

# Anchor states (and pricing draws) with less weight than this in the range of the
# state are left out of the annealer's anchor moves and the pricer's dictionary.
ANCHOR_RANGE_CUTOFF = 1e-12

# A state whose total nonpositivity is at most 1 + this can get a strict
# nonpositivity-roof certificate from a hull exclusion.
NONPOSITIVITY_STRICT_SLACK = 2e-9

