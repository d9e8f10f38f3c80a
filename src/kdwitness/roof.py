"""Convex-roof bounds over pure-state decompositions.

Every upper bound on a roof of a state of rank two or more that the hull
does not decide comes from one column generation: priced over the support
subspaces V_{S,T} (amplitudes only on S and T in the two bases) for the
support roof, whose duals W give the lower bound Tr(W rho) + min (|S| + |T| -
lambda_max(W on V_{S,T})), and heuristically for the nonpositivity roof,
whose pricing dictionary holds the KD-positive states of a hull route, if
there is one, and fixed draws; a rank-one state scores its one member. The
annealer over isometries of the eigen-ensemble (``roof_upper_bound``), which
runs its restarts one after another, is no roof's search; it stays as
objective-agnostic API. Both roofs and the annealer take the state through
``validate_density``: a matrix that is not a state is a ValidationError. The
search decomposes the eigenvalues above RANK_CUTOFF. When the rest sum to
more than WEIGHT_SUM_TOL, those are scaled to Tr rho first; when the rest
sum to less than -WEIGHT_SUM_TOL, the roof refuses the state with a
ValidationError. The hull anchors and the support subspaces are computed
once per basis (see :mod:`kdwitness.basis`), at the fixed BASE_TOL.
Lower bounds also come from convexity for the total nonpositivity, the d+1
floor of complete incompatibility for the support uncertainty, and hull
certificates for strictness. Bounds are only ever reported as bounds; the
exact flag is set when the certificates close the gap.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral

import numpy as np

from . import config
from .basis import per_basis
from .errors import (
    CertificateError,
    DimensionTooLarge,
    IndeterminateMembership,
    NotCompletelyIncompatible,
    NotIsometry,
    ShapeMismatch,
    ValidationError,
)
from .geometry import (
    INDETERMINATE,
    INSIDE,
    OUTSIDE,
    MembershipCertificate,
    _upper_pairs,
    hermitian_certificate,
    hermitian_to_real,
    membership_lp_points,
    real_to_hermitian,
)
from .incompatibility import support_counts_mixed
from .kd import kd_table, total_nonpositivity
from .linalg import (
    EigenDecomposition,
    as_complex,
    complex_gaussian,
    dagger,
    frobenius,
    hermitian_eig,
    random_isometry,
)
from .pure_positive import (
    _kd_positive_rows,
    enumerate_min_uncertainty_states,
    filter_kd_positive_pure,
)
from .simplex import OPTIMAL, solve_equality_lp
from .validation import validate_density, validate_pure_state, validate_unitary

SUPPORT_OBJECTIVE = "support_uncertainty"
NONPOSITIVITY_OBJECTIVE = "total_nonpositivity"

CERT_CONVEXITY = "convexity"
CERT_HULL = "hull_membership"
CERT_FLOOR = "incompatibility_floor"
CERT_RANK_ONE = "rank_one"


@dataclass(frozen=True)
class Decomposition:
    """Convex pure-state decomposition: weights and state rows."""

    weights: np.ndarray
    states: np.ndarray

    def density(self) -> np.ndarray:
        return (self.states.T * self.weights) @ self.states.conj()

    def validate(self, rho) -> None:
        rho = np.asarray(rho)
        trace = float(np.trace(rho).real)
        if abs(self.weights.sum() - trace) > config.WEIGHT_SUM_TOL:
            raise CertificateError(f"weights sum to {self.weights.sum()}, not Tr rho = {trace}")
        if self.weights.min() < 0.0:
            raise CertificateError(f"negative weight {self.weights.min():.3e}")
        if frobenius(self.density() - rho) > config.RECONSTRUCTION_TOL:
            raise CertificateError("decomposition does not reproduce the state")


@dataclass(frozen=True)
class AnnealConfig:
    """Size and seed of the annealer, ``roof_upper_bound``.

    No roof bound anneals, and the ``roof-*`` commands ignore their
    ``--restarts``, ``--steps`` and ``--seed``; the schedule is fixed (``T_START``,
    ``T_END``, ``PROPOSAL_SCALE``, ``SPARSIFY_PROB``), and a rank-r state is
    decomposed into r * r members, which suffices for roof-achieving
    decompositions of continuous objectives. Runs are deterministic given
    ``seed``: restart k draws from its own stream, seeded ``seed + k``, so
    it takes the same moves and reaches the same value whatever the other
    restarts do. Each field is an integer (not a bool): ``restarts`` at
    least 1, ``steps`` and ``seed`` at least 0.
    """

    restarts: int = 40
    steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, low in (("restarts", 1), ("steps", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
                raise ValidationError(f"{name} must be an integer of at least {low}, got {value!r}")


@dataclass(frozen=True)
class RoofSearchResult:
    value: float
    decomposition: Decomposition
    restart_values: tuple[float, ...] = ()  # the annealer's, one per restart
    dual_bound: float | None = None
    dual_witness: np.ndarray | None = None


@dataclass(frozen=True)
class RoofEstimate:
    """Two-sided estimate of a convex roof with its certificates.

    ``lower_strict`` means the roof is certified strictly above ``lower_bound``
    (a hull-exclusion certificate); ``exact`` means the bounds met within the
    exactness gap. ``base_value`` is the plain witness on the state itself; a
    column-generation support roof has a ``dual_bound`` and its d x d W.
    """

    objective: str
    lower_bound: float
    lower_certificate: str
    lower_strict: bool
    upper_bound: float
    upper_decomposition: Decomposition | None
    exact: bool
    base_value: float
    membership: MembershipCertificate | None = None
    generator_provenance: str | None = None
    dual_bound: float | None = None
    dual_witness: np.ndarray | None = None

    def __post_init__(self):
        for low in (self.lower_bound, self.dual_bound):
            if low is not None and low > self.upper_bound + config.ROOF_ORDER_SLACK:
                raise CertificateError(f"lower bound {low} exceeds upper bound {self.upper_bound}")


def decomposition_from_isometry(eig: EigenDecomposition, isometry) -> Decomposition:
    """Decomposition produced by mixing the eigen-ensemble with an isometry.

    Rows of ``isometry`` (n x r, orthonormal columns, r the rank at the
    eigenvalue cutoff) define unnormalized members; weights are their
    squared norms, and members below the weight cutoff are dropped.
    """
    v = as_complex(isometry, "isometry")
    if v.ndim != 2:
        raise ShapeMismatch("isometry must be a 2-d array")
    mu = eig.eigenvalues
    r = int(np.count_nonzero(mu > config.RANK_CUTOFF))
    if r == 0:
        raise ValidationError("state has no eigenvalue above the rank cutoff")
    if v.shape[1] != r or v.shape[0] < r:
        raise ShapeMismatch(
            f"isometry shape {v.shape} incompatible with rank {r}"
        )
    if frobenius(dagger(v) @ v - np.eye(r)) > config.ISOMETRY_TOL:
        raise NotIsometry(f"columns are not orthonormal within {config.ISOMETRY_TOL:g}")
    raw = (v * np.sqrt(mu[:r])) @ eig.eigenvectors[:, :r].T
    weights = np.einsum("ij,ij->i", raw, raw.conj()).real
    keep = weights > config.WEIGHT_CUTOFF
    weights = weights[keep]
    return Decomposition(weights=weights, states=raw[keep] / np.sqrt(weights)[:, None])


def support_values_fn(transition):
    """Batched support-uncertainty objective for decomposition members."""
    eps = config.BASE_TOL
    u_conj = np.conj(as_complex(transition, "transition matrix"))

    def values(states: np.ndarray) -> np.ndarray:
        counts_a = (np.abs(states) > eps).sum(axis=1)
        counts_b = (np.abs(states @ u_conj) > eps).sum(axis=1)
        return (counts_a + counts_b).astype(float)

    return values


def nonpositivity_values_fn(transition):
    """Batched total-nonpositivity objective for decomposition members."""
    u = as_complex(transition, "transition matrix")
    u_abs = np.abs(u)
    u_conj = np.conj(u)

    def values(states: np.ndarray) -> np.ndarray:
        amps_a = np.abs(states)
        amps_b = np.abs(states @ u_conj)
        return np.einsum("ik,kj,ij->i", amps_a, u_abs, amps_b)

    return values


def _unit_rows(states, d: int, name: str) -> np.ndarray:
    """``states`` as the rows of an array, each checked to be a unit d-vector."""
    rows = [validate_pure_state(psi) for psi in states]
    for k, psi in enumerate(rows):
        if psi.size != d:
            raise ValidationError(f"{name} {k} has {psi.size} entries, not {d}")
    return np.array(rows, dtype=complex).reshape(len(rows), d)


def _polar(matrix: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(matrix, full_matrices=False)
    return u @ vh


def _sparsify(v: np.ndarray, member: int, pinned: np.ndarray) -> np.ndarray:
    """Isometry ``v`` with row ``member`` pinned to ``pinned``.

    The other rows are replaced by the polar factor of what they were times
    the square root of what the pinned row leaves of the identity, so the
    result is again an isometry.
    """
    residual = np.eye(v.shape[1]) - np.outer(pinned.conj(), pinned)
    vals, vecs = np.linalg.eigh((residual + dagger(residual)) / 2.0)
    shrink = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ dagger(vecs)
    return np.insert(_polar(np.delete(v, member, axis=0)) @ shrink, member, pinned, axis=0)


# The annealing schedule: temperatures fall geometrically from T_START to
# T_END over the steps, a Gaussian move has scale PROPOSAL_SCALE times the
# root of the temperature, and when anchors are given each move pins a member
# to one of them with probability SPARSIFY_PROB.
T_START = 1.0
T_END = 1e-4
PROPOSAL_SCALE = 0.1
SPARSIFY_PROB = 0.35


def roof_upper_bound(
    rho,
    values_fn,
    cfg: AnnealConfig | None = None,
    anchors=None,
) -> RoofSearchResult:
    """Upper bound on a convex roof by annealing over decompositions.

    ``values_fn`` maps an (n, d) array of member states to their n
    objective values, each value depending on its own row only. Proposals
    are Gaussian perturbations retracted to the isometry manifold; when
    ``anchors`` (unit d-vectors) are supplied, additional moves pin one
    member exactly to an anchor state, which is how sparse-support members
    are reached at all. Restarts run one after another, and every starting
    point and proposal is scored on its ``decomposition_from_isometry``. The
    returned value is always a valid upper bound; its quality depends on the
    configuration.
    """
    cfg = cfg or AnnealConfig()
    rho_m = validate_density(rho)
    eig = hermitian_eig(rho_m)
    rank = int(np.count_nonzero(eig.eigenvalues > config.RANK_CUTOFF))
    if rank == 1:
        psi = eig.eigenvectors[:, 0]
        dec = Decomposition(np.array([1.0]), psi[None, :])
        value = float(values_fn(dec.states)[0])
        return RoofSearchResult(value, dec, (value,))

    n = rank * rank
    vectors, mu = eig.eigenvectors[:, :rank], eig.eigenvalues[:rank]
    # Each anchor in range(rho) as a row of coefficients over the ensemble, and
    # the largest t for which sqrt(t) times that row can be a row of an isometry.
    rows, t_max = [], []
    for chi in () if anchors is None else _unit_rows(anchors, rho_m.shape[0], "anchor"):
        coeff = dagger(vectors) @ chi
        if float(np.vdot(coeff, coeff).real) < config.ANCHOR_RANGE_CUTOFF:
            continue
        rows.append(coeff / np.sqrt(mu))
        t_max.append(1.0 / float(np.vdot(rows[-1], rows[-1]).real))

    def score(v):
        """(value, decomposition) of isometry ``v``."""
        dec = decomposition_from_isometry(eig, v)
        return float(dec.weights @ values_fn(dec.states)), dec

    temps = T_START * (T_END / T_START) ** (np.arange(cfg.steps) / max(1, cfg.steps - 1))
    bests = []  # per restart, the first (value, decomposition) at its lowest value
    for k in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + k)
        v = random_isometry(n, rank, rng) if k else np.eye(n, rank, dtype=complex)
        current = best = score(v)
        for temp in temps.tolist():
            # random() returns what uniform() returns, from one draw.
            if rows and rng.random() < SPARSIFY_PROB:
                member = int(rng.integers(n))
                which = int(rng.integers(len(rows)))
                t = float(rng.uniform(0.3, 1.0)) * t_max[which]
                proposal = _sparsify(v, member, np.sqrt(t) * rows[which])
            else:
                sigma = PROPOSAL_SCALE * math.sqrt(temp)
                proposal = _polar(v + sigma * complex_gaussian(v.shape, rng))
            scored = score(proposal)
            delta = scored[0] - current[0]
            if delta <= 0.0 or rng.random() < math.exp(-delta / temp):
                v, current = proposal, scored
                if current[0] < best[0]:
                    best = current
        bests.append(best)
    value, dec = min(bests, key=lambda scored: scored[0])  # the first of equal values
    return RoofSearchResult(value, dec, tuple(scored[0] for scored in bests))


def _recheck(result: RoofSearchResult, rho: np.ndarray, values) -> None:
    """Re-validate a searched or rank-one upper bound on its own decomposition."""
    dec = result.decomposition
    dec.validate(rho)
    recomputed = float(dec.weights @ values(dec.states))
    if not abs(recomputed - result.value) <= config.ROOF_RECHECK_TOL:
        raise CertificateError(
            f"upper bound {result.value} differs from its decomposition's "
            f"objective {recomputed}"
        )


# Column generation for either roof solves at most this many master LPs, and each
# round admits at most COLUMNS_PER_ROW columns per master row, most negative first.
MAX_COLUMN_ROUNDS = 64
COLUMNS_PER_ROW = 4

# Rounding allowed per dimension, relative to the norms involved (dual bound, pricer).
_ROUNDING = 64 * np.finfo(float).eps


@per_basis
def _support_subspaces(u):
    """Support pairs (S, T) a state can have at BASE_TOL: (|S| + |T|, constraint rows) groups.

    V_{S,T} is the null space of the k rows e_i, i not in S, and conj(u_j), j
    not in T (a zero row for k = 0), which a unit state supported on S, T at
    eps = BASE_TOL meets within eps sqrt(k). Only pairs whose smallest
    singular value proves no such state exists are left out: of a completely incompatible
    basis, the tight pairs |S| + |T| > d stay, dim V_{S,T} = |S| + |T| - d.
    """
    d, eps = u.shape[0], config.BASE_TOL
    lines = np.vstack([np.eye(d), dagger(u)])
    outside = ((np.arange(4**d)[:, None] >> np.arange(2 * d)) & 1) == 0
    family = []
    for k in range(2 * d, 0, -1):
        pairs = outside[outside.sum(axis=1) == k]
        rows = lines[np.nonzero(pairs)[1].reshape(len(pairs), k)]
        if k >= d:
            smallest = np.linalg.svd(rows, compute_uv=False)[:, -1]
            rows = rows[smallest <= eps * math.sqrt(k) + _ROUNDING * d]
        if len(rows):
            rows.flags.writeable = False
            family.append((2 * d - k, rows))
    # The pair of full supports, as one zero row; broadcast_to makes it read-only.
    return (*family, (2 * d, np.broadcast_to(np.zeros(1, dtype=complex), (1, 1, d))))


def _compressed_subspaces(family, e: np.ndarray):
    """Orthonormal bases of V_{S,T} in range(e), as (costs, (g, r, m) bases, distances) groups.

    One group per |S| + |T| and dimension m. A state of range(e) supported on
    (S, T) at eps = BASE_TOL is within eps sqrt(k), plus rounding, over the
    smallest kept singular value of V_{S,T}; at 1 or more the whole range is used.
    """
    r, eps = e.shape[1], config.BASE_TOL
    groups = []
    for count, rows in family:
        _, sing, vh = np.linalg.svd(rows @ e)
        kept = sing > np.maximum(config.NULL_SPACE_ABS_CUTOFF,
                                 config.NULL_SPACE_REL_CUTOFF * sing[:, :1])
        rank = kept.sum(axis=1)
        slack = eps * math.sqrt(rows.shape[1]) + _ROUNDING * r
        distance = slack / np.where(kept, sing, np.inf).min(axis=1)
        rank[distance >= 1.0] = 0
        distance[rank == 0] = 0.0
        for q in np.unique(rank[rank < r]):
            sel = rank == q
            groups.append((np.full(sel.sum(), count), dagger(vh[sel])[:, :, q:], distance[sel]))
    return groups


def _price(w: np.ndarray, groups):
    """|S| + |T| - lambda_max of ``w`` on every subspace, group by group, and the top vectors."""
    priced = []
    for cost, basis, _ in groups:
        lam, vecs = np.linalg.eigh(dagger(basis) @ w @ basis)
        priced.append((cost - lam[:, -1], (basis @ vecs[:, :, -1:])[:, :, 0]))
    return np.concatenate([p[0] for p in priced]), np.concatenate([p[1] for p in priced])


def _columns(eig: EigenDecomposition, rank: int, values, price):
    """Column generation on the master LP that splits diag(mu) into projectors of unit columns c.

    Columns are in range(rho) coordinates, from the eigen-ensemble on, and cost
    ``values`` of E c. ``price(W)`` gives candidates and their reduced costs under
    the master's duals W; each round the up to COLUMNS_PER_ROW r^2 most negative below
    -LP_DUAL_TOL join, their projector points and costs computed once, and the master
    goes on from its last basis, until none does or for MAX_COLUMN_ROUNDS. Returns the
    upper bound, W and the last lowest reduced cost.
    """
    e, mu = eig.eigenvectors[:, :rank], eig.eigenvalues[:rank]
    target = hermitian_to_real(np.diag(mu))
    states = e.T.copy()  # E c for the eigen-ensemble's columns c = e_k
    points, costs = _projector_points(np.eye(rank)), values(states)
    basis = None
    for round_ in range(1, MAX_COLUMN_ROUNDS + 1):
        lp = solve_equality_lp(points.T, target, costs, basis=basis)
        if lp.status != OPTIMAL:
            raise CertificateError(f"roof master LP is {lp.status}")
        w = real_to_hermitian(lp.duals, rank)
        reduced, candidates = price(w)
        best = [i for i in np.argsort(reduced, kind="stable")[:COLUMNS_PER_ROW * rank * rank]
                if reduced[i] < -config.LP_DUAL_TOL]
        if not best or round_ == MAX_COLUMN_ROUNDS:
            break
        joining, basis = candidates[best], lp.basis
        states = np.vstack([states, joining @ e.T])
        points = np.vstack([points, _projector_points(joining)])
        costs = np.concatenate([costs, values(states[-len(best):])])
    keep = lp.x > config.WEIGHT_CUTOFF
    return (RoofSearchResult(lp.objective, Decomposition(lp.x[keep], states[keep])), w,
            float(reduced.min()))


def _support_columns(eig: EigenDecomposition, rank: int, u: np.ndarray,
                     values) -> RoofSearchResult:
    """Support-roof bounds by column generation (``_columns``) over the support subspaces.

    Each column costs the support count of E c at BASE_TOL, and the top
    eigenvector of W on a subspace prices it, so once none prices in the
    gap is at most LP_DUAL_TOL. The dual bound, from a fresh pass over every
    subspace, loses a margin for states near theirs: for unit c = p + q, p in
    the subspace, |q| <= delta, and any t,
    c^H W c - lambda_max <= |W - t|_2 (2 delta + 2 delta^2).
    """
    e, mu = eig.eigenvectors[:, :rank], eig.eigenvalues[:rank]
    groups = _compressed_subspaces(_support_subspaces(u), e)
    result, w, lowest = _columns(eig, rank, values, lambda w: _price(w, groups))
    trace = float(mu @ np.diagonal(w).real)
    fresh = trace + min(float((cost - np.linalg.eigvalsh(dagger(z) @ w @ z)[:, -1]).min())
                        for cost, z, _ in groups)
    if not abs(fresh - trace - lowest) <= config.ROOF_RECHECK_TOL:
        raise CertificateError(f"dual bound {trace + lowest} is {fresh} in a fresh pass")
    spectrum = np.linalg.eigvalsh(w)  # t at its middle makes |W - t|_2 half its spread
    delta = max(float(g[2].max()) for g in groups)
    margin = float((spectrum[-1] - spectrum[0]) / 2.0 * (2.0 * delta + 2.0 * delta**2)
                   + _ROUNDING * rank * np.abs(spectrum).max())
    return replace(result, dual_bound=fresh - margin, dual_witness=e @ w @ dagger(e))


PRICING_DRAWS, PRICING_STARTS, PRICING_STEPS, PRICING_STEP = 2048, 16, 20, 0.05


@lru_cache(maxsize=16)
def _pricing_draws(rank: int) -> np.ndarray:
    draws = complex_gaussian((2, PRICING_DRAWS, rank), np.random.default_rng(0))
    draws.flags.writeable = False
    return draws


def _nonpositivity_pricer(eig: EigenDecomposition, rank: int, u, values, anchors):
    """Heuristic pricing for the nonpositivity roof: (reduced costs, columns) under W.

    Its dictionary is unit columns: the anchors in range(rho), PRICING_DRAWS
    uniform ones and PRICING_DRAWS weighted by sqrt(mu), drawn once per rank
    from default_rng(0). Since hermitian_to_real is isometric, c^H W c is the
    dot product of the points of c's projector and of W, so one product prices
    the dictionary. A round in which r^2 or more of its columns price below
    -LP_DUAL_TOL returns those; otherwise the PRICING_STARTS best also take
    PRICING_STEPS projected-gradient steps of PRICING_STEP / max(1, |W|_2).
    For psi = E c and phi = U^H psi, N = |psi|^T |U| |phi|, and the derivative of
    N - c^H W c in conj(c) is E^H (sgn psi |U| |phi| + U (sgn phi |U|^T |psi|)) / 2 - W c,
    with sgn z = z / |z|, or 0 where |z| <= _ROUNDING * r, the rounding of a length-r
    dot product of unit rows. On rows c, z = c A = (psi, phi) for A = [E^T | E^T conj(U)],
    and with B = [[0, |U|], [|U|^T, 0]] twice that derivative is (sgn z * |z| B) A^H
    - 2 c W^T, so a step of size s is c (I + 2 s W^T) - s (sgn z * |z| B) A^H.
    """
    e, mu = eig.eigenvectors[:, :rank], eig.eigenvalues[:rank]
    a = np.hstack([e.T, e.T @ u.conj()])
    a_h, u_abs = dagger(a), np.abs(u)
    b = np.block([[np.zeros_like(u_abs), u_abs], [u_abs.T, np.zeros_like(u_abs)]])
    draws = _pricing_draws(rank)
    pool = np.vstack([np.asarray(anchors) @ e.conj(), draws[0], draws[1] * np.sqrt(mu)])
    norms = np.linalg.norm(pool, axis=1)
    in_range = norms**2 > config.ANCHOR_RANGE_CUTOFF
    pool = pool[in_range] / norms[in_range, None]
    pool_values, pool_points = values(pool @ e.T), _projector_points(pool)

    def price(w):
        w_point = hermitian_to_real(w)
        pooled = pool_values - pool_points @ w_point
        negative = pooled < -config.LP_DUAL_TOL
        if np.count_nonzero(negative) >= rank * rank:
            return pooled[negative], pool[negative]
        c = pool[np.argpartition(pooled, PRICING_STARTS)[:PRICING_STARTS]]
        step = PRICING_STEP / max(1.0, float(np.abs(np.linalg.eigvalsh(w)).max()))
        grow = np.eye(rank) + 2.0 * step * w.T
        for _ in range(PRICING_STEPS):
            z = c @ a
            amps = np.abs(z)
            sgn = np.divide(z, amps, out=np.zeros_like(z), where=amps > _ROUNDING * rank)
            c = c @ grow - step * (sgn * (amps @ b)) @ a_h
            c /= np.sqrt(np.einsum("ij,ij->i", c, c.conj()).real)[:, None]
        return (np.concatenate([values(c @ e.T) - _projector_points(c) @ w_point,
                                pooled[negative]]),
                np.vstack([c, pool[negative]]))

    return price


def _roof_bounds(
    objective: str,
    rho_m: np.ndarray,
    values,
    base: float,
    anchor_source,
    floor: float,
    inside_certificate: str,
    strict: bool,
    search,
) -> RoofEstimate:
    """Bounds shared by both roofs, given what differs between them.

    ``search(eig, rank, anchors)`` gives the upper bound of a state of rank two
    or more that the hull does not decide, ``anchors`` being None without a
    hull route; a rank-one state is its own decomposition.

    ``anchor_source`` is called only for states of rank two or more and
    returns the pure states whose hull decides the roof, the real points of
    their projectors and their provenance, or ``(None, None, None)`` when no
    hull route exists; then only the convexity bound ``base`` is certified.
    Inside the hull the roof equals ``floor``; a certified exclusion puts it
    strictly above ``floor`` when ``strict`` holds and at or above ``base``
    otherwise.
    """
    eig = hermitian_eig(rho_m)
    rank = int(np.count_nonzero(eig.eigenvalues > config.RANK_CUTOFF))
    anchors, points, provenance = anchor_source() if rank > 1 else (None, None, None)
    if anchors is not None and len(anchors) > 0:
        outcome = membership_lp_points(hermitian_to_real(rho_m), points)
        cert = hermitian_certificate(outcome, rho_m.shape[0])
    else:
        anchors = provenance = cert = None
    verdict = cert.verdict if cert is not None else None
    if verdict == INDETERMINATE:
        raise IndeterminateMembership(
            f"hull margin {cert.margin:.3e} is too thin to certify exclusion"
        )
    strict = strict and verdict == OUTSIDE

    if verdict == INSIDE:
        keep = cert.weights > config.WEIGHT_CUTOFF
        weights = cert.weights[keep]
        # Scaled to Tr rho, as the search's weights sum to the kept eigenvalues.
        dec = Decomposition(weights / weights.sum() * float(np.trace(rho_m).real), anchors[keep])
        dec.validate(rho_m)
        result = RoofSearchResult(floor, dec)
        lower, certificate = floor, inside_certificate
    elif rank == 1:
        psi = eig.eigenvectors[:, 0]
        value = float(values(psi[None, :])[0])
        result = RoofSearchResult(value, Decomposition(np.array([1.0]), psi[None, :]))
        # Its one member, of weight 1, decomposes rho / Tr rho.
        _recheck(result, rho_m / np.trace(rho_m).real, values)
        lower, certificate = value, CERT_RANK_ONE
    else:
        # The search decomposes the eigenvalues above RANK_CUTOFF; its weights miss
        # Tr rho by what the rest sum to, unless the kept ones are scaled to Tr rho.
        kept, dropped = eig.eigenvalues[:rank], eig.eigenvalues[rank:]
        cut = float(dropped.sum())
        if cut < -config.WEIGHT_SUM_TOL:
            raise ValidationError(
                f"eigenvalues at or below RANK_CUTOFF = {config.RANK_CUTOFF:g} sum to "
                f"{cut:.3e}, the least {dropped.min():.3e}: no decomposition of "
                f"the rest has weight Tr rho within WEIGHT_SUM_TOL = {config.WEIGHT_SUM_TOL:g}"
            )
        if cut > config.WEIGHT_SUM_TOL:
            scaled = kept * (float(np.trace(rho_m).real) / kept.sum())
            eig = replace(eig, eigenvalues=np.concatenate([scaled, dropped]))
        result = search(eig, rank, anchors)
        _recheck(result, rho_m, values)
        lower, certificate = (floor, CERT_HULL) if strict else (base, CERT_CONVEXITY)
    return RoofEstimate(
        objective=objective,
        lower_bound=lower,
        lower_certificate=certificate,
        lower_strict=strict,
        upper_bound=result.value,
        upper_decomposition=result.decomposition,
        # After a hull exclusion the bounds stay a bracket, however close.
        exact=verdict != OUTSIDE and result.value - lower <= config.EXACT_GAP_TOL,
        base_value=base,
        membership=cert,
        generator_provenance=provenance,
        dual_bound=result.dual_bound,
        dual_witness=result.dual_witness,
    )


def _projector_points(states: np.ndarray) -> np.ndarray:
    """hermitian_to_real(c c^H) of state rows c, from the products c_i conj(c_j) alone."""
    psi = as_complex(states, "state")
    iu, ju = _upper_pairs(psi.shape[-1])
    upper = psi[..., iu] * psi[..., ju].conj()
    return np.concatenate([(psi * psi.conj()).real, np.sqrt(2.0) * upper.real,
                           np.sqrt(2.0) * upper.imag], axis=-1)


def _read_only_anchors(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``states`` and their projector points, both read-only."""
    points = _projector_points(states)
    for array in (states, points):
        array.flags.writeable = False
    return states, points


@per_basis
def _hull_anchors(u):
    """The minimal states and their projector points, then the KD-positive ones and theirs.

    Every array is read-only. The support roof's hull is the first pair's, the
    nonpositivity roof's derived hull the second's.
    """
    minimal = enumerate_min_uncertainty_states(u)
    # The kept rows depend on the matrix's rounding; u here is C-ordered.
    positive = filter_kd_positive_pure(minimal, u)
    return _read_only_anchors(minimal.states), _read_only_anchors(positive.states)


def support_roof_bounds(rho, transition) -> RoofEstimate:
    """Bounds on the convex roof of the support uncertainty.

    Requires a completely incompatible basis pair (d <= 8, the minor count's
    guard), which pins the roof at or above d+1 for every state. Membership of the
    state in the hull of the minimal-uncertainty states, enumerated once per
    basis (see :mod:`kdwitness.basis`), decides the rest:
    inside gives the exact value d+1, exclusion certifies the roof strictly
    above d+1, and column generation brackets the excess from both sides.
    """
    u = validate_unitary(transition)
    rho_m = validate_density(rho)
    base = float(support_counts_mixed(rho_m, u).n_ab)
    values = support_values_fn(u)

    def anchor_source():
        return (*_hull_anchors(u)[0], "derived")

    return _roof_bounds(
        SUPPORT_OBJECTIVE, rho_m, values, base, anchor_source,
        floor=float(u.shape[0] + 1), inside_certificate=CERT_FLOOR, strict=True,
        search=lambda eig, rank, _: _support_columns(eig, rank, u, values),
    )


def _supplied_positive_pure(states, u: np.ndarray) -> np.ndarray:
    """The supplied states as rows, each checked to be a unit d-vector and KD positive."""
    rows = _unit_rows(states, u.shape[0], "positive_pure state")
    positive = _kd_positive_rows(rows, u)
    if not positive.all():
        raise ValidationError(f"positive_pure state {int(np.argmin(positive))} is not KD positive")
    return rows


def nonpositivity_roof_bounds(rho, transition, positive_pure=None) -> RoofEstimate:
    """Bounds on the convex roof of the total nonpositivity.

    The plain total nonpositivity is a convex lower bound. When the state
    is a convex combination of pure KD-positive states (decided by a
    membership program over their projectors) the roof equals one exactly;
    a certified exclusion from that hull makes the roof strictly larger
    than one even when the state itself is KD positive.

    ``positive_pure`` supplies the pure KD-positive states. Each must be a
    unit vector of the basis dimension and KD positive (ValidationError
    otherwise); that they are all such states is the caller's claim. When
    omitted it is derived by enumeration, which is complete
    for completely incompatible bases in dimension at most eight, once per
    basis (see :mod:`kdwitness.basis`). Without
    either route only the convexity bound is certified. The upper bound of a
    state the hull does not decide comes from column generation, whose
    dictionary without a hull route holds the pricer's fixed draws alone.
    """
    u = validate_unitary(transition)
    rho_m = validate_density(rho)
    base = total_nonpositivity(kd_table(rho_m, u))
    supplied = None if positive_pure is None else _supplied_positive_pure(positive_pure, u)

    def anchor_source():
        if supplied is not None:
            return supplied, _projector_points(supplied), "supplied"
        try:
            return (*_hull_anchors(u)[1], "derived")
        except (NotCompletelyIncompatible, DimensionTooLarge):
            return None, None, None

    values = nonpositivity_values_fn(u)

    def search(eig, rank, anchors):
        anchors = np.empty((0, u.shape[0]), dtype=complex) if anchors is None else anchors
        return _columns(eig, rank, values, _nonpositivity_pricer(eig, rank, u, values, anchors))[0]

    return _roof_bounds(
        NONPOSITIVITY_OBJECTIVE, rho_m, values, base, anchor_source,
        floor=1.0, inside_certificate=CERT_HULL,
        strict=base <= 1.0 + config.NONPOSITIVITY_STRICT_SLACK, search=search,
    )
