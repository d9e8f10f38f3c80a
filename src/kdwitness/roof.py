"""Convex-roof bounds over pure-state decompositions.

Every decomposition of a rank-r state into n pure states arises from an
n x r matrix with orthonormal columns applied to the eigen-ensemble, so
roof upper bounds are found by annealing over such matrices. Lower bounds
come from structure instead of search: convexity for the total
nonpositivity, the d+1 floor of complete incompatibility for the support
uncertainty, and hull-membership certificates for strictness. Bounds are
only ever reported as bounds; the exact flag is set when the certificates
close the gap.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import (
    CertificateError,
    DimensionTooLarge,
    IndeterminateMembership,
    NotCompletelyIncompatible,
    NotIsometry,
    ShapeMismatch,
    ValidationError,
)
from .geometry import INDETERMINATE, INSIDE, OUTSIDE, MembershipCertificate, membership_lp
from .incompatibility import support_counts_mixed
from .kd import kd_table, total_nonpositivity
from .linalg import (
    EigenDecomposition,
    as_complex,
    complex_gaussian,
    dagger,
    frobenius,
    hermitian_eig,
    projector,
    random_isometry,
)
from .pure_positive import enumerate_min_uncertainty_states, filter_kd_positive_pure

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

    def validate(self, rho=None, tol: float = 1e-8) -> None:
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise CertificateError(f"weights sum to {self.weights.sum()}")
        if self.weights.min() < 0.0:
            raise CertificateError(f"negative weight {self.weights.min():.3e}")
        if rho is not None and frobenius(self.density() - np.asarray(rho)) > tol:
            raise CertificateError("decomposition does not reproduce the state")


@dataclass(frozen=True)
class AnnealConfig:
    """Annealing parameters for the decomposition search.

    ``n_terms`` defaults to the square of the rank, which suffices for
    roof-achieving decompositions of continuous objectives. Runs are
    deterministic given ``seed``; restart k uses ``seed + k``.
    """

    n_terms: int | None = None
    restarts: int = 40
    steps: int = 2000
    seed: int = 0
    t_start: float = 1.0
    t_end: float = 1e-4
    proposal_scale: float = 0.1
    sparsify_prob: float = 0.35


@dataclass(frozen=True)
class RoofSearchResult:
    value: float
    decomposition: Decomposition
    restart_values: tuple[float, ...]


@dataclass(frozen=True)
class RoofEstimate:
    """Two-sided estimate of a convex roof with its certificates.

    ``lower_strict`` means the roof is certified strictly above
    ``lower_bound`` (a hull-exclusion certificate); ``exact`` means the
    bounds met within the exactness gap. ``base_value`` is the plain
    (non-roof) witness evaluated on the state itself.
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
    restart_values: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.lower_bound > self.upper_bound + 1e-8:
            raise CertificateError(
                f"lower bound {self.lower_bound} exceeds upper bound {self.upper_bound}"
            )


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
    if frobenius(dagger(v) @ v - np.eye(r)) > 1e-9:
        raise NotIsometry("columns are not orthonormal within 1e-9")
    weights_basis = mu[:r]
    vectors = eig.eigenvectors[:, :r]
    mixed = v * np.sqrt(weights_basis)[None, :]
    raw = mixed @ vectors.T
    weights = np.einsum("ij,ij->i", raw, raw.conj()).real
    keep = weights > config.WEIGHT_CUTOFF
    weights = weights[keep]
    states = raw[keep] / np.sqrt(weights)[:, None]
    return Decomposition(weights=weights, states=states)


def support_values_fn(transition, eps: float | None = None):
    """Batched support-uncertainty objective for decomposition members."""
    eps = config.default_tol() if eps is None else eps
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


def _polar(matrix: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(matrix, full_matrices=False)
    return u @ vh


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((matrix + dagger(matrix)) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ dagger(vecs)


class _AnchorSet:
    """Precomputed data for moves that pin a member to an anchor state."""

    def __init__(self, anchors, eig: EigenDecomposition, rank: int):
        mu = eig.eigenvalues[:rank]
        vectors = eig.eigenvectors[:, :rank]
        self.rows = []
        self.t_max = []
        for chi in anchors:
            coeff = dagger(vectors) @ np.asarray(chi, dtype=complex)
            weight_in_range = float(np.vdot(coeff, coeff).real)
            if weight_in_range < 1e-12:
                continue
            row = coeff / np.sqrt(mu)
            self.rows.append(row)
            self.t_max.append(1.0 / float(np.vdot(row, row).real))
        self.count = len(self.rows)


def _sparsify(v: np.ndarray, member: int, row: np.ndarray, t: float) -> np.ndarray:
    pinned = np.sqrt(t) * row
    r = v.shape[1]
    residual = np.eye(r) - np.outer(pinned.conj(), pinned)
    shrink = _psd_sqrt(residual)
    rest = np.delete(v, member, axis=0)
    rotated = _polar(rest) @ shrink
    out = np.empty_like(v)
    out[member] = pinned
    out[np.arange(v.shape[0]) != member] = rotated
    return out


def roof_upper_bound(
    rho,
    values_fn,
    cfg: AnnealConfig | None = None,
    anchors=None,
) -> RoofSearchResult:
    """Upper bound on a convex roof by annealing over decompositions.

    ``values_fn`` maps an (n, d) array of member states to their n
    objective values. Proposals are Gaussian perturbations retracted to the
    isometry manifold; when ``anchors`` are supplied, additional moves pin
    one member exactly to an anchor state, which is how sparse-support
    members are reached at all. The returned value is always a valid upper
    bound; its quality depends on the configuration.
    """
    cfg = cfg or AnnealConfig()
    eig = hermitian_eig(as_complex(rho, "state"))
    rank = int(np.count_nonzero(eig.eigenvalues > config.RANK_CUTOFF))
    if rank == 0:
        raise ValidationError("state has no eigenvalue above the rank cutoff")

    def evaluate(v: np.ndarray) -> tuple[float, Decomposition]:
        dec = decomposition_from_isometry(eig, v)
        return float(dec.weights @ values_fn(dec.states)), dec

    if rank == 1:
        psi = eig.eigenvectors[:, 0]
        dec = Decomposition(np.array([1.0]), psi[None, :])
        value = float(values_fn(dec.states)[0])
        return RoofSearchResult(value, dec, (value,))

    n = cfg.n_terms if cfg.n_terms is not None else rank * rank
    if n < rank:
        raise ValidationError(f"n_terms={n} is below the rank {rank}")
    anchor_set = _AnchorSet(anchors, eig, rank) if anchors is not None else None
    use_anchors = anchor_set is not None and anchor_set.count > 0 and n > rank

    temps = cfg.t_start * (cfg.t_end / cfg.t_start) ** (
        np.arange(cfg.steps) / max(1, cfg.steps - 1)
    )
    best_value = math.inf
    best_dec: Decomposition | None = None
    restart_values = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        if restart == 0:
            v = np.zeros((n, rank), dtype=complex)
            v[:rank, :rank] = np.eye(rank)
        else:
            v = random_isometry(n, rank, rng)
        value, dec = evaluate(v)
        local_best, local_dec = value, dec
        for temp in temps:
            if use_anchors and rng.uniform() < cfg.sparsify_prob:
                member = int(rng.integers(n))
                which = int(rng.integers(anchor_set.count))
                t = float(rng.uniform(0.3, 1.0)) * anchor_set.t_max[which]
                proposal = _sparsify(v, member, anchor_set.rows[which], t)
            else:
                sigma = cfg.proposal_scale * math.sqrt(temp)
                proposal = _polar(v + sigma * complex_gaussian(v.shape, rng))
            new_value, new_dec = evaluate(proposal)
            delta = new_value - value
            if delta <= 0.0 or rng.uniform() < math.exp(-delta / temp):
                v, value, dec = proposal, new_value, new_dec
                if value < local_best:
                    local_best, local_dec = value, dec
        restart_values.append(local_best)
        if local_best < best_value:
            best_value, best_dec = local_best, local_dec
    return RoofSearchResult(best_value, best_dec, tuple(restart_values))


def _roof_bounds(
    objective: str,
    rho_m: np.ndarray,
    values,
    base: float,
    anchor_source,
    floor: float,
    inside_certificate: str,
    strict: bool,
    cfg: AnnealConfig | None,
    tol: float | None,
) -> RoofEstimate:
    """Bounds shared by both roofs, given what differs between them.

    ``anchor_source`` is called only for states of rank two or more and
    returns the pure states whose hull decides the roof with their
    provenance, or ``(None, None)`` when no hull route exists; then only the
    convexity bound ``base`` is certified. Inside the hull the roof equals
    ``floor``; a certified exclusion puts it strictly above ``floor`` when
    ``strict`` holds and at or above ``base`` otherwise.
    """
    eig = hermitian_eig(rho_m)
    rank = int(np.count_nonzero(eig.eigenvalues > config.RANK_CUTOFF))
    anchors, provenance = anchor_source() if rank > 1 else (None, None)
    if anchors is not None and len(anchors) > 0:
        anchors = np.asarray(anchors, dtype=complex)
        cert = membership_lp(rho_m, [projector(s) for s in anchors], tol=tol)
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
        dec = Decomposition(weights / weights.sum(), anchors[keep])
        result = RoofSearchResult(floor, dec, ())
        lower, certificate = floor, inside_certificate
    else:
        result = roof_upper_bound(rho_m, values, cfg, anchors=anchors)
        if rank == 1:
            lower, certificate = result.value, CERT_RANK_ONE
        elif strict:
            lower, certificate = floor, CERT_HULL
        else:
            lower, certificate = base, CERT_CONVEXITY
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
        restart_values=result.restart_values,
    )


def support_roof_bounds(
    rho,
    transition,
    cfg: AnnealConfig | None = None,
    eps: float | None = None,
    tol: float | None = None,
) -> RoofEstimate:
    """Bounds on the convex roof of the support uncertainty.

    Requires a completely incompatible basis pair (dimension at most six),
    which pins the roof at or above d+1 for every state. Membership of the
    state in the hull of the minimal-uncertainty states decides the rest:
    inside gives the exact value d+1, exclusion certifies the roof strictly
    above d+1, and the annealed upper bound quantifies the excess.
    """
    eps = config.default_tol() if eps is None else eps
    u = as_complex(transition, "transition matrix")
    rho_m = as_complex(rho, "state")
    base = float(support_counts_mixed(rho_m, u, eps=eps).n_ab)

    def anchor_source():
        return enumerate_min_uncertainty_states(u, eps=eps).states, "derived"

    return _roof_bounds(
        SUPPORT_OBJECTIVE, rho_m, support_values_fn(u, eps=eps), base, anchor_source,
        floor=float(u.shape[0] + 1), inside_certificate=CERT_FLOOR, strict=True,
        cfg=cfg, tol=tol,
    )


def nonpositivity_roof_bounds(
    rho,
    transition,
    cfg: AnnealConfig | None = None,
    positive_pure=None,
    tol: float | None = None,
) -> RoofEstimate:
    """Bounds on the convex roof of the total nonpositivity.

    The plain total nonpositivity is a convex lower bound. When the state
    is a convex combination of pure KD-positive states (decided by a
    membership program over their projectors) the roof equals one exactly;
    a certified exclusion from that hull makes the roof strictly larger
    than one even when the state itself is KD positive.

    ``positive_pure`` supplies the pure KD-positive states and is assumed
    complete; when omitted it is derived by enumeration, which is complete
    for completely incompatible bases in dimension at most six. Without
    either route only the convexity bound and the annealed upper bound are
    reported.
    """
    u = as_complex(transition, "transition matrix")
    rho_m = as_complex(rho, "state")
    base = total_nonpositivity(kd_table(rho_m, u))

    def anchor_source():
        if positive_pure is not None:
            return positive_pure, "supplied"
        try:
            minimal = enumerate_min_uncertainty_states(u)
        except (NotCompletelyIncompatible, DimensionTooLarge):
            return None, None
        return filter_kd_positive_pure(minimal, u).states, "derived"

    return _roof_bounds(
        NONPOSITIVITY_OBJECTIVE, rho_m, nonpositivity_values_fn(u), base, anchor_source,
        floor=1.0, inside_certificate=CERT_HULL, strict=base <= 1.0 + 2e-9,
        cfg=cfg, tol=tol,
    )
