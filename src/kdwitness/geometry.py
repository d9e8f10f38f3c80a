"""Convex geometry over a real embedding of Hermitian matrices.

Hermitian d x d matrices embed isometrically into R^(d^2) (diagonal first,
then sqrt(2)-scaled real and imaginary parts of the strict upper triangle),
turning hull-membership queries, facet enumeration, and convex roofs over
finite generator sets into small linear programs. The point-level functions
work on raw real vectors; thin wrappers translate Hermitian matrices.

Membership certificates are self-validating: the stated weight or
separating-functional inequalities are re-checked after every solve and a
violation is a hard error, never a silent downgrade.
"""

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import config
from .errors import (
    CertificateError,
    DegenerateHull,
    DimensionTooLarge,
    OutsideHull,
    ValidationError,
)
from .linalg import as_complex
from .simplex import INFEASIBLE, OPTIMAL, solve_equality_lp

MAX_FACET_GENERATORS = 30

INSIDE = "inside"
OUTSIDE = "outside"
INDETERMINATE = "indeterminate"


def hermitian_to_real(matrix) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix."""
    h = as_complex(matrix, "matrix")
    d = h.shape[0]
    iu, ju = np.triu_indices(d, k=1)
    upper = h[iu, ju]
    return np.concatenate(
        [np.diagonal(h).real, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag]
    )


def real_to_hermitian(coords, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_real`."""
    x = np.asarray(coords, dtype=float)
    if x.shape != (d * d,):
        raise ValidationError(f"expected {d * d} coordinates, got shape {x.shape}")
    h = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(h, x[:d])
    iu, ju = np.triu_indices(d, k=1)
    k = d + iu.size
    upper = (x[d:k] + 1j * x[k:]) / np.sqrt(2.0)
    h[iu, ju] = upper
    h[ju, iu] = upper.conj()
    return h


@dataclass(frozen=True)
class MembershipCertificate:
    """Outcome of a hull-membership query.

    Inside: ``weights`` are validated convex coefficients reproducing the
    target. Outside: ``functional`` is a separating witness with
    ``Tr(F g) <= threshold`` for every generator and
    ``Tr(F target) = threshold + margin``. A margin below ten times the
    feasibility tolerance yields the indeterminate verdict instead. Over
    density-matrix generators the witness is Hermitian; over raw points it
    is a unit normal vector and ``normalization`` is None.
    """

    verdict: str
    weights: np.ndarray | None
    functional: np.ndarray | None
    threshold: float | None
    margin: float | None
    normalization: str | None
    tol: float


def _embed(generators, target=None):
    """Dimension, real generator points and target point of Hermitian inputs.

    Every matrix, the target included, must share the first generator's
    square shape.
    """
    gens = [as_complex(g, "generator") for g in generators]
    if not gens:
        raise ValidationError("need at least one generator")
    d = gens[0].shape[0]
    target_m = None if target is None else as_complex(target, "target")
    if any(m.shape != (d, d) for m in gens + [target_m] if m is not None):
        raise ValidationError(f"all matrices must be {d} x {d}, like the first generator")
    points = np.array([hermitian_to_real(g) for g in gens])
    return d, points, None if target_m is None else hermitian_to_real(target_m)


def _hull_lp(points, x, c, tol: float):
    """Equality LP over convex weights w: points.T w = x, sum w = 1, min c.w."""
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValidationError("need at least one generator point")
    if x.shape != (points.shape[1],):
        raise ValidationError(
            f"target shape {x.shape} does not match generator width {points.shape[1]}"
        )
    n = points.shape[0]
    a_matrix = np.vstack([points.T, np.ones((1, n))])
    b_vector = np.concatenate([x, [1.0]])
    return solve_equality_lp(a_matrix, b_vector, c=c, feas_tol=tol)


def membership_lp_points(
    target, generators, tol: float | None = None
) -> MembershipCertificate:
    """Decide membership of a point in the convex hull of generator points."""
    tol = config.FEASIBILITY_TOL if tol is None else tol
    points = np.asarray(generators, dtype=float)
    x = np.asarray(target, dtype=float)
    result = _hull_lp(points, x, None, tol)

    if result.status == OPTIMAL:
        w = result.x
        residual = float(np.linalg.norm(points.T @ w - x))
        if residual > tol:
            raise CertificateError(
                f"inside certificate fails reconstruction: residual {residual:.3e}"
            )
        if w.min() < -1e-12:
            raise CertificateError(f"inside certificate has weight {w.min():.3e} < 0")
        if abs(w.sum() - 1.0) > 1e-10:
            raise CertificateError(f"inside certificate weights sum to {w.sum()}")
        return MembershipCertificate(INSIDE, w, None, None, None, None, tol)

    assert result.status == INFEASIBLE
    y = result.farkas
    v = y[: points.shape[1]]
    norm = float(np.linalg.norm(v))
    if norm < 1e-14:
        raise CertificateError("separating functional degenerated to zero")
    v = v / norm
    values = points @ v
    threshold = float(values.max())
    margin = float(v @ x - threshold)
    if margin <= 0.0:
        raise CertificateError(f"outside certificate has margin {margin:.3e} <= 0")
    verdict = OUTSIDE if margin > config.MARGIN_FACTOR * tol else INDETERMINATE
    return MembershipCertificate(verdict, None, v, threshold, margin, None, tol)


def membership_lp(target, generators, tol: float | None = None) -> MembershipCertificate:
    """Hull membership for a Hermitian target over Hermitian generators.

    The separating functional of an outside verdict is renormalized to
    trace one when its trace allows, otherwise reported at unit Frobenius
    norm.
    """
    d, points, x = _embed(generators, target)
    outcome = membership_lp_points(x, points, tol=tol)
    if outcome.verdict == INSIDE:
        return outcome
    functional = real_to_hermitian(outcome.functional, d)
    trace = float(np.trace(functional).real)
    if trace <= 1e-6:
        return replace(outcome, functional=functional, normalization="unit_frobenius")
    return replace(
        outcome,
        functional=functional / trace,
        threshold=outcome.threshold / trace,
        margin=outcome.margin / trace,
        normalization="trace_one",
    )


@dataclass(frozen=True)
class Facet:
    """A bounding hyperplane of the generator hull.

    Every generator g satisfies ``Tr(functional @ g) <= offset``, with
    equality (within the active tolerance) exactly on the active set. Over
    raw points ``functional`` is the unit normal vector.
    """

    functional: np.ndarray
    offset: float
    active: tuple[int, ...]


def facet_enumeration_points(
    points,
    active_tol: float = 1e-7,
    match_tol: float | None = None,
) -> list[Facet]:
    """All bounding hyperplanes of the convex hull of a small point set.

    Works inside the affine hull of the points: candidate hyperplanes pass
    through affinely independent subsets of size equal to the affine
    dimension, are kept when all points lie on one closed side, and are
    deduplicated on their active sets and their normalized hull-coordinates
    form. Facets come back in a canonical order independent of the input
    ordering.
    """
    match_tol = config.FACET_MATCH_TOL if match_tol is None else match_tol
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n > MAX_FACET_GENERATORS:
        raise DimensionTooLarge(
            f"facet enumeration is guarded to {MAX_FACET_GENERATORS} generators"
        )
    centroid = pts.mean(axis=0)
    deltas = pts - centroid
    _, sing, vt = np.linalg.svd(deltas, full_matrices=False)
    rank_tol = max(1e-12, (sing[0] if sing.size else 0.0) * 1e-9)
    rank = int(np.count_nonzero(sing > rank_tol))
    if rank < 1:
        raise DegenerateHull("generators span no affine directions")
    basis = vt[:rank].T
    hull_pts = deltas @ basis

    found: list[tuple[np.ndarray, float, tuple[int, ...]]] = []
    for subset in combinations(range(n), rank):
        anchor = hull_pts[subset[0]]
        if rank == 1:
            normal = np.array([1.0])
        else:
            rows = hull_pts[list(subset[1:])] - anchor
            _, sv, svt = np.linalg.svd(rows)
            sub_tol = max(1e-12, sv[0] * 1e-9) if sv.size else 1e-12
            if int(np.count_nonzero(sv > sub_tol)) < rank - 1:
                continue
            normal = svt[-1]
        offset = float(normal @ anchor)
        side = hull_pts @ normal - offset
        if side.max() <= active_tol:
            pass
        elif side.min() >= -active_tol:
            normal, offset, side = -normal, -offset, -side
        else:
            continue
        if any(
            abs(offset - off) <= match_tol and np.linalg.norm(normal - nrm) <= match_tol
            for nrm, off, _ in found
        ):
            continue
        active = tuple(int(k) for k in np.flatnonzero(np.abs(side) <= active_tol))
        found.append((normal, offset, active))

    facets = []
    listed: set[tuple[int, ...]] = set()
    for normal, offset, active in found:
        # Near a degenerate configuration, hyperplanes through different
        # subsets can hold the same active set yet differ by more than
        # match_tol; the first one found stands for that face.
        if active in listed:
            continue
        listed.add(active)
        ambient = basis @ normal
        facets.append(Facet(ambient, float(offset + ambient @ centroid), active))
    facets.sort(key=lambda f: (round(f.offset, 9),) + tuple(np.round(f.functional, 9)))
    return facets


def facet_enumeration(generators, active_tol: float = 1e-7) -> list[Facet]:
    """Facets of the hull of Hermitian generators, as Hermitian functionals."""
    d, points, _ = _embed(generators)
    return [
        replace(f, functional=real_to_hermitian(f.functional, d))
        for f in facet_enumeration_points(points, active_tol=active_tol)
    ]


def finite_convex_roof_points(
    values, target, points, tol: float | None = None
) -> tuple[float, np.ndarray]:
    """Smallest convex combination of generator values reproducing a target.

    This is the exact convex roof of the value assignment when the point
    set is the full extreme set of its hull. Raises OutsideHull when the
    target is not a convex combination of the points.
    """
    tol = config.FEASIBILITY_TOL if tol is None else tol
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValidationError("one value per generator is required")
    result = _hull_lp(pts, np.asarray(target, dtype=float), vals, tol)
    if result.status == INFEASIBLE:
        raise OutsideHull("target is outside the convex hull of the generators")
    if result.status != OPTIMAL:
        raise CertificateError(f"unexpected LP status {result.status}")
    return float(result.objective), result.x


def finite_convex_roof(values, target, generators, tol: float | None = None) -> float:
    """Hermitian wrapper around :func:`finite_convex_roof_points`."""
    _, points, x = _embed(generators, target)
    value, _ = finite_convex_roof_points(values, x, points, tol=tol)
    return value
