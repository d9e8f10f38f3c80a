"""Convex geometry over a real embedding of Hermitian matrices.

Hermitian d x d matrices embed isometrically into R^(d^2) (diagonal first,
then sqrt(2)-scaled real and imaginary parts of the strict upper triangle),
turning hull-membership queries, facet enumeration, and convex roofs over
finite generator sets into small linear programs. The point-level functions
work on raw real vectors; thin wrappers translate Hermitian matrices.

Membership certificates are self-validating: the stated weight or
separating-functional inequalities are re-checked after every solve and a
violation is a hard error, never a silent downgrade.

Facets come from gift wrapping, walking from facet to neighbouring facet,
on sets where it pays and where its own numbers prove its list equal to the
bit to that of the search over all rank-subsets; every other set takes that
subset search.
"""

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, combinations, islice

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
from .validation import require_hermitian

# Subsets per stacked SVD of the facet enumeration, fewer when a block's
# (points x subsets) side-test array would exceed FACET_SIDE_ENTRIES, as it
# can for sets of low affine rank and many points.
FACET_BLOCK = 1024
FACET_SIDE_ENTRIES = 1 << 21

# The prefilter's cheap normals solve each subset's spanning rows with the
# fixed probe row cos(k * FACET_PROBE_ANGLE), k = 1..rank, appended. Any
# fixed row does; a subset whose normal the row is nearly orthogonal to
# gets a loose bound and goes on to the SVD.
FACET_PROBE_ANGLE = 1.0

INSIDE = "inside"
OUTSIDE = "outside"
INDETERMINATE = "indeterminate"


@lru_cache(maxsize=16)
def _upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the strict upper triangle of a d x d matrix."""
    iu, ju = np.triu_indices(d, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def hermitian_to_real(matrix) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix, or of each matrix in a stack.

    A stack of shape ``(..., d, d)`` gives coordinates of shape ``(..., d * d)``.
    """
    h = as_complex(matrix, "matrix")
    d = h.shape[-1]
    iu, ju = _upper_pairs(d)
    upper = h[..., iu, ju]
    return np.concatenate(
        [
            np.diagonal(h, axis1=-2, axis2=-1).real,
            np.sqrt(2.0) * upper.real,
            np.sqrt(2.0) * upper.imag,
        ],
        axis=-1,
    )


def real_to_hermitian(coords, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_real`, also on a stack of shape ``(..., d * d)``."""
    x = np.asarray(coords, dtype=float)
    if x.shape[-1:] != (d * d,):
        raise ValidationError(f"expected {d * d} coordinates, got shape {x.shape}")
    h = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    h.reshape(x.shape)[..., :: d + 1] = x[..., :d]
    iu, ju = _upper_pairs(d)
    k = d + iu.size
    upper = (x[..., d:k] + 1j * x[..., k:]) / np.sqrt(2.0)
    h[..., iu, ju] = upper
    h[..., ju, iu] = upper.conj()
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

    The generators are stacked once, and the stack and the target must hold
    matrices of the first generator's square shape. Raises NotHermitian when
    any matrix fails validate_hermitian's test.
    """
    stack = generators if isinstance(generators, np.ndarray) else list(generators)
    n = len(stack)
    if n == 0:
        raise ValidationError("need at least one generator")
    d = np.shape(stack[0])[0]
    with suppress(ValueError):  # a ragged list stays a list
        stack = np.asarray(stack, dtype=complex)
    target_shape = (d, d) if target is None else np.shape(target)
    if getattr(stack, "shape", ())[1:] != (d, d) or target_shape != (d, d):
        raise ValidationError(f"all matrices must be {d} x {d}, like the first generator")
    if target is not None:
        stack = np.concatenate([stack, np.asarray(target, dtype=complex)[None]])
    stack = as_complex(stack, "generator or target")
    require_hermitian(stack)
    points = hermitian_to_real(stack)
    return d, points[:n], None if target is None else points[n]


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


def _check_inside(points, x, w, tol: float) -> None:
    """Raise CertificateError unless ``w`` are convex weights of ``points`` giving ``x``."""
    residual = float(np.linalg.norm(points.T @ w - x))
    if residual > tol:
        raise CertificateError(
            f"inside certificate fails reconstruction: residual {residual:.3e}"
        )
    if w.min() < -config.INSIDE_WEIGHT_SLACK:
        raise CertificateError(f"inside certificate has weight {w.min():.3e} < 0")
    if abs(w.sum() - 1.0) > config.INSIDE_WEIGHT_SUM_TOL:
        raise CertificateError(f"inside certificate weights sum to {w.sum()}")


def membership_lp_points(
    target, generators, tol: float | None = None
) -> MembershipCertificate:
    """Decide membership of a point in the convex hull of generator points."""
    tol = config.FEASIBILITY_TOL if tol is None else tol
    points = np.asarray(generators, dtype=float)
    x = np.asarray(target, dtype=float)
    result = _hull_lp(points, x, None, tol)

    if result.status == OPTIMAL:
        _check_inside(points, x, result.x, tol)
        return MembershipCertificate(INSIDE, result.x, None, None, None, None, tol)

    assert result.status == INFEASIBLE
    y = result.farkas
    v = y[: points.shape[1]]
    norm = float(np.linalg.norm(v))
    if norm < config.FUNCTIONAL_ZERO_NORM:
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
    return hermitian_certificate(membership_lp_points(x, points, tol=tol), d)


def hermitian_certificate(outcome: MembershipCertificate, d: int) -> MembershipCertificate:
    """A certificate over embedded d x d matrices, as :func:`membership_lp` reports it."""
    if outcome.verdict == INSIDE:
        return outcome
    functional = real_to_hermitian(outcome.functional, d)
    trace = float(np.trace(functional).real)
    if trace <= config.FUNCTIONAL_TRACE_FLOOR:
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


def facet_enumeration_points(points) -> list[Facet]:
    """All bounding hyperplanes of the convex hull of a small point set.

    Works inside the affine hull of the points: candidate hyperplanes pass
    through affinely independent subsets of size equal to the affine
    dimension, are kept when all points lie on one closed side, and are
    deduplicated on their active sets and their normalized hull-coordinates
    form. Facets come back in a canonical order independent of the input
    ordering.

    Two paths give the same facets to the bit. At affine rank r >= 3, with
    fewer than 64 points and at least ``config.FACET_WRAP_MIN_SUBSETS``
    rank-subsets C(n, r), gift wrapping (``_wrap``) walks from facet to
    neighbouring facet. It returns its facets only when its own numbers
    prove that the subset search would return the same list, and gives up
    at the first facet visited that fails that proof, which on the spin-1
    set is the first facet. Every other set, and
    every set it gives up on, goes to the subset search
    (``_subset_search``), which tests all C(n, r) rank-subsets. Raises
    DimensionTooLarge before either path when the number of subsets exceeds
    ``config.MAX_FACET_SUBSETS``, or when the side-test entries, n per
    subset, exceed ``config.MAX_FACET_SIDE_ENTRIES``.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    centroid = pts.mean(axis=0)
    deltas = pts - centroid
    _, sing, vt = np.linalg.svd(deltas, full_matrices=False)
    rank = int(np.count_nonzero(sing > _rank_cutoff(sing))) if sing.size else 0
    if rank < 1:
        raise DegenerateHull("generators span no affine directions")
    n_subsets = math.comb(n, rank)
    if n_subsets > config.MAX_FACET_SUBSETS:
        raise DimensionTooLarge(
            f"facet enumeration would test C({n}, {rank}) = {n_subsets} subsets, "
            f"over the limit of {config.MAX_FACET_SUBSETS}"
        )
    if n_subsets * n > config.MAX_FACET_SIDE_ENTRIES:
        raise DimensionTooLarge(
            f"facet enumeration would evaluate C({n}, {rank}) * {n} = {n_subsets * n} "
            f"side-test entries, over the limit of {config.MAX_FACET_SIDE_ENTRIES}"
        )
    basis = vt[:rank].T
    hull_pts = deltas @ basis
    # The side values of the hyperplanes below may round differently from
    # exact ones by at most this much.
    slack = 8 * rank * np.finfo(float).eps * float(np.abs(hull_pts).sum(axis=1).max())
    # Below 64 points a simplex, of rank + 1 subsets, never reaches the crossover.
    wrap = rank >= 3 and n < 64 and n_subsets >= config.FACET_WRAP_MIN_SUBSETS
    found = _wrap(hull_pts, slack) if wrap else None
    planes, firsts, actives = found or _subset_search(hull_pts, slack)
    ambient = np.matmul(basis, planes[firsts, :-1, None])[..., 0]
    offsets = (planes[firsts, -1] + np.matmul(ambient[:, None], centroid)[:, 0]).tolist()
    # Canonical order: offsets rounded by Python's round, functionals by numpy's.
    keys = [(round(o, 9), *row) for o, row in zip(offsets, np.round(ambient, 9).tolist())]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [Facet(ambient[k], offsets[k], actives[k]) for k in order]


def _spanned_planes(hull_pts, anchors, normals, active_tol):
    """Oriented hyperplanes of subsets and their side values, rounded as the per-subset ones.

    Each hyperplane is its unit normal and then its offset, negated when all
    points lie within ``active_tol`` above it but not below. Also returns
    which hyperplanes have all points within ``active_tol`` on one side.
    """
    # These stacked products round as the per-subset ones do; einsum need not.
    offsets = np.matmul(normals[:, None, :], anchors[:, :, None])[:, 0]
    side = np.matmul(hull_pts, normals[:, :, None])[..., 0] - offsets
    below = side.max(axis=1) <= active_tol
    flip = ~below & (side.min(axis=1) >= -active_tol)
    planes = np.hstack([normals, offsets])
    planes[flip] = -planes[flip]
    side[flip] = -side[flip]
    return planes, side, below | flip


def _subset_search(hull_pts, slack):
    """Kept hyperplanes, the first per active set in subset order, and those active sets.

    The subsets are walked in ``combinations`` order, ``FACET_BLOCK`` at a
    time (fewer for thousands of points). A drop test removes each block's
    subsets with points strictly on both sides of their hyperplane by more
    than a margin: the active tolerance plus ``slack`` and, at rank 2 and
    above, where one stacked solve gives cheap normals, a bound on how far
    their side values can lie from the SVD normal's (see ``_prefilter``).
    One stacked SVD of the rest gives their rank tests and normals. Stacked
    products that round as the per-subset ones do give all their side values
    at once, and the one-sided hyperplanes are then deduplicated in subset
    order (see ``_unmatched``), so the first found for a facet, and for an
    active set, stands for it.
    """
    active_tol = config.FACET_ACTIVE_TOL
    n, rank = hull_pts.shape
    n_subsets = math.comb(n, rank)
    # Each kept hyperplane is its unit normal and then its offset.
    kept_planes = np.empty((n_subsets, rank + 1))
    kept = 0
    listed: dict[tuple[int, ...], int] = {}  # active set -> its first kept hyperplane
    block_size = max(1, min(FACET_BLOCK, FACET_SIDE_ENTRIES // n))
    subsets = combinations(range(n), rank)
    for _ in range(0, n_subsets, block_size):
        block = np.fromiter(
            chain.from_iterable(islice(subsets, block_size)), dtype=np.intp
        ).reshape(-1, rank)
        anchors = hull_pts[block[:, 0]]
        if rank == 1:
            normals, margin = np.ones((len(block), 1)), active_tol + slack
        else:
            rows = hull_pts[block[:, 1:]] - anchors[:, None, :]
            normals, margin = _prefilter(rows, anchors, hull_pts, active_tol + slack)
        side = hull_pts @ normals.T - np.einsum("ij,ij->i", normals, anchors)
        # NaN side values or margins (no cheap normal, or no spanning rows) prove nothing.
        unproven = ~((side.max(axis=0) > margin) & (side.min(axis=0) < -margin))
        normals, anchors = normals[unproven], anchors[unproven]
        if rank > 1:
            _, sv, svt = np.linalg.svd(rows[unproven])
            spanning = np.count_nonzero(sv > _rank_cutoff(sv)[:, None], axis=1) == rank - 1
            normals, anchors = svt[spanning, -1], anchors[spanning]
        planes, side, one_sided = _spanned_planes(hull_pts, anchors, normals, active_tol)
        one_sided = np.flatnonzero(one_sided)
        found = one_sided[_unmatched(planes[one_sided], kept_planes[:kept])]
        kept_planes[kept : kept + len(found)] = planes[found]
        # Near a degenerate configuration, hyperplanes through different
        # subsets can hold the same active set yet differ by more than
        # FACET_MATCH_TOL; the first one found stands for that face.
        for k, on in enumerate(np.abs(side[found]) <= active_tol, start=kept):
            listed.setdefault(tuple(np.flatnonzero(on).tolist()), k)
        kept += len(found)
    return kept_planes, list(listed.values()), list(listed)


def _wrap(hull_pts, slack):
    """The subset search's result by gift wrapping, or None where it cannot prove it equal.

    The first facet comes from the point of least first hull coordinate and
    the supporting hyperplane of normal -e_0, rotated rank - 1 times, each
    time about the flat of the points found so far, onto the point it meets
    first. Then each breadth-first level takes the frontier's facets, as
    member subsets in increasing order, through one stacked SVD of their
    spanning rows A, with the subset search's expressions, so that each
    hyperplane and side value has the bits the subset search gives that
    subset. The same SVD gives the pseudo-inverse of A, whose column j is
    orthogonal to the ridge without member j + 1 and has unit product with
    that member's row: the coordinates of the points along the columns are
    barycentric, v = 1 on the member left out of the ridge and 0 on the
    ridge. Pivoting the hyperplane about that ridge, with u the side value,
    meets first the point of least atan2(-u, -v), and the neighbouring facet
    holds the ridge and that point.

    With r the rank, gamma = 64 r eps as in ``_prefilter``, reach the
    largest norm of a point and err = 2 gamma sqrt(r - 1) reach, which
    bounds the SVD's backward error gamma ||A||_F on any rows of r - 1
    point differences, every facet visited must pass three checks, or the
    walk gives up:

    - its rows are spanning under the subset search's SVD rule, and their
      sigma_min exceeds 2 err;
    - its r members have |side| <= FACET_ACTIVE_TOL;
    - every other point has side <= -(G + t), where
      G = 2 r (FACET_ACTIVE_TOL + 2 slack + err) + FACET_MATCH_TOL (1 + reach)
      and t = 4 sqrt(2) reach err / sigma_min bounds how far the side values
      lie from those of the exact hyperplane through the members (as in
      ``_prefilter``, the two normals are within sqrt(2) err over the exact
      sigma_min, at least sigma_min / 2, of each other; t is below 1e-10 on
      generic sets).

    Why the checks prove the subset search's list:

    1. Each facet that passes is a facet of the exact hull, with exactly its
       r members on it. Its neighbour across a ridge is the one other facet
       holding that ridge, so a pivot that lands on a passing facet lands on
       the neighbour. A walk that closes with every facet passing has
       visited a union of components of the facet graph, which is
       connected: all the facets.
    2. The subset search keeps no other subset T. If T's hyperplane were
       one-sided, the centroid c of T would lie within
       tau = FACET_ACTIVE_TOL + 2 slack + gamma ||A_T||_F of the hull's
       boundary, so within tau inside some facet. Then the r points of T,
       whose distances inside that facet average at most tau, would include
       one off the facet within r tau + (r - 1)(FACET_ACTIVE_TOL + slack)
       < G inside it, which the checks rule out.
    3. Two passing hyperplanes whose offsets and normals matched within
       FACET_MATCH_TOL would give a member of one a side value above
       -FACET_ACTIVE_TOL - FACET_MATCH_TOL (1 + reach) > -G on the other, so
       the subset search's dedup merges none of them, and their active sets
       are their members. It keeps exactly these hyperplanes, each first
       found at its members, in the order ``combinations`` lists them.
    """
    active_tol = config.FACET_ACTIVE_TOL
    n, rank = hull_pts.shape
    reach = float(np.linalg.norm(hull_pts, axis=1).max())
    err = 2 * 64 * rank * np.finfo(float).eps * math.sqrt(rank - 1) * reach
    gap = 2 * rank * (active_tol + 2 * slack + err) + config.FACET_MATCH_TOL * (1 + reach)
    bits = 1 << np.arange(n, dtype=np.int64)

    start = int(np.argmin(hull_pts[:, 0]))
    toward = hull_pts - hull_pts[start]
    members, normal = [start], -np.eye(rank)[0]
    flat = np.zeros((0, rank))  # orthonormal directions of the members' flat
    for _ in range(rank - 1):
        # The unit projection, off the normal and the flat, of the axis it shortens least.
        rest = np.eye(rank) - np.outer(normal, normal) - flat.T @ flat
        turn = rest[np.argmax(np.einsum("ij,ij->i", rest, rest))]
        turn = turn / np.linalg.norm(turn)
        u, v = toward @ normal, toward @ turn
        angle = np.arctan2(-u, -v)
        angle[members] = np.inf
        k = int(np.argmin(angle))
        step = toward[k] - flat.T @ (flat @ toward[k])
        size, length = math.hypot(u[k], v[k]), float(np.linalg.norm(step))
        if not (size > 0 and length > 0):  # k repeats a point of the flat
            return None
        normal = (u[k] * turn - v[k] * normal) / size
        flat = np.vstack([flat, step / length])
        members.append(k)

    frontier = seen = np.array([bits[members].sum()])
    levels = []
    while frontier.size:
        on = (frontier[:, None] & bits) != 0
        index = np.nonzero(on)[1].reshape(-1, rank)
        anchors = hull_pts[index[:, 0]]
        rows = hull_pts[index[:, 1:]] - anchors[:, None, :]
        left, sv, svt = np.linalg.svd(rows)
        spanning = sv[:, -1] > np.maximum(_rank_cutoff(sv), 2 * err)
        if not spanning.all():
            return None
        # Copies made as the subset search makes them, so that the products round alike.
        planes, side, _ = _spanned_planes(hull_pts, anchors[spanning], svt[spanning, -1], active_tol)
        tilt = 4 * math.sqrt(2.0) * reach * err / sv[:, -1]
        if not ((side <= np.where(on, active_tol, -gap - tilt[:, None])).all()
                and (side[on] >= -active_tol).all()):
            return None
        levels.append((planes, index))
        # Barycentric coordinates: 1 on the member left out of the ridge, 0 on the ridge.
        inverse = np.matmul(svt[:, :-1].transpose(0, 2, 1) / sv[:, None, :], left.transpose(0, 2, 1))
        along = np.matmul(hull_pts, inverse) - np.matmul(anchors[:, None, :], inverse)
        v = np.concatenate([1.0 - along.sum(axis=2, keepdims=True), along], axis=2)
        angle = np.arctan2(-side[..., None], -v)
        angle[on] = np.inf
        pivots = np.sort(frontier[:, None] - bits[index] + bits[np.argmin(angle, axis=1)], axis=None)
        pivots = pivots[np.append(True, pivots[1:] != pivots[:-1])]
        known = seen[np.minimum(np.searchsorted(seen, pivots), len(seen) - 1)] == pivots
        frontier = pivots[~known]
        seen = np.sort(np.concatenate([seen, frontier]))
    planes, index = (np.concatenate(parts) for parts in zip(*levels))
    firsts = np.lexsort(index.T[::-1])
    return planes, firsts, [tuple(row) for row in index[firsts].tolist()]


def _unmatched(planes, kept_planes) -> np.ndarray:
    """Which hyperplanes, in order, match no kept one and no earlier one kept.

    Matching offsets, and normals by the norm of their difference, agree within FACET_MATCH_TOL.
    """
    match_tol = config.FACET_MATCH_TOL
    base = len(kept_planes)
    pool = np.concatenate([kept_planes, planes])
    near = np.abs(planes[:, -1:] - pool[:, -1]) <= match_tol
    near[:, base:] = np.tril(near[:, base:], k=-1)
    keep = np.ones(len(planes), dtype=bool)
    # In pool order, each kept hyperplane drops the later ones it matches.
    for c in np.flatnonzero(near.any(axis=0)).tolist():
        if c < base or keep[c - base]:
            rows = np.flatnonzero(near[:, c] & keep)
            apart = np.linalg.norm(planes[rows, :-1] - pool[c, :-1], axis=1)
            keep[rows[apart <= match_tol]] = False
    return keep


def _rank_cutoff(sing):
    """Singular values above this count towards the rank, per matrix of a stack."""
    return np.maximum(
        config.FACET_RANK_ABS_CUTOFF, sing[..., 0] * config.FACET_RANK_REL_CUTOFF
    )


def _prefilter(rows, anchors, hull_pts, limit):
    """Cheap unit normals of a block of subsets, and per subset the margin that proves it two-sided.

    ``rows`` stacks each subset's spanning rows A, (rank - 1) x rank, and
    ``anchors`` their anchor points a. Each A with the probe row appended is
    solved for e_rank in one stacked call, and the unit solution n is a
    cheap normal. If that call raises, a second one leaves out the systems
    whose determinant, from the same LU, is zero; a subset left without a
    finite n proves nothing and goes to the SVD. A subset with some point
    above ``limit + delta`` and some below ``-limit - delta`` under n cannot
    be a facet, where delta bounds how far its side values can lie from the
    SVD normal v's for any A the SVD would call spanning:

    - with gamma = 64 * rank * eps, generous for the SVD's backward error,
      the SVD's singular values are within gamma ||A||_F of the exact ones,
      and sigma_max >= ||A||_F / sqrt(rank - 1); so a kept A, whose
      computed sigma_min exceeds FACET_RANK_REL_CUTOFF * sigma_max, has
      sigma_min >= s = ||A||_F (REL / sqrt(rank - 1) - 2 gamma);
    - a unit x whose part w orthogonal to the null vector u of A has
      ||A x|| >= s ||w||, so x is within sqrt(2) ||w|| <= sqrt(2) ||A x|| / s
      of +u or -u;
    - v is a null vector of A + E with ||E|| <= gamma ||A||_F, so
      ||A v|| <= gamma ||A||_F, and the computed ||A n|| is within another
      gamma ||A||_F of the exact one: up to sign, n and v are within
      sqrt(2) (||A n|| + 2 gamma ||A||_F) / s, plus 8 * rank * eps for
      their norms being one only to rounding;
    - a side value (q - a) . x then moves by at most
      (max ||q|| + ||a||) times that distance.

    ``limit`` carries the active tolerance and the rounding slack of the
    side values themselves.
    """
    count, rank = anchors.shape
    eps = np.finfo(float).eps
    square = np.empty((count, rank, rank))
    square[:, :-1] = rows
    square[:, -1] = np.cos(FACET_PROBE_ANGLE * np.arange(1, rank + 1))
    unit = np.zeros(rank)
    unit[-1] = 1.0
    with np.errstate(all="ignore"):
        try:
            normals = np.linalg.solve(square, unit)
        except np.linalg.LinAlgError:
            normals = np.full((count, rank), np.nan)
            regular = np.linalg.det(square) != 0
            with suppress(np.linalg.LinAlgError):
                normals[regular] = np.linalg.solve(square[regular], unit)
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        size = np.linalg.norm(rows, axis=(1, 2))
        residual = np.linalg.norm(np.einsum("ijk,ik->ij", rows, normals), axis=1)
        gamma = 64 * rank * eps
        floor = size * max(0.0, config.FACET_RANK_REL_CUTOFF / math.sqrt(rank - 1) - 2 * gamma)
        apart = math.sqrt(2.0) * (residual + 2 * gamma * size) / floor + 8 * rank * eps
        reach = float(np.linalg.norm(hull_pts, axis=1).max()) + np.linalg.norm(anchors, axis=1)
    return normals, limit + reach * apart


def facet_enumeration(generators) -> list[Facet]:
    """Facets of the hull of Hermitian generators, as Hermitian functionals."""
    d, points, _ = _embed(generators)
    facets = facet_enumeration_points(points)
    functionals = real_to_hermitian(np.reshape([f.functional for f in facets], (-1, d * d)), d)
    return [replace(f, functional=h) for f, h in zip(facets, functionals)]


def finite_convex_roof_points(values, target, points) -> tuple[float, np.ndarray]:
    """Smallest convex combination of generator values reproducing a target.

    This is the exact convex roof of the value assignment when the point
    set is the full extreme set of its hull. Raises OutsideHull when the
    target is not a convex combination of the points, and CertificateError
    when the optimal weights fail the checks of an inside certificate.
    """
    pts = np.asarray(points, dtype=float)
    x = np.asarray(target, dtype=float)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValidationError("one value per generator is required")
    result = _hull_lp(pts, x, vals, config.FEASIBILITY_TOL)
    if result.status == INFEASIBLE:
        raise OutsideHull("target is outside the convex hull of the generators")
    if result.status != OPTIMAL:
        raise CertificateError(f"unexpected LP status {result.status}")
    _check_inside(pts, x, result.x, config.FEASIBILITY_TOL)
    return float(result.objective), result.x


def finite_convex_roof(values, target, generators) -> float:
    """Hermitian wrapper around :func:`finite_convex_roof_points`."""
    _, points, x = _embed(generators, target)
    return finite_convex_roof_points(values, x, points)[0]
