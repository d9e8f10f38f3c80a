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
through facets with more points on them than the affine rank as well as
simplicial ones, wherever its own numbers prove its list equal to the bit
to that of the search over all rank-subsets. The rare sets it gives up on,
and sets of affine rank below 3, take that subset search.
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

    At affine rank r >= 3 and with fewer than 64 points, gift wrapping
    (``_wrap``) walks from facet to neighbouring facet, through facets with
    r points on them and facets with more. It returns its facets only when
    its own numbers prove that the subset search would return the same list
    to the bit, and gives up at the first facet visited that fails that
    proof. Sets of lower rank or more points, and the sets it gives up on,
    go to the subset search (``_subset_search``), which tests all C(n, r)
    rank-subsets. Raises DimensionTooLarge before either path when the
    number of subsets exceeds ``config.MAX_FACET_SUBSETS``, or when the
    side-test entries, n per subset, exceed ``config.MAX_FACET_SIDE_ENTRIES``.
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
    # Seeds and members of the walk are bitmasks of 64 bits.
    found = _wrap(hull_pts) if rank >= 3 and n < 64 else None
    planes, _, actives = found or _subset_search(hull_pts)
    ambient = np.matmul(basis, planes[:, :-1, None])[..., 0]
    offsets = (planes[:, -1] + np.matmul(ambient[:, None], centroid)[:, 0]).tolist()
    # Canonical order: offsets rounded by Python's round, functionals by numpy's.
    keys = [(round(o, 9), *row) for o, row in zip(offsets, np.round(ambient, 9).tolist())]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [Facet(ambient[k], offsets[k], actives[k]) for k in order]


def _spanned(hull_pts, subsets):
    """Which rank-subsets span, the SVD of their rows, and the spanning ones' hyperplanes.

    Row i of ``subsets`` holds point indices, and its rows are its points
    less its first, the anchor; at rank 1 every subset spans, with normal 1,
    and the SVD is None. Each hyperplane is its unit normal and then its
    offset, negated when all points lie within FACET_ACTIVE_TOL above it but
    not below, with the side values of all points; the last array says which
    hyperplanes have all points within that tolerance on one side.
    """
    active_tol = config.FACET_ACTIVE_TOL
    anchors = hull_pts[subsets[:, 0]]
    if hull_pts.shape[1] == 1:
        spanning, svd = np.ones(len(subsets), dtype=bool), None
        normals = np.ones((len(subsets), 1))
    else:
        svd = np.linalg.svd(hull_pts[subsets[:, 1:]] - anchors[:, None, :])
        spanning = svd[1][:, -1] > _rank_cutoff(svd[1])
        normals = svd[2][spanning, -1]
    # These stacked products of masked copies round as the per-subset ones do; einsum need not.
    anchors = anchors[spanning]
    offsets = np.matmul(normals[:, None, :], anchors[:, :, None])[:, 0]
    side = np.matmul(hull_pts, normals[:, :, None])[..., 0] - offsets
    below = side.max(axis=1) <= active_tol
    flip = ~below & (side.min(axis=1) >= -active_tol)
    planes = np.hstack([normals, offsets])
    planes[flip] = -planes[flip]
    side[flip] = -side[flip]
    return spanning, svd, planes, side, below | flip


def _subset_search(hull_pts):
    """Listed hyperplanes in subset order, the subsets that first give them, and their active sets.

    The subsets are walked in ``combinations`` order, ``FACET_BLOCK`` at a
    time (fewer for thousands of points). One stacked SVD per block gives
    their rank tests and normals. Stacked products that round as the
    per-subset ones do give all their side values at once, and the
    one-sided hyperplanes are then deduplicated in subset order (see
    ``_unmatched``), so the first found for a facet, and for an active set,
    stands for it.
    """
    n, rank = hull_pts.shape
    kept_planes = np.empty((0, rank + 1))
    kept_subsets = []
    listed: dict[tuple[int, ...], int] = {}  # active set -> its first kept hyperplane
    block_size = max(1, min(FACET_BLOCK, FACET_SIDE_ENTRIES // n))
    subsets = combinations(range(n), rank)
    for _ in range(0, math.comb(n, rank), block_size):
        block = np.fromiter(
            chain.from_iterable(islice(subsets, block_size)), dtype=np.intp
        ).reshape(-1, rank)
        spanning, _, planes, side, one_sided = _spanned(hull_pts, block)
        one_sided = np.flatnonzero(one_sided)
        found = one_sided[_unmatched(planes[one_sided], kept_planes)]
        # Near a degenerate configuration, hyperplanes through different
        # subsets can hold the same active set yet differ by more than
        # FACET_MATCH_TOL; the first one found stands for that face.
        for k, on in enumerate(np.abs(side[found]) <= config.FACET_ACTIVE_TOL, len(kept_planes)):
            listed.setdefault(tuple(np.flatnonzero(on).tolist()), k)
        kept_planes = np.concatenate([kept_planes, planes[found]])
        kept_subsets.append(block[spanning][found])
    firsts = list(listed.values())
    return kept_planes[firsts], np.concatenate(kept_subsets)[firsts], list(listed)


def _wrap(hull_pts):
    """The subset search's result by gift wrapping, or None where it cannot prove it equal.

    The first facet comes from the point of least first hull coordinate and
    the supporting hyperplane of normal -e_0, rotated rank - 1 times about
    the flat of the points found so far onto the point off that flat it
    meets first, or kept if that point lies on it. Then each breadth-first
    level takes the frontier's seeds, r points each with r the rank, through
    one stacked SVD with the subset search's expressions (``_spanned``), so
    that each hyperplane and side value has the bits the subset search gives
    that subset. A seed's facet has as members the points within
    FACET_ACTIVE_TOL of its hyperplane. A facet with r members is its seed,
    its ridges the seed less one member. One with more, taken once by
    ``_wide_facet``, runs those expressions on all its member r-subsets in
    ``combinations`` order: its hyperplane is the first that spans and is
    one-sided, and its ridges those of these subsets' simplices with every
    member within FACET_ACTIVE_TOL inside. ``_pivots`` pivots about ridges.

    With gamma = 64 r eps, generous for the SVD's backward error, reach the
    largest norm of a point, err = 2 gamma sqrt(r - 1) reach, which bounds
    gamma ||A||_F on any rows A of r - 1 point differences, and slack the
    most by which a side value may round off the exact one, the walk gives
    up unless:

    - every seed spans under the subset search's SVD rule with
      sigma_min > 2 err, and its points are members of its facet;
    - every one-sided hyperplane of a facet's member r-subsets, of which
      there is one at least, has sigma_min > 2 err, |side| <= e <=
      FACET_ACTIVE_TOL on the members and side <= -(G + t) elsewhere, with
      G = r (FACET_ACTIVE_TOL + 4 slack + err) + (2 r - 1) e
      + FACET_MATCH_TOL (1 + reach); t = 4 sqrt(2) reach err / sigma_min
      bounds the side values' distance from those of the exact hyperplane
      through the subset, whose normal the SVD's is within 2 sqrt(2) err /
      sigma_min of (t is below 1e-10 on generic sets);
    - a pivot about a ridge of a facet with more than r members lands on a
      facet holding that ridge's members and the point it met.

    Why the checks prove the subset search's list, with a point at least G
    below a facet's hyperplane called off that facet:

    1. A passing facet with r members is a facet of the exact hull with
       exactly those points on it. One with more, F, holds its members
       within FACET_ACTIVE_TOL + slack of its hyperplane and every other
       point off it, so the exact hull's facets with all vertices in F, its
       pieces, make up the boundary near that hyperplane. A facet E of the
       exact hull sharing a ridge with a piece, and holding a point q off F,
       has every member below its hyperplane while q lies G below F's: the
       ridge lies on a ridge of the members' hull inside F's hyperplane,
       about which the pivot meets q, or another point of E, first. So a
       pivot that lands on a passing facet holding the ridge lands on the
       neighbour, and a walk that closes with every facet passing has
       visited the facets and pieces of a union of components of the exact
       hull's facet graph, which is connected: all of them.
    2. The subset search keeps no subset T outside every facet's members.
       If T's hyperplane were one-sided, T's centroid would lie within
       tau = FACET_ACTIVE_TOL + 2 slack + gamma ||A_T||_F inside a facet or
       piece, so within tau + e + slack inside the hyperplane of a visited
       facet. The r points of T lie at most e + slack above it, so each lies
       within r (tau + e + slack) + (r - 1)(e + slack) < G - slack below
       it: T holds members only.
    3. One-sided hyperplanes of two facets' member subsets that matched
       within FACET_MATCH_TOL would give a member of one facet off the other
       side values within FACET_MATCH_TOL (1 + reach) + 2 slack of each
       other, above -FACET_ACTIVE_TOL and at most -G; so the dedup merges no
       two facets. Within a facet every one-sided member hyperplane has the
       members as active set, so the first is the one listed. The subset
       search lists exactly the facets' hyperplanes, each at the subset the
       walk gives for it, in the order ``combinations`` lists those subsets.
    """
    active_tol = config.FACET_ACTIVE_TOL
    n, rank = hull_pts.shape
    reach = float(np.linalg.norm(hull_pts, axis=1).max())
    slack = 8 * rank * np.finfo(float).eps * float(np.abs(hull_pts).sum(axis=1).max())
    err = 2 * 64 * rank * np.finfo(float).eps * math.sqrt(rank - 1) * reach
    gap = rank * (active_tol + 4 * slack + err) + config.FACET_MATCH_TOL * (1 + reach)
    bits = 1 << np.arange(n, dtype=np.int64)

    start = int(np.argmin(hull_pts[:, 0]))
    toward = hull_pts - hull_pts[start]
    members, normal = [start], -np.eye(rank)[0]
    flat = np.zeros((0, rank))  # orthonormal directions of the members' flat
    cutoff = _rank_cutoff(np.array([reach]))
    for _ in range(rank - 1):
        # The unit projection, off the normal and the flat, of the axis it shortens least.
        rest = np.eye(rank) - np.outer(normal, normal) - flat.T @ flat
        turn = rest[np.argmax(np.einsum("ij,ij->i", rest, rest))]
        turn = turn / np.linalg.norm(turn)
        u, v = toward @ normal, toward @ turn
        steps = toward - (toward @ flat.T) @ flat
        lengths = np.linalg.norm(steps, axis=1)
        angle = np.arctan2(-u, -v)
        angle[members] = np.inf
        angle[lengths <= cutoff] = np.inf  # points of the flat
        k = int(np.argmin(angle))
        if angle[k] == np.inf:
            return None
        if size := math.hypot(u[k], v[k]):  # else k lies on the hyperplane already
            normal = (u[k] * turn - v[k] * normal) / size
        flat = np.vstack([flat, steps[k] / lengths[k]])
        members.append(k)

    def passes(side, on, sigma_min):
        spread = np.abs(np.where(on, side, 0.0)).max(axis=1)
        tilt = 4 * math.sqrt(2.0) * reach * err / sigma_min
        high = np.where(on, active_tol, -(gap + (2 * rank - 1) * spread + tilt)[:, None])
        return bool((sigma_min > 2 * err).all() and (side <= high).all() and (side[on] >= -active_tol).all())

    frontier = seen = np.array([bits[members].sum()])
    wide = np.empty(0, dtype=np.int64)  # members of the facets with more than r, as bitmasks
    held = []  # those facets' ridges with the point each pivot met, where more than its seed
    facets, actives = [], []  # hyperplanes and the subsets giving them, per level; active sets
    while frontier.size:
        index = np.nonzero((frontier[:, None] & bits) != 0)[1].reshape(-1, rank)
        spanning, svd, planes, side, _ = _spanned(hull_pts, index)
        on = np.abs(side) <= active_tol
        if not (spanning.all() and (svd[1][:, -1] > 2 * err).all()) or (frontier & ~(on @ bits)).any():
            return None
        # A seed with r members is a new facet; one with more may repeat one.
        counts = on.sum(axis=1)
        more = np.flatnonzero(counts > rank)
        simple = counts == rank if more.size else slice(None)
        if not passes(side[simple], on[simple], svd[1][simple, -1]):
            return None
        facets.append((planes[simple], index[simple]))
        actives += map(tuple, index[simple].tolist())
        steps = _pivots(hull_pts, index[simple], [p[simple] for p in svd], side[simple], on[simple])[0].ravel()
        steps, lands = [steps], [steps]
        for k in more:
            if (mask := on[k] @ bits) in wide:
                continue
            found = _wide_facet(hull_pts, np.flatnonzero(on[k]), passes)
            if found is None:
                return None
            wide = np.append(wide, mask)
            facets.append((found[0][None], found[1][None]))
            actives.append(tuple(np.flatnonzero(on[k]).tolist()))
            steps.append(found[2])
            lands.append(found[3])
            held.append(found[3][found[3] != found[2]])
        # A pivot whose ridge and point a facet with more members holds lands there, with no SVD.
        pivots, lands = np.concatenate(steps), np.concatenate(lands)
        pivots = np.sort(pivots[((lands[:, None] & ~wide) != 0).all(axis=1)])
        pivots = pivots[np.concatenate([pivots[:1] >= 0, pivots[1:] != pivots[:-1]])]
        frontier = pivots[seen[np.minimum(np.searchsorted(seen, pivots), len(seen) - 1)] != pivots]
        seen = np.sort(np.concatenate([seen, frontier]))
    # Pivots about the others' ridges land on their seeds' facets, which hold the seeds.
    if held and ((np.concatenate(held)[:, None] & ~wide) != 0).all(axis=1).any():
        return None
    planes, subsets = (np.concatenate(parts) for parts in zip(*facets))
    order = np.lexsort(subsets.T[::-1]).tolist()
    return planes[order], subsets[order], [actives[k] for k in order]


def _wide_facet(hull_pts, members, passes):
    """A facet with more members than the rank, as the walk checks it, or None where it fails.

    Returns its hyperplane, its first one-sided member subset, and per ridge
    the next seed and the ridge's members with the point met, as bitmasks.
    """
    n, rank = hull_pts.shape
    subsets = np.fromiter(chain.from_iterable(combinations(members.tolist(), rank)), dtype=np.intp)
    subsets = subsets.reshape(-1, rank)
    spanning, svd, planes, side, one_sided = _spanned(hull_pts, subsets)
    on = np.zeros_like(side, dtype=bool)
    on[:, members] = True
    keep = np.flatnonzero(spanning)[one_sided]
    svd, side, on = [part[keep] for part in svd], side[one_sided], on[one_sided]
    if not (len(keep) and passes(side, on, svd[1][:, -1])):
        return None
    seeds, far, v, inverse = _pivots(hull_pts, subsets[keep], svd, side, on)
    # Distances inside each ridge along the subset's hyperplane, v over the
    # norm of its gradient; the facet's ridges are those with every member
    # within FACET_ACTIVE_TOL inside.
    grads = np.concatenate([-inverse.sum(axis=2, keepdims=True), inverse], axis=2)
    inside = v / np.linalg.norm(grads, axis=1)[:, None, :]
    ridge = on[..., None] & (np.abs(inside) <= config.FACET_ACTIVE_TOL)
    inner = ((inside >= -config.FACET_ACTIVE_TOL) | ~on[..., None]).all(axis=1)
    lands = np.einsum("mnr,n->mr", ridge, 1 << np.arange(n, dtype=np.int64)) + far
    lands, first = np.unique(lands[inner], return_index=True)
    return planes[one_sided][0], subsets[keep[0]], seeds[inner][first], lands


def _pivots(hull_pts, subsets, svd, side, on):
    """Per ridge of the subsets' simplices, each less one point: the next seed and the point met.

    ``svd`` is that of each subset's rows A, ``side`` the side values of its
    hyperplane and ``on`` its facet's members. Column j of the pseudo-inverse
    of A is orthogonal to the ridge without point j + 1 and has unit product
    with that point's row, so the coordinates v of the points along the
    columns, with 1 less their sum first, are barycentric: 1 on the point
    left out and 0 on the ridge. The pivot about a ridge meets first the
    point off the facet of least atan2(-u, -v), with u the side value. Seeds
    and points come as bitmasks, then v and the pseudo-inverses.
    """
    bits = 1 << np.arange(len(hull_pts), dtype=np.int64)
    left, sv, svt = svd
    inverse = np.matmul(svt[:, :-1].transpose(0, 2, 1) / sv[:, None, :], left.transpose(0, 2, 1))
    anchors = hull_pts[subsets[:, 0]]
    along = np.matmul(hull_pts, inverse) - np.matmul(anchors[:, None, :], inverse)
    v = np.concatenate([1.0 - along.sum(axis=2, keepdims=True), along], axis=2)
    angle = np.arctan2(-side[..., None], -v)
    angle[on] = np.inf
    far = bits[np.argmin(angle, axis=1)]
    members = bits[subsets]
    return members.sum(axis=1, keepdims=True) - members + far, far, v, inverse


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


def facet_enumeration(generators) -> list[Facet]:
    """Facets of the hull of Hermitian generators, as Hermitian functionals."""
    d, points, _ = _embed(generators)
    facets = facet_enumeration_points(points)
    functionals = real_to_hermitian(np.reshape([f.functional for f in facets], (-1, d * d)), d)
    return [Facet(h, f.offset, f.active) for f, h in zip(facets, functionals)]


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
