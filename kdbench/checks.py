"""Output checks that recompute every claim with the benchmark's own numpy.

Nothing here calls kdwitness except ``Decomposition.validate``, which the
roof checks run in addition to their own reconstruction. A failed check
raises :class:`CheckFailed`; the runner counts the job as failed.
"""

from functools import cache
from itertools import combinations
from math import comb

import numpy as np

SUPPORT_EPS = 1e-9  # the package's default counting threshold
MARGIN_MIN = 1e-7  # MARGIN_FACTOR x FEASIBILITY_TOL: thinner is indeterminate
FACET_TOL = 1e-7  # the facet enumeration's active tolerance
FLAT_TOL = 10 * FACET_TOL  # on a hyperplane, with room for rounding
HULL_TOL = 1e-9  # on a hyperplane, for the brute-force facets
DEGENERATE_GAP = 10 * FLAT_TOL  # nearer than this off a facet: near-degenerate


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def projectors(states) -> np.ndarray:
    s = np.asarray(states, dtype=complex)
    return np.einsum("ki,kj->kij", s, s.conj())


def real_coords(h) -> np.ndarray:
    """Orthonormal real coordinates of Hermitian matrices (last two axes)."""
    h = np.asarray(h, dtype=complex)
    d = h.shape[-1]
    iu, ju = np.triu_indices(d, k=1)
    upper = h[..., iu, ju]
    diag = np.diagonal(h, axis1=-2, axis2=-1).real
    return np.concatenate([diag, np.sqrt(2) * upper.real, np.sqrt(2) * upper.imag], axis=-1)


def affine_rank(points, tol=None) -> int:
    """Affine rank with singular values above ``tol``; by default the facet
    enumeration's own rule, relative to the largest singular value."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return 0
    sing = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    return int(np.count_nonzero(sing > (max(1e-12, sing[0] * 1e-9) if tol is None else tol)))


def support_uncertainty(states, u) -> np.ndarray:
    """n_A + n_B per state row: amplitudes above threshold in each basis."""
    s = np.asarray(states, dtype=complex)
    second = s @ np.conj(u)
    return ((np.abs(s) > SUPPORT_EPS).sum(axis=1)
            + (np.abs(second) > SUPPORT_EPS).sum(axis=1)).astype(float)


def kd_table(rho, u) -> np.ndarray:
    """q_ij = <b_j|a_i><a_i|rho|b_j> with |b_j> the j-th column of u."""
    return np.conj(u) * (np.asarray(rho, dtype=complex) @ u)


def total_nonpositivity(states, u) -> np.ndarray:
    return np.array([np.abs(kd_table(p, u)).sum() for p in projectors(states)])


# -- certificates -----------------------------------------------------------

def membership(expected: str, cert, generators, target) -> None:
    """``cert`` (verdict, weights, functional, threshold, margin) gives the
    expected verdict, and its certificate holds for the generators."""
    require(cert.verdict == expected, f"expected {expected}, reported {cert.verdict}")
    if expected == "inside":
        _inside(cert.weights, generators, target)
    else:
        _outside(cert.functional, cert.threshold, cert.margin, generators, target)


def _inside(weights, generators, target) -> None:
    w = np.asarray(weights, dtype=float)
    require(w.shape == (len(generators),), f"{w.shape} weights for {len(generators)} generators")
    require(w.min() >= -1e-12, f"negative weight {w.min():.3e}")
    require(abs(w.sum() - 1.0) <= 1e-9, f"weights sum to {w.sum()!r}")
    residual = np.linalg.norm(np.einsum("k,kij->ij", w, generators) - target)
    require(residual <= 1e-7, f"inside weights miss the target by {residual:.3e}")


def _outside(functional, threshold, margin, generators, target) -> None:
    f = np.asarray(functional, dtype=complex)
    require(np.linalg.norm(f - f.conj().T) <= 1e-9, "separating functional is not Hermitian")
    values = np.einsum("ij,kji->k", f, generators).real
    require(values.max() <= threshold + 1e-9,
            f"a generator exceeds the threshold by {values.max() - threshold:.3e}")
    gap = float(np.einsum("ij,ji->", f, target).real) - threshold
    require(abs(gap - margin) <= 1e-9 * max(1.0, abs(margin)),
            f"reported margin {margin!r} but the functional separates by {gap!r}")
    require(gap > MARGIN_MIN, f"margin {gap:.3e} is too thin to call outside")


def decomposition(weights, states, rho, objective, upper, validate) -> None:
    """An upper-bound decomposition reproduces rho and scores ``upper``."""
    w = np.asarray(weights, dtype=float)
    s = np.asarray(states, dtype=complex)
    validate(w, s, rho)
    require(w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-10, "weights are not a distribution")
    require(np.allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-9), "members are not unit vectors")
    residual = np.linalg.norm(np.einsum("k,kij->ij", w, projectors(s)) - rho)
    require(residual <= 1e-8, f"decomposition misses the state by {residual:.3e}")
    value = float(w @ objective(s))
    require(abs(value - upper) <= 1e-9 * max(1.0, abs(upper)),
            f"decomposition scores {value!r}, report says {upper!r}")


# -- combinatorial outputs ----------------------------------------------------

def minimal_states(states, u) -> None:
    d = u.shape[0]
    s = np.asarray(states, dtype=complex)
    require(len(s) == comb(2 * d, d + 1), f"{len(s)} minimal states, expected C({2 * d},{d + 1})")
    require(np.allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-9), "minimal states are not unit")
    counts = support_uncertainty(s, u)
    require(np.all(counts == d + 1), f"support counts {sorted(set(counts.tolist()))} != {d + 1}")


def kd_positive_states(states, u) -> None:
    for p in projectors(states):
        q = kd_table(p, u)
        require(q.real.min() >= -1e-9 and np.abs(q.imag).max() <= 1e-9,
                "filtered state has a nonpositive KD entry")


def incompatibility(report, u, rng) -> None:
    d = u.shape[0]
    require(report.completely_incompatible, "Haar basis reported not completely incompatible")
    require(report.minors_checked == comb(2 * d, d) - 1,
            f"{report.minors_checked} minors checked, expected {comb(2 * d, d) - 1}")
    rows, cols = list(report.argmin_rows), list(report.argmin_cols)
    at_argmin = abs(np.linalg.det(u[np.ix_(rows, cols)]))
    require(abs(at_argmin - report.min_abs_minor) <= 1e-9 * max(1.0, at_argmin),
            "reported smallest minor does not match its index sets")
    for _ in range(32):
        k = int(rng.integers(1, d + 1))
        r = np.sort(rng.choice(d, k, replace=False))
        c = np.sort(rng.choice(d, k, replace=False))
        sampled = abs(np.linalg.det(u[np.ix_(r, c)]))
        require(sampled >= report.min_abs_minor * (1 - 1e-9), "a sampled minor is below the minimum")


def facets(functionals, offsets, actives, generators, expect_count=None) -> bool:
    """Every listed facet is a supporting hyperplane of the generators at the
    enumeration's tolerance, and the list is the hull's facet list.

    The hull's facets come from :func:`hull_facets`. When no generator lies
    within ``DEGENERATE_GAP`` of one of their hyperplanes without being on
    it, the listed active sets must be exactly theirs. Otherwise the set is
    near-degenerate at the enumeration's tolerance: a generator that close to
    a hyperplane may count as on it, so a slight fold of the hull may come
    back flattened into one facet, beside or instead of its two sides, or
    twice with hyperplanes a little apart. Then every facet of the hull must
    lie on a listed facet, and the function returns True so the run can
    report how often that happened."""
    gens = np.asarray(generators, dtype=complex)
    points = real_coords(gens)
    rank, hull, gap = hull_facets(points)
    if expect_count is not None:
        require(len(functionals) == expect_count, f"{len(functionals)} facets, expected {expect_count}")
    slacks = []
    for f, offset, active in zip(functionals, offsets, actives):
        slack = offset - np.einsum("ij,kji->k", np.asarray(f, dtype=complex), gens).real
        require(slack.min() >= -FACET_TOL, f"a generator violates a facet by {-slack.min():.3e}")
        on = sorted(active)
        require(all(abs(slack[k]) <= FLAT_TOL for k in on), "an active generator is off its facet")
        require(all(slack[k] > 1e-8 for k in range(len(gens)) if k not in on),
                "an inactive generator lies on its facet")
        require(affine_rank(points[on], FLAT_TOL * np.sqrt(len(on))) == rank - 1,
                "active set does not span a facet")
        slacks.append(np.abs(slack))
    listed = [frozenset(a) for a in actives]
    if gap > DEGENERATE_GAP:
        require(len(set(listed)) == len(listed), "duplicate facets")
        require(set(listed) == hull, f"{len(set(listed) - hull)} facets not of the hull, "
                f"{len(hull - set(listed))} of the hull's {len(hull)} missing")
        return False
    for face in hull:
        require(any(s[sorted(face)].max() <= FLAT_TOL for s in slacks),
                "a facet of the hull lies on no listed facet")
    return True


def hull_facets(points):
    """The hull's facets by brute force, vectorised: the active sets of the
    hyperplanes through affinely independent ``rank``-subsets of the points
    with every point within ``HULL_TOL`` on one side. Returns the affine
    rank, the set of active sets, and the smallest distance of a point off
    one of these hyperplanes."""
    rank = affine_rank(points)
    centred = points - points.mean(axis=0)
    coords = centred @ np.linalg.svd(centred)[2][:rank].T
    all_subsets = np.array(list(combinations(range(len(points)), rank)))
    distances = []
    for subsets in np.array_split(all_subsets, -(-len(all_subsets) // 1024)):  # bounded memory
        anchors = coords[subsets[:, 0]]
        # The last column of a complete QR of the spanning vectors is the normal.
        q, r = np.linalg.qr(np.swapaxes(coords[subsets[:, 1:]] - anchors[:, None], 1, 2),
                            mode="complete")
        pivots = np.abs(np.diagonal(r, axis1=1, axis2=2))
        independent = pivots.min(axis=1) > 1e-9 * pivots.max(axis=1)
        normals = q[:, :, -1]
        side = normals @ coords.T - np.einsum("mr,mr->m", normals, anchors)[:, None]
        supporting = independent & ((side.max(axis=1) <= HULL_TOL) | (side.min(axis=1) >= -HULL_TOL))
        distances.append(np.abs(side[supporting]))
    distance = np.concatenate(distances)
    on = distance <= HULL_TOL
    hull = {frozenset(np.flatnonzero(row).tolist()) for row in on}
    gap = distance[~on].min() if (~on).any() else np.inf
    return rank, hull, float(gap)


def finite_roof(value, values, weights, target, generators) -> None:
    """The LP optimum is at most the generating mixture's value, at least the
    smallest value, and matches an independent LP when one is available."""
    v = np.asarray(values, dtype=float)
    require(value <= float(weights @ v) + 1e-9, "finite roof exceeds a feasible mixture")
    require(value >= v.min() - 1e-9, "finite roof is below every generator value")
    reference = reference_lp()[0]
    if reference is not None:
        ref = reference(v, real_coords(target), real_coords(generators))
        require(abs(value - ref) <= 1e-7 * max(1.0, abs(ref)),
                f"finite roof {value!r} differs from the reference LP {ref!r}")


@cache
def reference_lp():
    """An independent LP solver for finite roofs and its name, or Nones
    without scipy. Loaded on first use, outside set-up and job timing."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None, None

    def solve(values, target, points):
        a_eq = np.vstack([points.T, np.ones(len(points))])
        b_eq = np.concatenate([target, [1.0]])
        res = linprog(values, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        require(res.status == 0, f"reference LP failed: {res.message}")
        return float(res.fun)

    import scipy
    return solve, f"scipy {scipy.__version__} highs"
