"""Support-uncertainty counters and the complete-incompatibility decision.

A basis pair is completely incompatible when every minor of every order of
its transition matrix is nonvanishing. The decision here checks all
C(2d, d) - 1 minors, by a Laplace recurrence with LU re-checks near the
minimum, which is cheap up to dimension eight.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from . import config
from .basis import per_basis
from .errors import DimensionMismatch, DimensionTooLarge, ValidationError
from .linalg import as_complex, dagger

_EPS = np.finfo(float).eps

# The recurrence gathers at most this many entries per operand at a time,
# 125 KB of complex numbers, under the 128 KB from which glibc may serve a
# block by mmap. At d = 8 one gather of a whole order is up to 19 600 entries,
# 313 KB, and whether a call then faulted in fresh pages (about 200 a call,
# 0.4 ms) depended on what the process had allocated before.
_GATHER_ENTRIES = 8000


@dataclass(frozen=True)
class SupportCount:
    """Number of components above threshold in each of the two bases.

    ``smallest_kept`` and ``largest_discarded`` expose how close the state
    came to the counting threshold, so borderline states are diagnosable
    rather than silently resolved.
    """

    n_a: int
    n_b: int
    eps: float
    smallest_kept: float | None
    largest_discarded: float | None

    @property
    def n_ab(self) -> int:
        return self.n_a + self.n_b


@dataclass(frozen=True)
class IncompatibilityReport:
    completely_incompatible: bool
    min_abs_minor: float
    argmin_order: int
    argmin_rows: tuple[int, ...]
    argmin_cols: tuple[int, ...]
    minors_checked: int
    eps: float


def _count(values_a: np.ndarray, values_b: np.ndarray, eps: float) -> SupportCount:
    if not 0.0 <= eps < np.inf:
        raise ValidationError(f"eps must be finite and nonnegative, got {eps}")
    mags = np.concatenate([values_a, values_b])
    kept = mags[mags > eps]
    discarded = mags[mags <= eps]
    return SupportCount(
        n_a=int(np.count_nonzero(values_a > eps)),
        n_b=int(np.count_nonzero(values_b > eps)),
        eps=eps,
        smallest_kept=float(kept.min()) if kept.size else None,
        largest_discarded=float(discarded.max()) if discarded.size else None,
    )


def support_counts_pure(psi, transition, eps: float | None = None) -> SupportCount:
    """Support sizes of a pure state in the two bases."""
    eps = config.BASE_TOL if eps is None else eps
    u = as_complex(transition, "transition matrix")
    v = as_complex(psi, "state")
    if v.ndim != 1 or v.shape[0] != u.shape[0]:
        raise DimensionMismatch(
            f"state shape {v.shape} does not match basis dimension {u.shape[0]}"
        )
    amps_a = np.abs(v)
    amps_b = np.abs(v @ np.conj(u))
    return _count(amps_a, amps_b, eps)


def support_counts_mixed(rho, transition, eps: float | None = None) -> SupportCount:
    """Counts of nonvanishing Born probabilities of a density matrix."""
    eps = config.BASE_TOL if eps is None else eps
    u = as_complex(transition, "transition matrix")
    r = as_complex(rho, "state")
    if r.ndim != 2 or r.shape != u.shape:
        raise DimensionMismatch(
            f"state shape {r.shape} does not match basis shape {u.shape}"
        )
    probs_a = np.abs(np.diagonal(r).real)
    probs_b = np.abs(np.diagonal(dagger(u) @ r @ u).real)
    return _count(probs_a, probs_b, eps)


def complete_incompatibility(transition, eps: float | None = None) -> IncompatibilityReport:
    """Decide complete incompatibility by enumerating every minor.

    All square minors of all orders are evaluated; the verdict is positive
    exactly when the smallest modulus exceeds ``eps``, which may not be set
    below rounding level (d times ``config.MINOR_EPS_FLOOR_PER_DIM``). The
    minimizing minor is reported, with ties broken lexicographically by
    ``(order, row_set, col_set)``.

    A Laplace recurrence computes each order from the one below, with an
    error bound; only minors within that bound of the least go through
    ``np.linalg.det``, one stack per order, so the report has the bits of an
    LU of every minor. The search does not depend on ``eps`` and runs once
    per basis (see :mod:`kdwitness.basis`). Raises DimensionTooLarge before
    any work when the number of minors, C(2d, d) - 1, exceeds
    ``config.MAX_MINORS``.
    """
    eps = config.BASE_TOL if eps is None else eps
    u = as_complex(transition, "transition matrix")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got {u.shape}")
    d = u.shape[0]
    n_minors = math.comb(2 * d, d) - 1
    if n_minors > config.MAX_MINORS:
        raise DimensionTooLarge(
            f"a {d} x {d} transition matrix has C({2 * d}, {d}) - 1 = {n_minors} "
            f"minors, over the limit of {config.MAX_MINORS}"
        )
    floor = d * config.MINOR_EPS_FLOOR_PER_DIM
    if not floor <= eps < np.inf:
        raise ValidationError(
            f"eps {eps:g} is not finite, or below the {d} x {d} minor's rounding floor {floor:.3g}"
        )
    best_abs, order, rows, cols = _smallest_minor(u)
    return IncompatibilityReport(
        completely_incompatible=bool(best_abs > eps),
        min_abs_minor=best_abs,
        argmin_order=order,
        argmin_rows=rows,
        argmin_cols=cols,
        minors_checked=n_minors,
        eps=eps,
    )


@lru_cache(maxsize=16)
def _laplace_tables(d: int) -> tuple:
    """Per order k = 1..d: its subsets, gather positions (for k > 1) and bound factors.

    For minor (R, C), rows outer, the (n, n, k) positions point at (-1)^(k-1+j)
    u[max R, c_j] in [u, -u] and at minor (R - max R, C - c_j) one order below.
    """
    tables, below, root2 = [], {}, math.sqrt(2)
    for k in range(1, d + 1):
        sets = list(combinations(range(d), k))
        s, gather = np.array(sets), ()
        if k > 1:
            drop = np.array([[below[c[:j] + c[j + 1:]] for j in range(k)] for c in sets])
            parent = np.array([below[r[:-1]] for r in sets])[:, None, None] * len(below)
            gather = (s[:, -1, None, None] * d + s + (k - 1 + np.arange(k)) % 2 * d * d,
                      parent + drop)
        relative = math.factorial(k) * (k - 1) * (2 * k + 2) + 800 * k * (k + 1)
        relative += 8 * root2 * k**3.5 * (1 + root2) ** (k - 1)
        for a in (s, *gather):
            a.flags.writeable = False
        tables.append((s, gather, 4 * relative * _EPS, 8 * k * (1 + root2) ** k))
        below = {c: i for i, c in enumerate(sets)}
    return tuple(tables)


def _minors_by_recurrence(u: np.ndarray) -> tuple[list, np.ndarray]:
    """Every minor M of ``u``, one flat array per order, rows outer, and a bound b >= |M - LU|.

    The minors are computed once per basis (see :mod:`kdwitness.basis`) and
    shared by the minor search and the minimal-state enumeration: their
    arrays are read-only, the list and the bound are new on every call.
    """
    minors, bounds = _recurrence(u)
    return list(minors), np.repeat(bounds, [m.size for m in minors])


@partial(per_basis, size=1)
def _recurrence(u: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The minors of :func:`_minors_by_recurrence` and one bound per order, read-only.

    Kept for the last basis only: the enumeration, their one other reader,
    runs right after the minor search on the same basis, and at d = 8 the
    minors take 0.2 MB.

    M_k[R, C] = sum_j (-1)^(k-1+j) u[max R, c_j] M_{k-1}[R - max R, C - c_j],
    one gathered multiply-add per block of rows (see ``_GATHER_ENTRIES``); LU
    is ``np.linalg.det`` of the minor.
    Bound, for any square finite u, with v its largest column norm: every
    order-k minor is at most v^k (Hadamard). The recurrence adds g_k = (2k +
    2) eps relative to each of the k terms of a level, each at most v^k, so
    it errs by k! ((1 + g_k)^(k-1) - 1) v^k at most. LU pivots on |re| +
    |im|, so |l| <= sqrt 2 and a column grows by (1 + sqrt 2)^(k-1) at most;
    the backward error 8k eps |L||U| moves each column by eta_k = 8 sqrt 2
    k^2.5 (1 + sqrt 2)^(k-1) eps of its norm, the determinant by ((1 +
    eta_k)^k - 1) v^k, and sign exp(sum log |u_ii|) adds 800 k (k + 1) eps
    relative. Doubled for rounding and higher orders, b = 4 (k! (k - 1) g_k
    + k eta_k + 800 k (k + 1) eps) v^k + (8k (1 + sqrt 2)^k max(1, v))^k
    2^-1074, the last term for underflow; it is infinite, and the whole order
    re-checked, wherever the LU or the recurrence could overflow.
    """
    tables = _laplace_tables(u.shape[0])
    signed = np.concatenate([u.ravel(), -u.ravel()])
    v = np.linalg.norm(u, axis=0).max(initial=0.0)
    minors, bounds = [u.ravel()], []
    for s, gather, factor, growth in tables:
        k = s.shape[1]
        if gather:
            u_at, below_at = gather
            step = max(1, _GATHER_ENTRIES // (len(s) * k))
            blocks = [
                np.einsum("rcj,rcj->rc", signed[u_at[r:r + step]],
                          minors[-1][below_at[r:r + step]]).ravel()
                for r in range(0, len(s), step)
            ]
            minors.append(blocks[0] if len(blocks) == 1 else np.concatenate(blocks))
        bounds.append(factor * v**k + (growth * max(1.0, v)) ** k * 2.0**-1074)
    bounds = np.array(bounds)
    for a in (*minors, bounds):
        a.flags.writeable = False
    return tuple(minors), bounds


@per_basis
def _smallest_minor(u: np.ndarray) -> tuple[float, int, tuple[int, ...], tuple[int, ...]]:
    """Smallest |minor| of ``u`` by LU, with its order, row set and column set.

    Only minors with |M| - b <= min(|M| + b), and NaNs, can be it or its ties.
    """
    best_abs, best, start = np.inf, (0, (), ()), 0
    with np.errstate(over="ignore", invalid="ignore"):
        minors, bound = _minors_by_recurrence(u)
        moduli = np.concatenate([np.abs(m) for m in minors])
        near = ~(moduli - bound > np.min(moduli + bound, initial=np.inf))
    for subsets, *_ in _laplace_tables(u.shape[0]):
        n = len(subsets)
        picks = np.flatnonzero(near[start:start + n * n])
        start += n * n
        if not picks.size:
            continue
        rows, cols = subsets[picks // n], subsets[picks % n]
        dets = np.abs(np.linalg.det(u[rows[:, :, None], cols[:, None, :]]))
        k_min = int(np.argmin(dets))
        if dets[k_min] < best_abs:
            best_abs = float(dets[k_min])
            best = (subsets.shape[1], tuple(rows[k_min].tolist()), tuple(cols[k_min].tolist()))
    return (best_abs, *best)
