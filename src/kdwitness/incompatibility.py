"""Support-uncertainty counters and the complete-incompatibility decision.

A basis pair is completely incompatible when every minor of every order of
its transition matrix is nonvanishing. The decision here is by exhaustive
enumeration of all C(2d, d) - 1 minors, which is cheap up to dimension eight.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import config
from .basis import per_basis
from .errors import DimensionMismatch, DimensionTooLarge, ValidationError
from .linalg import as_complex, dagger


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
    eps = config.default_tol() if eps is None else eps
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
    eps = config.default_tol() if eps is None else eps
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

    Each order's minors are gathered into one stack, row sets outer and
    column sets inner, and go through one batched determinant. The search
    does not depend on ``eps`` and runs once per basis (see
    :mod:`kdwitness.basis`). Raises DimensionTooLarge before any work when
    the number of minors, C(2d, d) - 1, exceeds ``config.MAX_MINORS``.
    """
    eps = config.default_tol() if eps is None else eps
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
    if not eps >= floor:
        raise ValidationError(
            f"eps {eps:g} is below the rounding floor {floor:.3g} of a {d} x {d} minor"
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


@per_basis
def _smallest_minor(u: np.ndarray) -> tuple[float, int, tuple[int, ...], tuple[int, ...]]:
    """Smallest |minor| of ``u`` with its order, row set and column set."""
    d = u.shape[0]
    best_abs = np.inf
    best = (0, (), ())
    for order in range(1, d + 1):
        subsets = list(combinations(range(d), order))
        s = np.array(subsets)
        stacked = u[s[:, None, :, None], s[None, :, None, :]].reshape(-1, order, order)
        dets = np.abs(np.linalg.det(stacked))
        k_min = int(np.argmin(dets))
        if dets[k_min] < best_abs:
            best_abs = float(dets[k_min])
            best = (order, subsets[k_min // len(subsets)], subsets[k_min % len(subsets)])
    return (best_abs, *best)
