"""Kirkwood-Dirac quasiprobability tables and the basic positivity witnesses.

Conventions: the first basis is the computational basis, and the columns of
the transition matrix ``U`` are the second basis, so ``U[i, j]`` is the
overlap of computational basis vector ``i`` with second-basis vector ``j``.
The table entry at ``(i, j)`` is then ``conj(U[i, j]) * (rho @ U)[i, j]``.
Row sums reproduce the first-basis Born probabilities, column sums the
second-basis ones, and the grand total is the trace.
"""

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import CertificateError, DimensionMismatch
from .linalg import as_complex, projector


@dataclass(frozen=True)
class KDTable:
    """A d x d complex quasiprobability table with marginal bookkeeping."""

    dim: int
    table: np.ndarray
    a_marginals: np.ndarray
    b_marginals: np.ndarray
    total: complex

    def validate(self, tol: float | None = None) -> None:
        """Check the marginal identities the table must satisfy."""
        tol = config.default_tol() if tol is None else tol
        row = self.table.sum(axis=1)
        col = self.table.sum(axis=0)
        if np.max(np.abs(row.imag)) > tol or np.max(np.abs(col.imag)) > tol:
            raise CertificateError("marginals are not real within tolerance")
        if np.max(np.abs(row.real - self.a_marginals)) > tol:
            raise CertificateError("row sums disagree with stored marginals")
        if np.max(np.abs(col.real - self.b_marginals)) > tol:
            raise CertificateError("column sums disagree with stored marginals")
        if abs(self.total - 1.0) > tol:
            raise CertificateError(f"table total {self.total} is not 1")


def kd_entries(density, u: np.ndarray) -> np.ndarray:
    """Table entries ``conj(U) * (rho @ U)`` of one density matrix or a stack."""
    return np.conj(u) * (density @ u)


def kd_table(state, transition) -> KDTable:
    """Quasiprobability table of a state for a basis pair.

    ``state`` may be a density matrix (2-d) or a pure-state vector (1-d);
    a vector is promoted to its rank-one projector.
    """
    u = as_complex(transition, "transition matrix")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got {u.shape}")
    s = as_complex(state, "state")
    if s.ndim == 1:
        s = projector(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"state must be a vector or square matrix, got {s.shape}")
    if s.shape[0] != u.shape[0]:
        raise DimensionMismatch(
            f"state dimension {s.shape[0]} does not match basis dimension {u.shape[0]}"
        )
    q = kd_entries(s, u)
    return KDTable(
        dim=u.shape[0],
        table=q,
        a_marginals=q.sum(axis=1).real,
        b_marginals=q.sum(axis=0).real,
        total=complex(q.sum()),
    )


def _entries(table) -> np.ndarray:
    return table.table if isinstance(table, KDTable) else as_complex(table, "table")


def is_kd_positive(table, tol: float | None = None) -> bool:
    """True when every entry is real and nonnegative within ``tol``."""
    tol = config.default_tol() if tol is None else tol
    return bool(kd_positive_each(_entries(table)[np.newaxis], tol)[0])


def kd_positive_each(tables: np.ndarray, tol: float) -> np.ndarray:
    """:func:`is_kd_positive` of every table in a stack along the first axis."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    entry_axes = tuple(range(1, tables.ndim))
    return np.all(np.abs(tables.imag) <= tol, axis=entry_axes) & np.all(
        tables.real >= -tol, axis=entry_axes
    )


def worst_entry(table) -> tuple[int, int, complex, float]:
    """The entry most at odds with positivity.

    Returns ``(i, j, value, offence)`` where the offence is the larger of
    the imaginary magnitude and the negative part of the real part. An
    offence of zero means the table is exactly positive.
    """
    q = _entries(table)
    offence = np.maximum(np.abs(q.imag), np.maximum(0.0, -q.real))
    flat = int(np.argmax(offence))
    i, j = np.unravel_index(flat, q.shape)
    return int(i), int(j), complex(q[i, j]), float(offence[i, j])


def total_nonpositivity(table) -> float:
    """Sum of entry moduli; equals 1 exactly on KD-positive states."""
    q = _entries(table)
    return float(np.abs(q).sum())


def min_overlap(transition) -> float:
    """Smallest modulus of a transition-matrix entry."""
    u = as_complex(transition, "transition matrix")
    return float(np.abs(u).min())
