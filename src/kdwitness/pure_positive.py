"""Enumeration of minimal-support-uncertainty pure states.

For a completely incompatible basis pair in dimension d, every pure state
has support sizes summing to at least d+1, and the states achieving d+1 are
isolated. They are found here by solving, for each candidate support
pattern (S, T) with |S| + |T| = d + 1, the linear system that confines the
state to the span of the S computational-basis vectors while annihilating
its overlaps with the second-basis vectors outside T. Filtering the result
by KD positivity yields the pure KD-positive states of such a basis pair.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import config
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    NonGenericPatternWarning,
    NotCompletelyIncompatible,
)
from .incompatibility import complete_incompatibility
from .kd import is_kd_positive, kd_table
from .linalg import as_complex

MAX_ENUM_DIM = 6


@dataclass(frozen=True)
class SupportPattern:
    """Index sets of the intended supports in the two bases."""

    a_support: tuple[int, ...]
    b_support: tuple[int, ...]


@dataclass(frozen=True)
class PureStateList:
    """Pure states (rows) with their support patterns.

    ``degenerate_patterns`` records patterns whose linear system had a null
    space of dimension above one; such a continuum is surfaced rather than
    sampled, and no state is emitted for it.
    """

    states: np.ndarray
    patterns: tuple[SupportPattern, ...]
    dedup_tol: float
    degenerate_patterns: tuple[tuple[SupportPattern, int], ...] = ()

    def __len__(self) -> int:
        return self.states.shape[0]


def canonical_phase(psi: np.ndarray, zero_tol: float = 1e-12) -> np.ndarray:
    """Rotate the global phase so the first nonzero amplitude is real positive."""
    psi = np.asarray(psi, dtype=complex)
    for amp in psi:
        if abs(amp) > zero_tol:
            return psi * (amp.conjugate() / abs(amp))
    return psi


def phase_invariant_distance(psi, chi) -> float:
    """Distance between rays: min over phases of the Euclidean distance.

    Computed by aligning the global phase and subtracting, which keeps full
    precision near zero (the closed form through the overlap loses half the
    significant digits there).
    """
    a = np.asarray(psi, dtype=complex)
    b = np.asarray(chi, dtype=complex)
    inner = np.vdot(b, a)
    phase = inner / abs(inner) if abs(inner) > 0.0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def _null_vector(constraints: np.ndarray) -> tuple[np.ndarray | None, int]:
    """One unit null vector of the constraint matrix, plus the null dimension."""
    n_unknowns = constraints.shape[1]
    if constraints.shape[0] == 0:
        if n_unknowns != 1:
            return None, n_unknowns
        return np.ones(1, dtype=complex), 1
    _, sing, vh = np.linalg.svd(constraints)
    cutoff = max(1e-12, 1e-10 * (sing[0] if sing.size else 0.0))
    rank = int(np.count_nonzero(sing > cutoff))
    null_dim = n_unknowns - rank
    if null_dim != 1:
        return None, null_dim
    return vh[-1].conj(), 1


def enumerate_min_uncertainty_states(
    transition, eps: float | None = None, dedup_tol: float | None = None
) -> PureStateList:
    """All pure states with minimal support uncertainty, one per pattern.

    Requires a completely incompatible transition matrix (otherwise the
    d+1 floor does not hold and the pattern family is not exhaustive).
    States are deduplicated up to global phase and returned with patterns
    in lexicographic order.
    """
    eps = config.default_tol() if eps is None else eps
    dedup_tol = config.STATE_DEDUP_TOL if dedup_tol is None else dedup_tol
    u = as_complex(transition, "transition matrix")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got {u.shape}")
    d = u.shape[0]
    if d > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"enumeration is guarded to d <= {MAX_ENUM_DIM}")
    report = complete_incompatibility(u, eps=eps)
    if not report.completely_incompatible:
        raise NotCompletelyIncompatible(
            "basis pair is not completely incompatible: "
            f"minor of order {report.argmin_order} at rows {report.argmin_rows}, "
            f"cols {report.argmin_cols} has modulus {report.min_abs_minor:.3e}"
        )

    states: list[np.ndarray] = []
    patterns: list[SupportPattern] = []
    degenerate: list[tuple[SupportPattern, int]] = []
    u_conj = np.conj(u)
    for size_a in range(1, d + 1):
        size_b = d + 1 - size_a
        if not 1 <= size_b <= d:
            continue
        for sub_a in combinations(range(d), size_a):
            for sub_b in combinations(range(d), size_b):
                pattern = SupportPattern(sub_a, sub_b)
                outside_b = [j for j in range(d) if j not in sub_b]
                # Overlap with second-basis vector j is sum_i psi_i conj(U_ij).
                constraints = u_conj[np.ix_(sub_a, outside_b)].T
                solution, null_dim = _null_vector(constraints)
                if solution is None:
                    degenerate.append((pattern, null_dim))
                    warnings.warn(
                        f"pattern {pattern} has null-space dimension {null_dim}",
                        NonGenericPatternWarning,
                        stacklevel=2,
                    )
                    continue
                psi = np.zeros(d, dtype=complex)
                psi[list(sub_a)] = solution
                psi = canonical_phase(psi / np.linalg.norm(psi))
                realized_a = tuple(np.flatnonzero(np.abs(psi) > eps).tolist())
                realized_b = tuple(
                    np.flatnonzero(np.abs(psi @ u_conj) > eps).tolist()
                )
                if realized_a != sub_a or realized_b != sub_b:
                    continue
                if any(phase_invariant_distance(psi, s) <= dedup_tol for s in states):
                    continue
                states.append(psi)
                patterns.append(pattern)
    return PureStateList(
        states=np.array(states),
        patterns=tuple(patterns),
        dedup_tol=dedup_tol,
        degenerate_patterns=tuple(degenerate),
    )


def filter_kd_positive_pure(
    state_list: PureStateList, transition, tol: float | None = None
) -> PureStateList:
    """Keep the states whose quasiprobability table is entrywise positive."""
    tol = config.default_tol() if tol is None else tol
    u = as_complex(transition, "transition matrix")
    keep = [
        k
        for k in range(len(state_list))
        if is_kd_positive(kd_table(state_list.states[k], u), tol=tol)
    ]
    return PureStateList(
        states=state_list.states[keep],
        patterns=tuple(state_list.patterns[k] for k in keep),
        dedup_tol=state_list.dedup_tol,
        degenerate_patterns=state_list.degenerate_patterns,
    )
