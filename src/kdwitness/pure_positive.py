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
from .kd import kd_entries, kd_positive_each
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


def canonical_phase(psi, zero_tol: float = config.PHASE_ZERO_TOL) -> np.ndarray:
    """Rotate the global phase so the first nonzero amplitude is real positive.

    Accepts one state or a stack of states along the last axis; a state with
    no amplitude above ``zero_tol`` is returned unchanged.
    """
    psi = np.asarray(psi, dtype=complex)
    first = np.argmax(np.abs(psi) > zero_tol, axis=-1)[..., np.newaxis]
    amp = np.take_along_axis(psi, first, axis=-1)
    magnitude = np.abs(amp)
    # With no amplitude above zero_tol, argmax picks one at or below it.
    found = magnitude > zero_tol
    return psi * np.where(found, amp.conj() / np.where(found, magnitude, 1.0), 1.0)


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


def _null_vectors(constraints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit null vectors and null dimensions of a stack of constraint matrices.

    Row k of the vectors spans the null space of ``constraints[k]`` when its
    null dimension is one; otherwise the row means nothing.
    """
    _, sing, vh = np.linalg.svd(constraints)
    cutoff = np.maximum(
        config.NULL_SPACE_ABS_CUTOFF, config.NULL_SPACE_REL_CUTOFF * sing[:, :1]
    )
    null_dims = constraints.shape[2] - np.count_nonzero(sing > cutoff, axis=1)
    return vh[:, -1].conj(), null_dims


def _support_masks(subsets: list[tuple[int, ...]], d: int) -> np.ndarray:
    """Boolean rows marking each index subset of range(d)."""
    masks = np.zeros((len(subsets), d), dtype=bool)
    masks[np.arange(len(subsets))[:, np.newaxis], np.array(subsets)] = True
    return masks


def _drop_near_repeats(candidates: np.ndarray, dedup_tol: float) -> list[int]:
    """Indices of the candidates kept by a greedy pass in order.

    A candidate is dropped when its :func:`phase_invariant_distance` to an
    earlier kept one is at most ``dedup_tol``; it is measured against all
    kept states at once.
    """
    kept = np.empty_like(candidates)
    kept_conj = np.empty_like(candidates)
    index: list[int] = []
    for k, psi in enumerate(candidates):
        n = len(index)
        inner = kept_conj[:n] @ psi
        magnitude = np.abs(inner)
        phase = np.divide(inner, magnitude, out=np.ones_like(inner), where=magnitude > 0.0)
        distance = np.linalg.norm(psi - phase[:, np.newaxis] * kept[:n], axis=1)
        if np.any(distance <= dedup_tol):
            continue
        kept[n] = psi
        kept_conj[n] = psi.conj()
        index.append(k)
    return index


def enumerate_min_uncertainty_states(
    transition, eps: float | None = None, dedup_tol: float | None = None
) -> PureStateList:
    """All pure states with minimal support uncertainty, one per pattern.

    Requires a completely incompatible transition matrix (otherwise the
    d+1 floor does not hold and the pattern family is not exhaustive).
    States are deduplicated up to global phase and returned with patterns
    in lexicographic order. The patterns with |S| = a form one family,
    solved as one stack of (a-1) x a systems.
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

    found_states: list[np.ndarray] = []
    found_patterns: list[SupportPattern] = []
    degenerate: list[tuple[SupportPattern, int]] = []
    u_conj = np.conj(u)
    for size_a in range(1, d + 1):
        subs_a = list(combinations(range(d), size_a))
        subs_b = list(combinations(range(d), d + 1 - size_a))
        masks_a, masks_b = _support_masks(subs_a, d), _support_masks(subs_b, d)
        # Pattern k pairs subs_a[of_a[k]] with subs_b[of_b[k]], in lexicographic order.
        of_a, of_b = np.divmod(np.arange(len(subs_a) * len(subs_b)), len(subs_b))
        index_a = np.array(subs_a)[of_a]
        outside_b = np.nonzero(~masks_b)[1].reshape(len(subs_b), size_a - 1)[of_b]
        # The overlap with second-basis vector j is sum_i psi_i conj(U_ij), so
        # pattern k's system is conj(U)[S, outside T].T, of shape (a - 1, a).
        constraints = u_conj[index_a[:, np.newaxis, :], outside_b[:, :, np.newaxis]]
        vectors, null_dims = _null_vectors(constraints)
        for k in np.flatnonzero(null_dims != 1):
            pattern = SupportPattern(subs_a[of_a[k]], subs_b[of_b[k]])
            degenerate.append((pattern, int(null_dims[k])))
            warnings.warn(
                f"pattern {pattern} has null-space dimension {null_dims[k]}",
                NonGenericPatternWarning,
                stacklevel=2,
            )
        solved = np.flatnonzero(null_dims == 1)
        psi = np.zeros((solved.size, d), dtype=complex)
        np.put_along_axis(psi, index_a[solved], vectors[solved], axis=1)
        psi = canonical_phase(psi / np.linalg.norm(psi, axis=1, keepdims=True))
        realized_a = (np.abs(psi) > eps) == masks_a[of_a[solved]]
        realized_b = (np.abs(psi @ u_conj) > eps) == masks_b[of_b[solved]]
        realized = np.all(realized_a & realized_b, axis=1)
        found_states.append(psi[realized])
        found_patterns.extend(
            SupportPattern(subs_a[of_a[k]], subs_b[of_b[k]]) for k in solved[realized]
        )

    candidates = np.concatenate(found_states)
    keep = _drop_near_repeats(candidates, dedup_tol)
    return PureStateList(
        states=candidates[keep],
        patterns=tuple(found_patterns[k] for k in keep),
        dedup_tol=dedup_tol,
        degenerate_patterns=tuple(degenerate),
    )


def filter_kd_positive_pure(
    state_list: PureStateList, transition, tol: float | None = None
) -> PureStateList:
    """Keep the states whose quasiprobability table is entrywise positive."""
    tol = config.default_tol() if tol is None else tol
    u = as_complex(transition, "transition matrix")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got {u.shape}")
    states = state_list.states
    if states.ndim != 2 or states.shape[1] != u.shape[0]:
        raise DimensionMismatch(
            f"states of shape {states.shape} do not match basis dimension {u.shape[0]}"
        )
    projectors = states[:, :, np.newaxis] * states[:, np.newaxis, :].conj()
    keep = np.flatnonzero(kd_positive_each(kd_entries(projectors, u), tol))
    return PureStateList(
        states=states[keep],
        patterns=tuple(state_list.patterns[k] for k in keep),
        dedup_tol=state_list.dedup_tol,
        degenerate_patterns=state_list.degenerate_patterns,
    )
