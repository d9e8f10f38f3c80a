"""Enumeration of minimal-support-uncertainty pure states.

For a completely incompatible basis pair in dimension d, every pure state
has support sizes summing to at least d+1, and the states achieving d+1 are
isolated. Each candidate support pattern (S, T) with |S| + |T| = d + 1 has
a linear system that confines the state to the span of the S
computational-basis vectors while annihilating its overlaps with the
second-basis vectors outside T. Its solution, the system's cofactors, is
read off the transition matrix's minors, which the complete-incompatibility
check's recurrence computes; a pattern gets an SVD only where its cofactors
cannot certify its state. Filtering the result by KD positivity yields the
pure KD-positive states of such a basis pair.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

from . import config
from .errors import (
    DimensionMismatch,
    NonGenericPatternWarning,
    NotCompletelyIncompatible,
)
from .basis import per_basis
from .incompatibility import _minors_by_recurrence, complete_incompatibility
from .kd import kd_positive_each
from .linalg import as_complex


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
    sampled, and no state is emitted for it. On a completely incompatible
    basis it is always empty: each system's least singular value is at least
    the norm of its cofactors, minors above the check's eps (Cauchy-Binet,
    see ``_solve_patterns``). So it is reached only when that check is
    bypassed.
    """

    states: np.ndarray
    patterns: tuple[SupportPattern, ...]
    degenerate_patterns: tuple[tuple[SupportPattern, int], ...] = ()

    def __len__(self) -> int:
        return self.states.shape[0]


def canonical_phase(psi) -> np.ndarray:
    """Rotate the global phase so the first nonzero amplitude is real positive.

    Accepts one state or a stack of states along the last axis; a state with
    no amplitude above ``config.PHASE_ZERO_TOL`` is returned unchanged.
    """
    psi = np.asarray(psi, dtype=complex)
    first = np.argmax(np.abs(psi) > config.PHASE_ZERO_TOL, axis=-1)[..., np.newaxis]
    amp = np.take_along_axis(psi, first, axis=-1)
    magnitude = np.abs(amp)
    # With no amplitude above the cutoff, argmax picks one at or below it.
    found = magnitude > config.PHASE_ZERO_TOL
    return psi * np.where(found, amp.conj() / np.where(found, magnitude, 1.0), 1.0)


def phase_invariant_distance(psi, chi):
    """Distance between rays: min over phases of the Euclidean distance.

    Computed by aligning the global phase and subtracting, which keeps full
    precision near zero (the closed form through the overlap loses half the
    significant digits there). Stacks of states broadcast over leading axes,
    each entry with the bits of the call on its pair alone.
    """
    a = np.asarray(psi, dtype=complex)
    b = np.asarray(chi, dtype=complex)
    inner = (b.conj() * a).sum(axis=-1)
    phase = np.divide(inner, np.abs(inner), out=np.ones_like(inner), where=inner != 0.0)
    dist = np.linalg.norm(a - phase[..., np.newaxis] * b, axis=-1)
    return float(dist) if dist.ndim == 0 else dist


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


@lru_cache(maxsize=16)
def _pattern_tables(d: int) -> tuple:
    """Per family a = 1..d its gather and scatter positions; all masks and patterns.

    Pattern k of family a pairs S in ``combinations(range(d), a)`` with T of
    size d + 1 - a, in lexicographic order. The overlap with second-basis
    vector j is sum_i psi_i conj(U_ij), so its system is conj(U)[S, outside
    T].T, of shape (a - 1, a): the gather holds those flat positions in U,
    the scatter the flat positions of S in row k of all patterns' states.
    Mask row k marks S and then T.
    """
    families, masks, patterns = [], [], []
    for size_a in range(1, d + 1):
        subs_a = list(combinations(range(d), size_a))
        subs_b = list(combinations(range(d), d + 1 - size_a))
        of_a, of_b = np.divmod(np.arange(len(subs_a) * len(subs_b)), len(subs_b))
        index_a = np.array(subs_a)[of_a]
        mask = np.zeros((len(of_a), 2, d), dtype=bool)
        np.put_along_axis(mask[:, 0], index_a, True, axis=1)
        np.put_along_axis(mask[:, 1], np.array(subs_b)[of_b], True, axis=1)
        outside_b = np.nonzero(~mask[:, 1])[1].reshape(len(of_a), size_a - 1)
        rows = len(patterns) + np.arange(len(of_a))[:, np.newaxis]
        families.append((index_a[:, np.newaxis] * d + outside_b[..., np.newaxis],
                         rows * d + index_a))
        masks.append(mask.reshape(len(of_a), 2 * d))
        patterns += [SupportPattern(s, t) for s, t in product(subs_a, subs_b)]
    masks = np.concatenate(masks)
    for a in (masks, *chain.from_iterable(families)):
        a.flags.writeable = False
    return tuple(families), masks, tuple(patterns)


def enumerate_min_uncertainty_states(transition) -> PureStateList:
    """All pure states with minimal support uncertainty, one per pattern.

    Requires a completely incompatible transition matrix (otherwise the
    d+1 floor does not hold and the pattern family is not exhaustive).
    States are returned with their patterns in lexicographic order. Each
    pattern's state, with |S| = a, is the vector of cofactors of its (a-1) x
    a system, gathered from the minors of the transition matrix, which the
    solve computes by the incompatibility check's recurrence; all states are
    normalised, phased and checked together. A pattern whose cofactors do
    not certify their state (see ``_solve_patterns``) gets its system solved
    by an SVD instead. A state is kept only when its realized supports equal
    its pattern. Two states of one ray have the same moduli in both bases,
    so they realize the same pattern: no ray is kept twice.

    The incompatibility check runs, and the NonGenericPatternWarnings of the
    solve are issued, on every call; the solve runs once per basis, and
    later calls get the same list, with read-only states (see
    :mod:`kdwitness.basis`). The pattern tables, which depend on d alone, are
    built once per d per process.

    The size guard is that check's minor count, ``config.MAX_MINORS``
    (DimensionTooLarge from d = 9 on): the C(2d, d + 1) = C(2d, d) - C_d
    patterns (C_d the Catalan number) are never more than the C(2d, d) - 1
    minors checked before them.
    """
    u = as_complex(transition, "transition matrix")
    report = complete_incompatibility(u)
    if not report.completely_incompatible:
        raise NotCompletelyIncompatible(
            "basis pair is not completely incompatible: "
            f"minor of order {report.argmin_order} at rows {report.argmin_rows}, "
            f"cols {report.argmin_cols} has modulus {report.min_abs_minor:.3e}"
        )
    result = _solve_patterns(u)
    for pattern, null_dim in result.degenerate_patterns:
        warnings.warn(
            f"pattern {pattern} has null-space dimension {null_dim}",
            NonGenericPatternWarning,
            stacklevel=2,
        )
    return result


@lru_cache(maxsize=16)
def _cofactor_tables(d: int) -> tuple:
    """Positions of each pattern's cofactors in the signed minors and in the states; a - 2 each.

    The signed minors are the flat conjugate minors of orders 0..d-1 (order
    0 the empty minor, 1, then ``_minors_by_recurrence``'s orders, each rows
    outer), followed by their negatives. Cofactor j of pattern k, (S, T) in
    ``_pattern_tables(d)`` order, is (-1)^j times minor (S - s_j, outside
    T); it goes to the flat position of s_j in row k of all patterns' states.
    """
    families, _, patterns = _pattern_tables(d)
    start, at = 0, []
    n_minors = sum(math.comb(d, k) ** 2 for k in range(d))
    for size_a in range(1, d + 1):
        subsets = {c: i for i, c in enumerate(combinations(range(d), size_a - 1))}
        rows = [[subsets[s[:j] + s[j + 1:]] for j in range(size_a)]
                for s in combinations(range(d), size_a)]
        cols = [subsets[tuple(sorted(set(range(d)) - set(t)))]
                for t in combinations(range(d), d + 1 - size_a)]
        signs = np.arange(size_a) % 2 * n_minors
        at.append((start + np.array(rows)[:, np.newaxis] * len(subsets)
                   + np.array(cols)[:, np.newaxis] + signs).ravel())
        start += len(subsets) ** 2
    tables = (np.concatenate(at), np.concatenate([scatter.ravel() for _, scatter in families]),
              np.array([len(p.a_support) - 2 for p in patterns]))
    for a in tables:
        a.flags.writeable = False
    return tables


@per_basis
def _solve_patterns(u: np.ndarray) -> PureStateList:
    """The enumeration proper, for a basis already checked; supports are read at BASE_TOL.

    Pattern (S, T) of family a has the (a - 1) x a system M = conj(U)[S,
    outside T].T, whose cofactors m_j = (-1)^j conj(det U[S - s_j, outside
    T]) span its null space when it has rank a - 1. By Cauchy-Binet ||m|| is
    the product of M's singular values, so with s = ||U||_2 >= sigma_max,
    sigma_min >= ||m|| / s^(a-2) =: l; and a unit psi on S is within sine
    ||M psi|| / l of the null ray. A pattern keeps its cofactor state when
    l > 2 max(NULL_SPACE_ABS_CUTOFF, NULL_SPACE_REL_CUTOFF s), so that its
    null space has dimension one by the SVD's rule too, and that sine is at
    most ``config.NULL_RAY_TOL``; the others are solved by ``_null_vectors``.
    """
    d = u.shape[0]
    families, masks, patterns = _pattern_tables(d)
    at, to, powers = _cofactor_tables(d)
    minors = np.concatenate([np.ones(1, dtype=complex), *_minors_by_recurrence(u)[0][:-1]]).conj()
    psi = np.zeros((len(patterns), d), dtype=complex)
    np.put(psi, to, np.concatenate([minors, -minors])[at])
    scale = np.linalg.svd(u, compute_uv=False)[0]
    norms = np.linalg.norm(psi, axis=1, keepdims=True)
    lower = norms[:, 0] / scale**powers
    # Cofactors that all vanish give a NaN state, which fails both tests below.
    with np.errstate(invalid="ignore"):
        psi = canonical_phase(psi / norms)
    u_conj = np.conj(u)
    moduli = np.abs(np.hstack([psi, psi @ u_conj]))
    off_target = np.linalg.norm(np.where(masks[:, d:], 0.0, moduli[:, d:]), axis=1)
    floor = 2.0 * max(config.NULL_SPACE_ABS_CUTOFF, config.NULL_SPACE_REL_CUTOFF * scale)
    redo = ~((lower > floor) & (off_target <= config.NULL_RAY_TOL * lower))
    null_dims = np.ones(len(patterns), dtype=int)
    start = 0
    for gather, scatter in families:
        picks = np.flatnonzero(redo[start:start + len(scatter)])
        rows = start + picks
        start += len(scatter)
        if not picks.size:
            continue
        vectors, null_dims[rows] = _null_vectors(u_conj.ravel()[gather[picks]])
        psi[rows] = 0.0
        np.put(psi, scatter[picks], vectors)
        psi[rows] = canonical_phase(psi[rows] / np.linalg.norm(psi[rows], axis=1, keepdims=True))
        moduli[rows] = np.abs(np.hstack([psi[rows], psi[rows] @ u_conj]))
    kept = np.flatnonzero(((moduli > config.BASE_TOL) == masks).all(axis=1) & (null_dims == 1))
    states = psi[kept]
    states.flags.writeable = False
    return PureStateList(
        states=states,
        patterns=tuple(map(patterns.__getitem__, kept.tolist())),
        degenerate_patterns=tuple(
            (patterns[k], int(null_dims[k])) for k in np.flatnonzero(null_dims != 1).tolist()
        ),
    )


def _kd_positive_rows(states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Whether each pure state row has an entrywise positive quasiprobability table."""
    # A pure state's table entry (i, j) is conj(U_ij) psi_i (psi^dagger U)_j.
    tables = np.conj(u) * states[:, :, np.newaxis] * (states.conj() @ u)[:, np.newaxis, :]
    return kd_positive_each(tables)


def filter_kd_positive_pure(state_list: PureStateList, transition) -> PureStateList:
    """Keep the states whose quasiprobability table is entrywise positive."""
    u = as_complex(transition, "transition matrix")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got {u.shape}")
    states = state_list.states
    if states.ndim != 2 or states.shape[1] != u.shape[0]:
        raise DimensionMismatch(
            f"states of shape {states.shape} do not match basis dimension {u.shape[0]}"
        )
    keep = np.flatnonzero(_kd_positive_rows(states, u))
    return PureStateList(
        states=states[keep],
        patterns=tuple(state_list.patterns[k] for k in keep),
        degenerate_patterns=state_list.degenerate_patterns,
    )
