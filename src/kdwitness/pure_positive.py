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
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

from . import config
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    NonGenericPatternWarning,
    NotCompletelyIncompatible,
)
from .basis import per_basis
from .incompatibility import complete_incompatibility
from .kd import kd_positive_each
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


def _drop_near_repeats(candidates: np.ndarray, dedup_tol: float) -> np.ndarray:
    """Indices of the candidates kept by a greedy pass in order.

    A candidate is dropped when its :func:`phase_invariant_distance` to an
    earlier kept one is at most ``dedup_tol``. Only pairs whose keys
    ``|psi| @ w`` (``w`` a fixed unit vector) lie within ``dedup_tol`` of each
    other are measured: by Cauchy-Schwarz and the reverse triangle
    inequality, the keys of two states differ by at most their distance.
    """
    n, d = candidates.shape
    w = np.sqrt(np.arange(1.0, d + 1.0))
    keys = np.abs(candidates) @ (w / np.linalg.norm(w))
    # Rounding of two keys and of one distance, each a sum of d terms of size
    # at most one, stays below this.
    window = dedup_tol + 8 * d * np.finfo(float).eps
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    lo = np.searchsorted(ranked, ranked - window, side="left")
    spans = np.maximum(np.searchsorted(ranked, ranked + window, side="right") - lo, 0)
    # Every (later, earlier) pair of candidates whose keys lie within the window.
    b = np.repeat(np.arange(n), spans)
    a = lo[b] + np.arange(b.size) - np.repeat(np.cumsum(spans) - spans, spans)
    later, earlier = order[b], order[a]
    pairs = earlier < later
    later, earlier = later[pairs], earlier[pairs]
    near = phase_invariant_distance(candidates[later], candidates[earlier]) <= dedup_tol
    later, earlier = later[near], earlier[near]
    keep = np.ones(n, dtype=bool)
    by_later = np.argsort(later, kind="stable")
    groups, starts = np.unique(later[by_later], return_index=True)
    for k, group in zip(groups.tolist(), np.split(earlier[by_later], starts[1:])):
        keep[k] = not keep[group].any()
    return np.flatnonzero(keep)


def enumerate_min_uncertainty_states(
    transition, dedup_tol: float | None = None
) -> PureStateList:
    """All pure states with minimal support uncertainty, one per pattern.

    Requires a completely incompatible transition matrix (otherwise the
    d+1 floor does not hold and the pattern family is not exhaustive).
    States are deduplicated up to global phase and returned with patterns
    in lexicographic order. The patterns with |S| = a form one family,
    solved as one stack of (a-1) x a systems; the states of all families
    are then normalised, phased and checked together.

    The dimension guard and the incompatibility check run, and the
    NonGenericPatternWarnings of the solve are issued, on every call; the
    solve runs once per basis, base tolerance and ``dedup_tol``, and later
    calls get the same list, with read-only states (see
    :mod:`kdwitness.basis`). The pattern tables, which depend on d alone,
    are built once per d per process.
    """
    eps = config.default_tol()
    dedup_tol = config.STATE_DEDUP_TOL if dedup_tol is None else dedup_tol
    u = as_complex(transition, "transition matrix")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"transition matrix must be square, got {u.shape}")
    if u.shape[0] > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"enumeration is guarded to d <= {MAX_ENUM_DIM}")
    report = complete_incompatibility(u, eps=eps)
    if not report.completely_incompatible:
        raise NotCompletelyIncompatible(
            "basis pair is not completely incompatible: "
            f"minor of order {report.argmin_order} at rows {report.argmin_rows}, "
            f"cols {report.argmin_cols} has modulus {report.min_abs_minor:.3e}"
        )
    result = _solve_patterns(u, eps, dedup_tol)
    for pattern, null_dim in result.degenerate_patterns:
        warnings.warn(
            f"pattern {pattern} has null-space dimension {null_dim}",
            NonGenericPatternWarning,
            stacklevel=2,
        )
    return result


@per_basis
def _solve_patterns(u: np.ndarray, eps: float, dedup_tol: float) -> PureStateList:
    """The enumeration proper, for a basis already checked."""
    d = u.shape[0]
    families, masks, patterns = _pattern_tables(d)
    u_conj = np.conj(u)
    psi = np.zeros((len(patterns), d), dtype=complex)
    null_dims = []
    for gather, scatter in families:
        vectors, dims = _null_vectors(u_conj.ravel()[gather])
        np.put(psi, scatter, vectors)
        null_dims.append(dims)
    null_dims = np.concatenate(null_dims)
    solved = np.flatnonzero(null_dims == 1)
    psi = psi[solved]
    psi = canonical_phase(psi / np.linalg.norm(psi, axis=1, keepdims=True))
    realized = np.hstack([np.abs(psi) > eps, np.abs(psi @ u_conj) > eps]) == masks[solved]
    realized = realized.all(axis=1)
    candidates, found = psi[realized], solved[realized]
    keep = _drop_near_repeats(candidates, dedup_tol)
    states = candidates[keep]
    states.flags.writeable = False
    return PureStateList(
        states=states,
        patterns=tuple(patterns[k] for k in found[keep].tolist()),
        dedup_tol=dedup_tol,
        degenerate_patterns=tuple(
            (patterns[k], int(null_dims[k])) for k in np.flatnonzero(null_dims != 1).tolist()
        ),
    )


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
    # A pure state's table entry (i, j) is conj(U_ij) psi_i (psi^dagger U)_j.
    tables = np.conj(u) * states[:, :, np.newaxis] * (states.conj() @ u)[:, np.newaxis, :]
    keep = np.flatnonzero(kd_positive_each(tables))
    return PureStateList(
        states=states[keep],
        patterns=tuple(state_list.patterns[k] for k in keep),
        dedup_tol=state_list.dedup_tol,
        degenerate_patterns=state_list.degenerate_patterns,
    )
