import math
import warnings
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from kdwitness import (
    NotCompletelyIncompatible,
    SPIN1,
    enumerate_min_uncertainty_states,
    filter_kd_positive_pure,
    haar_unitary,
    is_kd_positive,
    kd_table,
    phase_invariant_distance,
    support_counts_pure,
)
from kdwitness import pure_positive
from kdwitness.errors import NonGenericPatternWarning
from kdwitness.incompatibility import _minors_by_recurrence
from kdwitness.pure_positive import SupportPattern
from kdwitness.studies import dft_matrix


# -- reference: the enumeration one pattern at a time --------------------------


def _reference_null_vector(constraints):
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


def _reference_canonical_phase(psi):
    for amp in psi:
        if abs(amp) > 1e-12:
            return psi * (amp.conjugate() / abs(amp))
    return psi


def _reference_enumeration(u, eps=1e-9):
    """States, patterns, degenerate patterns and warning texts, pattern by pattern."""
    d = u.shape[0]
    u_conj = np.conj(u)
    states, patterns, degenerate, messages = [], [], [], []
    for size_a in range(1, d + 1):
        size_b = d + 1 - size_a
        for sub_a in combinations(range(d), size_a):
            for sub_b in combinations(range(d), size_b):
                pattern = SupportPattern(sub_a, sub_b)
                outside_b = [j for j in range(d) if j not in sub_b]
                constraints = u_conj[np.ix_(sub_a, outside_b)].T
                solution, null_dim = _reference_null_vector(constraints)
                if solution is None:
                    degenerate.append((pattern, null_dim))
                    messages.append(f"pattern {pattern} has null-space dimension {null_dim}")
                    continue
                psi = np.zeros(d, dtype=complex)
                psi[list(sub_a)] = solution
                psi = _reference_canonical_phase(psi / np.linalg.norm(psi))
                realized_a = tuple(np.flatnonzero(np.abs(psi) > eps).tolist())
                realized_b = tuple(np.flatnonzero(np.abs(psi @ u_conj) > eps).tolist())
                if realized_a != sub_a or realized_b != sub_b:
                    continue
                states.append(psi)
                patterns.append(pattern)
    return np.array(states), tuple(patterns), tuple(degenerate), messages


def _enumerate_recording_warnings(u):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = enumerate_min_uncertainty_states(u)
    messages = [str(w.message) for w in caught if w.category is NonGenericPatternWarning]
    return result, messages


def _assert_matches_reference(u):
    result, messages = _enumerate_recording_warnings(u)
    states, patterns, degenerate, ref_messages = _reference_enumeration(u)
    assert result.patterns == patterns
    assert result.degenerate_patterns == degenerate
    assert messages == ref_messages
    assert result.states.shape == states.shape
    assert np.max(np.abs(result.states - states)) <= 1e-12
    return result


REFERENCE_BASES = [
    pytest.param(SPIN1.transition, id="spin1"),
    pytest.param(dft_matrix(3), id="dft3"),
    pytest.param(dft_matrix(5), id="dft5"),
] + [pytest.param(haar_unitary(d, 100 + d), id=f"haar{d}") for d in range(2, 8)]


@pytest.mark.parametrize("u", REFERENCE_BASES)
def test_enumeration_matches_the_per_pattern_reference(u):
    result = _assert_matches_reference(u)
    positive = filter_kd_positive_pure(result, u)
    keep = [k for k, psi in enumerate(result.states) if is_kd_positive(kd_table(psi, u))]
    assert positive.patterns == tuple(result.patterns[k] for k in keep)
    assert np.array_equal(positive.states, result.states[keep])


@pytest.mark.parametrize("d", range(2, 9))
def test_pattern_tables_list_every_pattern_in_combinations_order(d):
    families, masks, patterns = pure_positive._pattern_tables(d)
    assert pure_positive._pattern_tables(d) is pure_positive._pattern_tables(d)
    want = [SupportPattern(s, t) for a in range(1, d + 1)
            for s in combinations(range(d), a) for t in combinations(range(d), d + 1 - a)]
    assert len(patterns) == math.comb(2 * d, d + 1) == len(want)
    assert list(patterns) == want
    assert masks.shape == (len(patterns), 2 * d)
    assert all(masks[k, :d].nonzero()[0].tolist() == list(p.a_support)
               and masks[k, d:].nonzero()[0].tolist() == list(p.b_support)
               for k, p in enumerate(patterns))
    assert len(families) == d
    start = 0
    for a, (gather, scatter) in enumerate(families, start=1):
        family = patterns[start:start + len(scatter)]
        assert all(len(p.a_support) == a for p in family)
        # Pattern k's system row j holds conj(U)[S, j] for each j outside T; its
        # solution goes to S in row k of the stacked states.
        assert gather.tolist() == [[[i * d + j for i in p.a_support]
                                    for j in range(d) if j not in p.b_support] for p in family]
        assert scatter.tolist() == [[(start + k) * d + i for i in p.a_support]
                                    for k, p in enumerate(family)]
        start += len(family)
    assert start == len(patterns)
    for array in (masks, *(a for family in families for a in family)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0


@pytest.mark.parametrize("d", range(2, 8))
def test_cofactor_tables_read_each_patterns_signed_minors(d):
    at, to, powers = pure_positive._cofactor_tables(d)
    assert pure_positive._cofactor_tables(d) is pure_positive._cofactor_tables(d)
    _, _, patterns = pure_positive._pattern_tables(d)
    u = haar_unitary(d, 200 + d)
    minors = np.conj(np.concatenate([np.ones(1), *_minors_by_recurrence(u)[0][:-1]]))
    psi = np.zeros((len(patterns), d), dtype=complex)
    np.put(psi, to, np.concatenate([minors, -minors])[at])
    for k, p in enumerate(patterns):
        s, outside_t = list(p.a_support), [j for j in range(d) if j not in p.b_support]
        # Cofactor j: (-1)^j conj(det U[S - s_j, outside T]), at s_j.
        dets = np.linalg.det(np.array([u[np.ix_(s[:j] + s[j + 1:], outside_t)]
                                       for j in range(len(s))]))
        want = np.zeros(d, dtype=complex)
        want[s] = (-1) ** np.arange(len(s)) * np.conj(dets)
        assert np.max(np.abs(psi[k] - want)) <= 1e-12, p
        assert powers[k] == len(s) - 2
    for array in (at, to, powers):
        assert not array.flags.writeable


@pytest.mark.parametrize("u", REFERENCE_BASES)
def test_completely_incompatible_bases_read_every_state_off_the_minors(u, monkeypatch):
    systems = []
    monkeypatch.setattr(pure_positive, "_null_vectors", systems.append)
    enumerate_min_uncertainty_states(u)
    assert not systems


def test_a_pattern_whose_distance_bound_fails_gets_its_svd(monkeypatch):
    # An order d - 1 minor belongs to one pattern's cofactors: here minor
    # ((0, 1, 3), (0, 1, 3)) to (S, T) = ((0, 1, 2, 3), (2,)).
    u = haar_unitary(4, 104)
    recurrence = pure_positive._minors_by_recurrence

    def perturbed(v):
        minors, bound = recurrence(v)
        minors[2] = minors[2].copy()
        minors[2][5] *= 1 + 1e-6
        return minors, bound

    null_vectors = pure_positive._null_vectors
    systems = []

    def counted(constraints):
        systems.append(constraints)
        return null_vectors(constraints)

    monkeypatch.setattr(pure_positive, "_minors_by_recurrence", perturbed)
    monkeypatch.setattr(pure_positive, "_null_vectors", counted)
    _assert_matches_reference(u)
    assert len(systems) == 1
    assert np.array_equal(systems[0], np.conj(u)[:, [0, 1, 3]].T[np.newaxis])


def test_a_scaled_basis_reads_the_same_states_off_its_minors(monkeypatch):
    # The bounds use ||U||_2, so scaling U scales the minors and the bounds alike.
    u = haar_unitary(5, 105)
    monkeypatch.setattr(pure_positive, "_null_vectors", None)
    result = pure_positive._solve_patterns(u)
    for factor in (1e-2, 1e2):
        scaled = pure_positive._solve_patterns(factor * u)
        assert scaled.patterns == result.patterns
        assert np.max(np.abs(scaled.states - result.states)) <= 1e-12


def test_degenerate_patterns_follow_the_reference_order(monkeypatch):
    # The six-dimensional Fourier pair has vanishing minors, so some
    # pattern systems have a null space of dimension two. With the
    # incompatibility check bypassed, the family solve must report them
    # (and warn) in the reference's lexicographic order.
    monkeypatch.setattr(
        pure_positive,
        "complete_incompatibility",
        lambda u: SimpleNamespace(completely_incompatible=True),
    )
    result = _assert_matches_reference(dft_matrix(6))
    assert len(result.degenerate_patterns) > 1


def test_every_realized_state_is_kept():
    assert len(enumerate_min_uncertainty_states(haar_unitary(4, 3))) == 56


@pytest.mark.parametrize("u", REFERENCE_BASES)
def test_each_state_is_the_one_ray_of_its_pattern(u):
    # What makes each kept state unique: it realizes its own pattern, and no
    # two patterns are the same, so no two states are one ray.
    result = enumerate_min_uncertainty_states(u)
    assert len(set(result.patterns)) == len(result.patterns)
    for psi, pattern in zip(result.states, result.patterns):
        assert tuple(np.flatnonzero(np.abs(psi) > 1e-9).tolist()) == pattern.a_support
        assert tuple(np.flatnonzero(np.abs(psi @ np.conj(u)) > 1e-9).tolist()) == pattern.b_support
    # Row by row: all pairs at once would take gigabytes at d = 7.
    for k in range(len(result) - 1):
        assert (phase_invariant_distance(result.states[k], result.states[k + 1:]) > 1e-8).all()


def _match_one_to_one(found, reference, tol=1e-8):
    remaining = list(range(found.shape[0]))
    for ref in reference:
        scored = [(phase_invariant_distance(found[k], ref), k) for k in remaining]
        dist, k = min(scored)
        assert dist <= tol
        remaining.remove(k)
    assert not remaining


def test_spin1_enumeration_matches_fixture():
    result = enumerate_min_uncertainty_states(SPIN1.transition)
    assert len(result) == 15
    assert not result.degenerate_patterns
    _match_one_to_one(result.states, SPIN1.min_uncertainty_states)


def test_spin1_patterns_are_realized_exactly():
    result = enumerate_min_uncertainty_states(SPIN1.transition)
    u_conj = np.conj(SPIN1.transition)
    for psi, pattern in zip(result.states, result.patterns):
        realized_a = tuple(np.flatnonzero(np.abs(psi) > 1e-9).tolist())
        realized_b = tuple(np.flatnonzero(np.abs(psi @ u_conj) > 1e-9).tolist())
        assert realized_a == pattern.a_support
        assert realized_b == pattern.b_support
        counts = support_counts_pure(psi, SPIN1.transition)
        assert counts.n_a == len(pattern.a_support)
        assert counts.n_b == len(pattern.b_support)
        assert counts.n_ab == 4


def test_spin1_positive_filter():
    result = enumerate_min_uncertainty_states(SPIN1.transition)
    positive = filter_kd_positive_pure(result, SPIN1.transition)
    assert len(positive) == 9
    _match_one_to_one(positive.states, SPIN1.positive_states)
    # The six unequal-weight superpositions are all rejected.
    rejected = 15 - len(positive)
    assert rejected == 6


@pytest.mark.parametrize("u", [
    pytest.param(SPIN1.transition, id="spin1"),
    *(pytest.param(dft_matrix(d), id=f"dft{d}") for d in (2, 3, 5)),
    *(pytest.param(haar_unitary(d, seed), id=f"haar{d}-{seed}")
      for d in range(2, 7) for seed in (11, 12, 13)),
])
def test_filter_keeps_the_states_with_positive_tables(u):
    result = enumerate_min_uncertainty_states(u)
    positive = filter_kd_positive_pure(result, u)
    kept = {p: k for k, p in enumerate(result.patterns)}
    want = [k for k, psi in enumerate(result.states) if is_kd_positive(kd_table(psi, u))]
    assert [kept[p] for p in positive.patterns] == want
    assert np.array_equal(positive.states, result.states[want])


def test_filter_is_idempotent_and_a_subset():
    result = enumerate_min_uncertainty_states(SPIN1.transition)
    once = filter_kd_positive_pure(result, SPIN1.transition)
    twice = filter_kd_positive_pure(once, SPIN1.transition)
    assert len(twice) == len(once)
    assert np.array_equal(once.states, twice.states)


def test_hadamard_pair_enumeration():
    # For the two-dimensional Fourier pair the only minimal states are the
    # four basis states, worked out by hand from the one-constraint systems.
    u = dft_matrix(2)
    result = enumerate_min_uncertainty_states(u)
    assert len(result) == 4
    reference = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            u[:, 0],
            u[:, 1],
        ],
        dtype=complex,
    )
    _match_one_to_one(result.states, reference)
    positive = filter_kd_positive_pure(result, u)
    assert len(positive) == 4


def test_enumeration_at_d7_gives_every_minimal_state():
    # The minor count is the only size guard: d = 7 has C(14, 8) = 3003 patterns.
    u = haar_unitary(7, 1007)
    result = enumerate_min_uncertainty_states(u)
    assert len(result) == math.comb(14, 8) == 3003
    assert not result.degenerate_patterns
    assert all(support_counts_pure(psi, u).n_ab == 8 for psi in result.states)


def test_rejects_incompatible_basis():
    with pytest.raises(NotCompletelyIncompatible):
        enumerate_min_uncertainty_states(dft_matrix(4))


def test_completeness_against_dense_search():
    # Oracle: a million Haar samples at eps 1e-6 contain no state with
    # minimal summed support beyond the enumerated list.
    u = SPIN1.transition
    result = enumerate_min_uncertainty_states(u)
    rng = np.random.default_rng(2024)
    eps = 1e-6
    stray = 0
    for _ in range(10):
        batch = rng.standard_normal((100_000, 3)) + 1j * rng.standard_normal(
            (100_000, 3)
        )
        batch /= np.linalg.norm(batch, axis=1)[:, None]
        n_a = (np.abs(batch) > eps).sum(axis=1)
        n_b = (np.abs(batch @ u.conj()) > eps).sum(axis=1)
        hits = batch[(n_a + n_b) <= 4]
        for psi in hits:
            if min(
                phase_invariant_distance(psi, s) for s in result.states
            ) > 1e-6:
                stray += 1
    assert stray == 0
