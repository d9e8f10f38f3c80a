"""The shared per-basis cache: same answers as fresh work, read-only, bounded."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from kdwitness import (
    DimensionMismatch,
    DimensionTooLarge,
    NotCompletelyIncompatible,
    SPIN1,
    ValidationError,
    complete_incompatibility,
    config,
    enumerate_min_uncertainty_states,
    haar_unitary,
    nonpositivity_roof_bounds,
    pure_positive,
    support_roof_bounds,
)
from kdwitness.basis import BasisPair, _shared
from kdwitness.errors import NonGenericPatternWarning
from kdwitness.pure_positive import kd_positive_states
from kdwitness.studies import dft_matrix


def _inside_mixture(states):
    return np.einsum("ki,kj->ij", states, states.conj()) / len(states)


def test_equal_content_shares_one_pair():
    u = haar_unitary(4, 1)
    assert BasisPair.of(u) is BasisPair.of(u.copy())
    assert BasisPair.of(u) is BasisPair.of(np.asfortranarray(u))
    assert BasisPair.of(u) is not BasisPair.of(haar_unitary(4, 2))


def test_cached_arrays_are_read_only():
    u = haar_unitary(4, 3)
    minimal = enumerate_min_uncertainty_states(u)
    assert enumerate_min_uncertainty_states(u) is minimal
    pair = BasisPair.of(u)
    positive = kd_positive_states(pair)
    rho = _inside_mixture(positive.states)
    assert support_roof_bounds(rho, u).exact and nonpositivity_roof_bounds(rho, u).exact
    assert not pair.transition.flags.writeable
    arrays = [pair.transition] + [
        getattr(part, "states", part) for part in pair._parts.values()
    ]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    # The transition, the minimal and KD-positive states and both point sets.
    assert len(arrays) == 5
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_warnings_are_replayed_on_every_hit(monkeypatch):
    monkeypatch.setattr(
        pure_positive,
        "complete_incompatibility",
        lambda u, eps: SimpleNamespace(completely_incompatible=True),
    )
    seen = []
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seen.append((enumerate_min_uncertainty_states(dft_matrix(6)), caught))
    (first, first_warnings), (second, second_warnings) = seen
    assert second is first
    messages = [[str(w.message) for w in ws] for ws in (first_warnings, second_warnings)]
    assert messages[0] == messages[1]
    assert len(messages[0]) == len(first.degenerate_patterns) > 1
    assert all(w.category is NonGenericPatternWarning for w in second_warnings)


def test_typed_errors_on_every_call():
    for _ in range(2):
        with pytest.raises(NotCompletelyIncompatible):
            enumerate_min_uncertainty_states(dft_matrix(4))
        with pytest.raises(DimensionTooLarge):
            enumerate_min_uncertainty_states(haar_unitary(7, 1))
        with pytest.raises(DimensionTooLarge):
            complete_incompatibility(np.eye(9))
        with pytest.raises(DimensionMismatch):
            complete_incompatibility(np.ones((2, 3)))
        with pytest.raises(ValidationError, match="rounding"):
            complete_incompatibility(SPIN1.transition, eps=1e-18)
    bad = SPIN1.transition.copy()
    bad[0, 0] = np.nan
    enumerate_min_uncertainty_states(SPIN1.transition)
    with pytest.raises(ValidationError, match="NaN"):
        enumerate_min_uncertainty_states(bad)


def test_mutated_input_gets_a_fresh_answer():
    u = haar_unitary(4, 5).copy()
    before = enumerate_min_uncertainty_states(u)
    u[:] = haar_unitary(4, 6)
    after = enumerate_min_uncertainty_states(u)
    fresh = enumerate_min_uncertainty_states(haar_unitary(4, 6))
    assert after is fresh
    assert not np.array_equal(after.states, before.states)


def test_each_tolerance_still_changes_the_answer(monkeypatch):
    # A minor of modulus 1e-7 lies between the default eps and 1e-6.
    u = haar_unitary(3, 8).copy()
    u[0, 0] = 1e-7
    assert complete_incompatibility(u).completely_incompatible
    report = complete_incompatibility(u, eps=1e-6)
    assert not report.completely_incompatible and report.eps == 1e-6
    with pytest.raises(NotCompletelyIncompatible):
        enumerate_min_uncertainty_states(u, eps=1e-6)
    monkeypatch.setenv("KD_DEFAULT_TOL", "1e-6")
    assert not complete_incompatibility(u).completely_incompatible
    with pytest.raises(NotCompletelyIncompatible):
        enumerate_min_uncertainty_states(u)
    monkeypatch.delenv("KD_DEFAULT_TOL")

    v = haar_unitary(4, 7)
    assert len(enumerate_min_uncertainty_states(v)) == 56
    assert len(enumerate_min_uncertainty_states(v, dedup_tol=0.5)) < 56
    pair = BasisPair.of(v)
    strict = kd_positive_states(pair)
    # The positivity tolerance is the base one, set here through the environment.
    monkeypatch.setenv("KD_DEFAULT_TOL", "3e-2")
    loose = kd_positive_states(pair)
    assert len(enumerate_min_uncertainty_states(v)) == 56
    assert len(strict) < len(loose) < 56


def test_cache_stays_within_its_size():
    first = BasisPair.of(haar_unitary(3, 0))
    for seed in range(1, config.BASIS_CACHE_SIZE + 5):
        complete_incompatibility(haar_unitary(3, seed))
    assert _shared.cache_info().currsize == config.BASIS_CACHE_SIZE
    assert BasisPair.of(haar_unitary(3, 0)) is not first
