"""The per-basis caches: same answers as fresh work, read-only, bounded."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from kdwitness import (
    AnnealConfig,
    DimensionMismatch,
    DimensionTooLarge,
    NotCompletelyIncompatible,
    SPIN1,
    ValidationError,
    basis,
    complete_incompatibility,
    config,
    enumerate_min_uncertainty_states,
    filter_kd_positive_pure,
    haar_unitary,
    incompatibility,
    nonpositivity_roof_bounds,
    pure_positive,
    rho_lambda,
    support_roof_bounds,
)
from kdwitness.errors import NonGenericPatternWarning
from kdwitness.io_json import to_jsonable
from kdwitness.studies import dft_matrix

CACHES = (incompatibility._smallest_minor, pure_positive._solve_patterns)


def _inside_mixture(states):
    return np.einsum("ki,kj->ij", states, states.conj()) / len(states)


def test_equal_content_shares_one_pair():
    u = haar_unitary(4, 1)
    first = enumerate_min_uncertainty_states(u)
    assert enumerate_min_uncertainty_states(u.copy()) is first
    assert enumerate_min_uncertainty_states(np.asfortranarray(u)) is first
    assert enumerate_min_uncertainty_states(haar_unitary(4, 2)) is not first
    hits = incompatibility._smallest_minor.cache_info().hits
    complete_incompatibility(np.asfortranarray(u))
    assert incompatibility._smallest_minor.cache_info().hits == hits + 1


def test_computation_gets_a_read_only_c_ordered_copy():
    seen = []
    spy = basis.per_basis(lambda u: seen.append(u) or len(seen))
    u = np.asfortranarray(haar_unitary(3, 4))
    assert spy(u) == spy(u.copy()) == 1
    (copy,) = seen
    assert copy.flags.c_contiguous and not copy.flags.writeable
    assert np.array_equal(copy, u)


def test_cached_arrays_are_read_only():
    u = haar_unitary(4, 3)
    minimal = enumerate_min_uncertainty_states(u)
    rho = _inside_mixture(filter_kd_positive_pure(minimal, u).states)
    assert support_roof_bounds(rho, u).exact and nonpositivity_roof_bounds(rho, u).exact
    assert enumerate_min_uncertainty_states(u) is minimal
    assert not minimal.states.flags.writeable
    with pytest.raises(ValueError):
        minimal.states[0] = 0.0


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


def test_solves_on_the_kept_pattern_tables_give_the_same_answer(monkeypatch):
    # The pattern tables depend on d alone and outlive the per-basis cache.
    monkeypatch.setattr(
        pure_positive,
        "complete_incompatibility",
        lambda u, eps: SimpleNamespace(completely_incompatible=True),
    )
    for u in (haar_unitary(5, 9), dft_matrix(6)):
        seen = []
        for clear in (True, False, True):
            if clear:
                basis.clear_cache()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = enumerate_min_uncertainty_states(u)
            seen.append((result.states.tobytes(), result.patterns, result.degenerate_patterns,
                         [(w.category, str(w.message)) for w in caught]))
        assert seen[0] == seen[1] == seen[2]
        assert len(seen[0][3]) == len(seen[0][2])
    assert len(seen[0][2]) > 1


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
    monkeypatch.setenv("KD_DEFAULT_TOL", "1e-6")
    assert not complete_incompatibility(u).completely_incompatible
    with pytest.raises(NotCompletelyIncompatible):
        enumerate_min_uncertainty_states(u)
    monkeypatch.delenv("KD_DEFAULT_TOL")

    v = haar_unitary(4, 7)
    assert len(enumerate_min_uncertainty_states(v)) == 56
    assert len(enumerate_min_uncertainty_states(v, dedup_tol=0.5)) < 56
    strict = filter_kd_positive_pure(enumerate_min_uncertainty_states(v), v)
    # The positivity tolerance is the base one, set here through the environment.
    monkeypatch.setenv("KD_DEFAULT_TOL", "3e-2")
    loose = filter_kd_positive_pure(enumerate_min_uncertainty_states(v), v)
    assert len(enumerate_min_uncertainty_states(v)) == 56
    assert len(strict) < len(loose) < 56


def test_cache_stays_within_its_size():
    first = enumerate_min_uncertainty_states(haar_unitary(3, 0))
    for seed in range(1, config.BASIS_CACHE_SIZE + 5):
        enumerate_min_uncertainty_states(haar_unitary(3, seed))
    for cache in CACHES:
        assert cache.cache_info().currsize == config.BASIS_CACHE_SIZE
    assert enumerate_min_uncertainty_states(haar_unitary(3, 0)) is not first
    basis.clear_cache()
    assert all(cache.cache_info().currsize == 0 for cache in CACHES)


def _spin1_rho():
    return rho_lambda(0.3), SPIN1.transition


def _haar_inside():
    u = haar_unitary(5, 5)
    positive = filter_kd_positive_pure(enumerate_min_uncertainty_states(u), u)
    return _inside_mixture(positive.states), u


@pytest.mark.parametrize("case", [_spin1_rho, _haar_inside], ids=["spin1", "haar5_inside"])
@pytest.mark.parametrize(
    "bounds", [support_roof_bounds, nonpositivity_roof_bounds], ids=["support", "nonpos"]
)
def test_roofs_agree_on_a_cold_and_a_warm_cache(case, bounds):
    rho, u = case()
    cfg = AnnealConfig(restarts=3, steps=150, seed=1)
    # The support roof takes no annealer settings.
    kwargs = {"cfg": cfg} if bounds is nonpositivity_roof_bounds else {}
    basis.clear_cache()
    cold = bounds(rho, u, **kwargs)
    assert all(cache.cache_info().currsize > 0 for cache in CACHES)
    warm = bounds(rho, u, **kwargs)
    assert to_jsonable(warm) == to_jsonable(cold)
    for part in ("weights", "states"):
        assert (getattr(warm.upper_decomposition, part).tobytes()
                == getattr(cold.upper_decomposition, part).tobytes())
